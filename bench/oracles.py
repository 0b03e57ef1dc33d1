"""Output checks that do not use chanfactor (numpy and the standard library).

Each ``check_*`` takes what a workload planted plus the stdout bytes of one
invocation and raises ``OracleError`` on the first disagreement. They cover
valid inputs only: the benchmark never feeds malformed input.
"""

from __future__ import annotations

import io
import json

import numpy as np

# Entropies, fidelities and closed forms are compared to this absolute
# tolerance: well above summation-order round-off (~1e-14 on these sizes),
# far below any planted difference.
NUM_TOL = 1e-9


class OracleError(AssertionError):
    """An output disagrees with its independent reference."""


def _require(ok, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _close(name: str, got, want, tol: float = NUM_TOL) -> None:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    _require(err <= tol, f"{name}: off by {err:.3e} (tolerance {tol:.0e})")


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _spectrum_entropy(m: np.ndarray) -> float:
    return entropy_bits(np.linalg.eigvalsh(m))


def _planted_classes(planted) -> list:
    """Member indices of each planted class, ordered by lowest member as
    chanfactor's Partition orders them."""
    members = [np.flatnonzero(planted.assignment == k) for k in range(planted.class_rows.shape[0])]
    return sorted(members, key=lambda m: m[0])


def _check_partition(planted, partition) -> list:
    classes = _planted_classes(planted)
    labels = planted.labels
    want = [[labels[x] for x in c] for c in classes]
    _require(partition == want, "partition differs from the planted assignment")
    return classes


def _class_weights(planted, classes) -> np.ndarray:
    return np.array([planted.dist[c].sum() for c in classes])


def check_factorize(planted, out: bytes) -> None:
    doc = json.loads(out)
    classes = _check_partition(planted, doc["partition"])
    _require(doc["cardinality"] == len(classes), "cardinality differs from planted class count")
    reps = [c[0] for c in classes]
    reduced = doc["reduced_channel"]
    _require(reduced["inputs"] == [planted.labels[r] for r in reps],
             "reduced channel is not indexed by the class representatives")
    _require(np.array_equal(np.array(reduced["rows"]), planted.matrix[reps]),
             "reduced rows are not the representatives' rows")
    _close("entropy_x", doc["entropy_x"], entropy_bits(planted.dist))
    _close("entropy_z", doc["entropy_z"], entropy_bits(_class_weights(planted, classes)))


def check_qfactorize(planted, tol: float, out: bytes) -> None:
    doc = json.loads(out)
    report = doc["report"]
    q = doc["qfactorization"]
    classes = _check_partition(planted, q["partition"])
    _require(report["verified"] is True, "report is not verified")
    k = len(classes)
    _require(report["cardinality"] == k, "cardinality differs from planted class count")

    roots = np.sqrt(planted.matrix[[c[0] for c in classes]])
    states_re = np.array([s["re"] for s in q["states"]])
    states_im = np.array([s["im"] for s in q["states"]])
    _close("signal states", states_re, roots[:, :, None] * roots[:, None, :], 1e-12)
    _require(not states_im.any(), "signal states have imaginary parts")

    bhatt = roots @ roots.T
    iu = np.triu_indices(k, 1)
    pairs = report["fidelity_pairs"]
    _require(len(pairs) == iu[0].size, f"{len(pairs)} fidelity pairs, expected {iu[0].size}")
    labels = planted.labels
    _require(
        [p["pair"] for p in pairs]
        == [[labels[classes[i][0]], labels[classes[j][0]]] for i, j in zip(*iu)],
        "fidelity pairs are not the class-representative pairs in order",
    )
    f_q = np.array([p["f_quantum"] for p in pairs])
    f_c = np.array([p["f_classical"] for p in pairs])
    _close("f_classical", f_c, bhatt[iu])
    _close("f_quantum vs f_classical", f_q, f_c, tol)
    _require(all(p["saturated"] is True for p in pairs), "a fidelity pair is not saturated")

    w = _class_weights(planted, classes)
    gram = np.sqrt(np.outer(w, w)) * bhatt
    s_signal = _spectrum_entropy(gram)
    h_z = entropy_bits(w)
    _close("entropy_signal", report["entropy_signal"], s_signal)
    _close("entropy_z", report["entropy_z"], h_z)
    _close("advantage", report["advantage"], h_z - s_signal)


def _binary_entropy(q: np.ndarray) -> np.ndarray:
    """Entropy of the two-outcome distributions (q, 1 - q), with 0 log 0 = 0."""
    lam = np.stack([q, 1 - q])
    safe = np.where(lam > 0, lam, 1.0)
    return -(lam * np.log2(safe)).sum(axis=0)


def check_heatmap(points: int, out: bytes) -> None:
    text = out.decode()
    _require(text.startswith("p,alpha,advantage\n"), "heatmap header missing")
    grid = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    axis = np.linspace(0.0, 1.0, points)
    _require(grid.shape == (points * points, 3), f"heatmap has shape {grid.shape}")
    p, alpha = np.repeat(axis, points), np.tile(axis, points)
    _require(np.array_equal(grid[:, 0], p) and np.array_equal(grid[:, 1], alpha),
             "heatmap (p, alpha) cells are not the linspace grid")
    det = alpha * (1 - alpha) * (1 - 4 * p * (1 - p))
    # Eigenvalues of a qubit state with determinant det are (1 +- sqrt(1 - 4 det)) / 2.
    s_rho = _binary_entropy((1 + np.sqrt(np.clip(1 - 4 * det, 0.0, None))) / 2)
    _close("heatmap advantage", grid[:, 2], _binary_entropy(alpha) - s_rho)
    best = int(np.argmax(grid[:, 2]))
    _require(grid[best, 0] == 0.5 and grid[best, 1] == 0.5, "heatmap maximum is not at p = alpha = 1/2")
    _close("heatmap maximum", grid[best, 2], 1.0)


def check_casestudy(points: int, out: bytes) -> None:
    text = out.decode()
    _require(text.startswith("t,entropy_rho_t,purity_rho_t,entropy_rho_At\n"), "casestudy header missing")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    _require(rows.shape == (points, 4), f"casestudy has shape {rows.shape}")
    t = np.linspace(-0.5, 1.0, points)
    _close("casestudy t", rows[:, 0], t, 1e-12)
    # rho_A(t) = diag((1+2t)/3, (1-t)/3, (1-t)/3); rho_t mixes it half and
    # half with |2><2|, so both spectra are their diagonals.
    spec_a = np.stack([(1 + 2 * t) / 3, (1 - t) / 3, (1 - t) / 3], axis=1)
    spec_t = spec_a / 2 + np.array([0.0, 0.0, 0.5])
    _close("entropy_rho_t", rows[:, 1], [entropy_bits(s) for s in spec_t])
    _close("purity_rho_t", rows[:, 2], (spec_t**2).sum(axis=1))
    _close("entropy_rho_At", rows[:, 3], [entropy_bits(s) for s in spec_a])
    _require(int(np.argmin(rows[:, 1])) == 0, "casestudy minimum is not at t = -0.5")


def check_phase_scan(ensemble: dict, resolution: int, out: bytes) -> None:
    doc = json.loads(out)
    _require(doc["pass"] is True, "phase-scan did not pass")
    _require(all(x == 0.0 for x in doc["phases"]), "optimal phases are not all zero")
    _require(doc["grid_resolution"] == resolution, f"grid resolution {doc['grid_resolution']}")
    w, a, b = (np.asarray(ensemble[k]) for k in ("weights", "a", "b"))
    psi = np.stack([a, b], axis=1)
    rho = (w[:, None, None] * psi[:, :, None] * psi[:, None, :]).sum(axis=0)
    _close("phase-scan delta", doc["delta"], np.linalg.det(rho), 1e-12)
    _close("phase-scan entropy", doc["entropy"], _spectrum_entropy(rho))
    _close("phase-scan grid minimum", doc["grid_min_entropy"], doc["entropy"])


def _mixture_entropy(weights, states) -> float:
    return _spectrum_entropy(sum(w * s for w, s in zip(weights, states)))


def check_merge_demo(out: bytes) -> None:
    doc = json.loads(out)
    ket0, ket1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    plus = np.full((2, 2), 0.5)
    half = np.eye(2) / 2
    pure, mixed = doc["pure_states"], doc["mixed_states"]
    want = {
        "pure": (pure["entropy"], _mixture_entropy([1 / 2, 1 / 3, 1 / 6], [ket0, ket1, plus])),
        "pure B->C": (pure["merge"]["B->C"], _mixture_entropy([1 / 2, 1 / 2], [ket0, plus])),
        "pure C->B": (pure["merge"]["C->B"], _mixture_entropy([1 / 2, 1 / 2], [ket0, ket1])),
        "mixed": (mixed["entropy"], _mixture_entropy([1 / 3] * 3, [half, half, ket0])),
        "mixed mixed2->pure": (mixed["merge"]["mixed2->pure"],
                               _mixture_entropy([1 / 3, 2 / 3], [half, ket0])),
        "mixed pure->mixed2": (mixed["merge"]["pure->mixed2"],
                               _mixture_entropy([1 / 3, 2 / 3], [half, half])),
    }
    for name, (got, ref) in want.items():
        _close(f"merge-demo {name}", got, ref)
    headline = [f"{x:.4f}" for x in (pure["entropy"], pure["merge"]["B->C"], pure["merge"]["C->B"])]
    _require(headline == ["0.9595", "0.6009", "1.0000"], f"merge-demo headline {headline}")
    _require(pure["min_direction"] == "B->C" and mixed["min_direction"] == "mixed2->pure",
             "merge-demo minimum direction")
