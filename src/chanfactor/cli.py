"""Command-line interface.

One subcommand per reproducible artifact: channel factorization reports,
the square-root-amplitude quantum factorization, the quantum-advantage
heatmap, phase scans, the qutrit case-study curve, and the canned merging
demonstration. All outputs are deterministic: a fixed configuration yields
byte-identical bytes on every run.

Exit codes: 0 success, 2 validation failure, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import casestudy, phase, qfactor
from .channel import (
    Channel,
    InputDistribution,
    InvalidChannel,
    _number_array,
    causal_factorization,
    pushforward,
    shannon_entropy,
)
from .linalg import ENTROPY_TOL, ROW_TOL
from .qfactor import (
    DensityMatrix,
    Ensemble,
    PureState,
    advantage_grid,
    average_state,
    fidelity_bound_check,
    g0_construct,
    merge,
    qfactorization_to_json,
    verify_qfactorization,
    von_neumann_entropy,
)

__all__ = ["ParseError", "build_parser", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3


class ParseError(ValueError):
    """Input file could not be read or decoded as JSON."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except (json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"{path} is not valid JSON: {err}") from err


def _load_dist(path: str | None, n: int) -> InputDistribution:
    if path is None:
        return InputDistribution.uniform(n)
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("probabilities")
    if data is None:
        raise ParseError(f"{path}: expected a probability array")
    return InputDistribution(_number_array(data, "probabilities"))


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc: dict) -> None:
    _write(args, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def cmd_factorize(args) -> int:
    c = Channel.from_json(_load_json(args.channel))
    f = causal_factorization(c, args.tol)
    doc = {
        "config": {"command": args.command, "tol": args.tol, "channel": args.channel},
        "partition": [[c.inputs[x] for x in cl] for cl in f.partition.classes],
        "cardinality": f.partition.n_classes,
        "reduced_channel": f.reduced.to_json(),
    }
    if args.dist:
        d = _load_dist(args.dist, c.n_inputs)
        doc["entropy_x"] = shannon_entropy(d)
        doc["entropy_z"] = shannon_entropy(pushforward(d, f.partition))
    _emit_json(args, doc)
    return EXIT_OK


def cmd_qfactorize(args) -> int:
    c = Channel.from_json(_load_json(args.channel))
    q = g0_construct(c, args.tol)
    check = verify_qfactorization(c, q, args.tol)
    bound = fidelity_bound_check(c, q, args.tol)
    d = _load_dist(args.dist, c.n_inputs)
    weights = pushforward(d, q.partition)
    rho = average_state(Ensemble(weights.probs, q.signals))
    s_signal = von_neumann_entropy(rho)
    h_z = shannon_entropy(weights)
    doc = {
        "config": {"command": args.command, "tol": args.tol, "channel": args.channel},
        "qfactorization": qfactorization_to_json(q),
        "report": {
            "verified": check.ok,
            "cardinality": q.cardinality,
            "entropy_signal": s_signal,
            "entropy_z": h_z,
            "advantage": h_z - s_signal,
            "fidelity_pairs": [
                {
                    "pair": [p.label_i, p.label_j],
                    "f_quantum": p.f_quantum,
                    "f_classical": p.f_classical,
                    "slack": p.slack,
                    "saturated": p.saturated,
                }
                for p in bound.pairs
            ],
        },
    }
    _emit_json(args, doc)
    return EXIT_OK if check.ok else EXIT_VALIDATION


def cmd_heatmap(args) -> int:
    p_steps = args.points
    alpha_steps = args.points if args.alpha_points is None else args.alpha_points
    if p_steps < 2 or alpha_steps < 2:
        raise InvalidChannel("heatmap needs at least 2 steps per axis")
    ps = np.linspace(0.0, 1.0, p_steps)
    alphas = np.linspace(0.0, 1.0, alpha_steps)
    grid = advantage_grid(ps, alphas)
    lines = ["p,alpha,advantage"]
    for i, p in enumerate(ps):
        for j, a in enumerate(alphas):
            lines.append(f"{float(p)!r},{float(a)!r},{float(grid[i, j])!r}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_phase_scan(args) -> int:
    data = _load_json(args.ensemble)
    if not isinstance(data, dict) or not {"weights", "a", "b"} <= set(data):
        raise ParseError(f"{args.ensemble}: expected keys weights, a, b")
    ens = phase.PhasedQubitEnsemble.from_magnitudes(
        *(_number_array(data[key], key) for key in ("weights", "a", "b"))
    )
    if ens.size > 3 and args.points is not None:
        raise ValueError(
            f"--points sets the phase grid, which runs for at most 3 states; this ensemble has {ens.size}"
        )
    phases, entropy = phase.optimal_phases(ens)
    if ens.size <= 3:
        resolution = (360 if ens.size <= 2 else 72) if args.points is None else args.points
        scan = phase.grid_scan(ens, resolution)
        grid_min, grid_res = scan.min_entropy, scan.resolution
    else:
        # Full grids blow up combinatorially; the stationary configurations
        # (all phases in {0, pi}) carry the candidate minima.
        deltas = phase.sign_pattern_deltas(ens)
        grid_min = float(np.min(phase.entropy_from_delta(deltas)))
        grid_res = 2
    doc = {
        "config": {"command": args.command, "tol": ENTROPY_TOL, "ensemble": args.ensemble},
        "phases": phases.tolist(),
        "delta": phase.delta(ens.with_phases(phases)),
        "entropy": entropy,
        "grid_min_entropy": grid_min,
        "grid_resolution": grid_res,
        "pass": bool(entropy <= grid_min + ENTROPY_TOL),
    }
    _emit_json(args, doc)
    return EXIT_OK


def cmd_casestudy(args) -> int:
    family = casestudy.build_sic_family()
    curve = casestudy.entropy_purity_curve(family, args.points)
    lines = ["t,entropy_rho_t,purity_rho_t,entropy_rho_At"]
    for pt in curve.points:
        lines.append(
            f"{pt.t:.12g},{pt.entropy_rho_t:.12g},"
            f"{pt.purity_rho_t:.12g},{pt.entropy_rho_At:.12g}"
        )
    _write(args, "\n".join(lines) + "\n")
    first, last = curve.points[0], curve.points[-1]
    gmin = curve.global_min()
    print(
        f"endpoints: S(rho_t={first.t:g}) = {first.entropy_rho_t:.6f}, "
        f"S(rho_t={last.t:g}) = {last.entropy_rho_t:.6f}",
        file=sys.stderr,
    )
    print(
        f"global minimum: t = {gmin.t:g}, entropy = {gmin.entropy_rho_t:.6f}, "
        f"purity = {gmin.purity_rho_t:.6f}",
        file=sys.stderr,
    )
    print(
        "segments: "
        + "; ".join(f"{d} on [{a:g}, {b:g}]" for d, a, b in curve.monotone_segments()),
        file=sys.stderr,
    )
    return EXIT_OK


def _merge_case(weights, states, labels, j, k) -> dict:
    ens = Ensemble(np.asarray(weights, dtype=float), tuple(states))
    base = von_neumann_entropy(average_state(ens))
    jk, kj = merge(ens, j, k)
    s_jk = von_neumann_entropy(average_state(jk))
    s_kj = von_neumann_entropy(average_state(kj))
    return {
        "labels": list(labels),
        "weights": list(map(float, weights)),
        "entropy": base,
        "merge": {
            f"{labels[j]}->{labels[k]}": s_jk,
            f"{labels[k]}->{labels[j]}": s_kj,
        },
        "min_direction": (
            f"{labels[j]}->{labels[k]}" if s_jk <= s_kj else f"{labels[k]}->{labels[j]}"
        ),
    }


def cmd_merge_demo(args) -> int:
    ket0 = PureState(np.array([1.0, 0.0]))
    ket1 = PureState(np.array([0.0, 1.0]))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    pure_case = _merge_case(
        [3 / 6, 2 / 6, 1 / 6],
        [DensityMatrix.from_pure(s) for s in (ket0, ket1, plus)],
        ["A", "B", "C"],
        1,
        2,
    )
    mixed = qfactor.maximally_mixed(2)
    mixed_case = _merge_case(
        [1 / 3, 1 / 3, 1 / 3],
        [mixed, mixed, DensityMatrix.from_pure(ket0)],
        ["mixed1", "mixed2", "pure"],
        1,
        2,
    )
    doc = {
        "config": {"command": args.command},
        "pure_states": pure_case,
        "mixed_states": mixed_case,
    }
    _emit_json(args, doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanfactor",
        description="Factorize classical channels through minimal classical "
        "and quantum intermediate variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)
        return p

    for name, func, help_text in (
        ("factorize", cmd_factorize, "causal partition and reduced channel"),
        ("qfactorize", cmd_qfactorize, "square-root-amplitude quantum factorization"),
    ):
        p = command(name, func, help_text)
        p.add_argument("channel", help="channel JSON file")
        p.add_argument("--dist", help="input distribution JSON file")
        p.add_argument("--tol", type=float, default=ROW_TOL, help="row-equality tolerance")

    p = command("heatmap", cmd_heatmap, "quantum advantage grid for the binary-symmetric family")
    p.add_argument("--points", type=int, default=101, help="grid points per axis")
    p.add_argument("--alpha-points", type=int, help="alpha-axis points (default: --points)")

    p = command("phase-scan", cmd_phase_scan, "verify equal phases minimize entropy")
    p.add_argument("ensemble", help="JSON file with weights, a, b arrays")
    p.add_argument("--points", type=int, help="phase grid points (default 360; 72 for 3 states; "
                   "refused for more than 3 states)")

    p = command("casestudy", cmd_casestudy, "entropy/purity curve of the qutrit family")
    p.add_argument("--points", type=int, default=151, help="curve samples")

    command("merge-demo", cmd_merge_demo, "worked ensemble-merging examples")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, IndexError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
