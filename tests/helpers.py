"""Seeded generators shared across the test modules."""

import numpy as np

from chanfactor.channel import Channel, InputDistribution, Partition
from chanfactor.qfactor import DensityMatrix, Ensemble, PureState


def random_channel(rng, n_inputs=None, n_outputs=None, duplicate_rows=True):
    """Random row-stochastic channel; with ``duplicate_rows`` some inputs
    share a row exactly, so the causal partition is nontrivial."""
    n_in = n_inputs or int(rng.integers(1, 9))
    n_out = n_outputs or int(rng.integers(1, 9))
    if duplicate_rows and n_in > 1 and rng.random() < 0.5:
        n_base = int(rng.integers(1, n_in + 1))
    else:
        n_base = n_in
    base = rng.dirichlet(np.ones(n_out), size=n_base)
    assignment = rng.integers(0, n_base, size=n_in)
    # Make sure every base row is used so the class count is predictable.
    assignment[:n_base] = np.arange(n_base)
    rng.shuffle(assignment)
    labels = tuple(f"x{i}" for i in range(n_in))
    outputs = tuple(f"y{j}" for j in range(n_out))
    return Channel(labels, outputs, base[assignment])


def random_full_support_dist(rng, n):
    """Distribution bounded away from zero (min prob >= ~1e-3)."""
    p = rng.dirichlet(np.ones(n)) + 0.01
    return InputDistribution(p / p.sum())


def random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v))


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace().real)


def random_pure_ensemble(rng, n, d):
    w = rng.dirichlet(np.ones(n))
    return Ensemble.from_pure(w, [random_pure(rng, d) for _ in range(n)])


def random_mixed_ensemble(rng, n, d):
    w = rng.dirichlet(np.ones(n))
    states = [
        random_density(rng, d) if rng.random() < 0.5 else random_pure_density(rng, d)
        for _ in range(n)
    ]
    return Ensemble(w, tuple(states))


def random_pure_density(rng, d):
    return DensityMatrix.from_pure(random_pure(rng, d))


def opwo_ensemble(rng, n_pairs, n_singletons, overlaps=None):
    """Pure ensemble whose overlap graph is a perfect matching plus isolated
    vertices: pair m lives in the plane span{|2m>, |2m+1>}, singletons each
    get their own later axis.

    Returns (ensemble, overlaps) with one overlap magnitude per pair.
    """
    dim = 2 * n_pairs + n_singletons
    n_states = 2 * n_pairs + n_singletons
    if overlaps is None:
        overlaps = rng.uniform(0.1, 0.9, size=n_pairs)
    states = []
    for m in range(n_pairs):
        e0 = np.zeros(dim, dtype=complex)
        e0[2 * m] = 1.0
        e1 = np.zeros(dim, dtype=complex)
        c = overlaps[m]
        e1[2 * m] = c
        e1[2 * m + 1] = np.sqrt(1 - c**2)
        states.extend([PureState(e0), PureState(e1)])
    for s in range(n_singletons):
        e = np.zeros(dim, dtype=complex)
        e[2 * n_pairs + s] = 1.0
        states.append(PureState(e))
    w = rng.dirichlet(np.ones(n_states)) + 0.02
    w = w / w.sum()
    return Ensemble.from_pure(w, states), np.asarray(overlaps)


def brute_force_row_classes(matrix, tol=1e-9):
    """Independent oracle: pairwise row comparison, first-match grouping."""
    classes = []
    for i, row in enumerate(matrix):
        for cl in classes:
            if np.abs(matrix[cl[0]] - row).max() <= tol:
                cl.append(i)
                break
        else:
            classes.append([i])
    return [tuple(cl) for cl in classes]


def jittered_channel(rng, n_inputs, n_classes, n_outputs, jitter):
    """Channel over well-separated class rows whose members carry zero-sum
    jitter: up to ``jitter`` per entry, exactly ``jitter`` on a third of the
    members, none on another third. With ``jitter`` near the tolerance,
    members straddle the tolerance boundary of their class row."""
    rows = 0.5 * rng.dirichlet(np.ones(n_outputs), size=n_classes) + 0.5 / n_outputs
    matrix = rows[rng.integers(0, n_classes, size=n_inputs)]
    half = n_outputs // 2
    for x in range(n_inputs):
        kind = rng.integers(3)
        if kind == 0 or half == 0:
            continue
        v = rng.choice([-jitter, jitter], size=half)
        if kind == 1:
            v *= rng.random(half)
        slots = rng.permutation(n_outputs)
        matrix[x, slots[:half]] += v
        matrix[x, slots[half:2 * half]] -= v
    return Channel(
        tuple(f"x{i}" for i in range(n_inputs)),
        tuple(f"y{j}" for j in range(n_outputs)),
        matrix,
    )


def near_tie_chain(rng, n_inputs, n_outputs, step, direction=None):
    """Shuffled rows base + t * step * direction for t = 0, 1, ...: each row
    is within ``step`` of its neighbours in max-norm, so with step below tol
    and 2 * step above it, which rows group depends on the input order.
    ``direction`` defaults to a zero-sum vector with max-norm 1."""
    base = 0.5 * rng.dirichlet(np.ones(n_outputs)) + 0.5 / n_outputs
    if direction is None:
        direction = np.zeros(n_outputs)
        j, k = rng.choice(n_outputs, size=2, replace=False)
        direction[j], direction[k] = 1.0, -1.0
    t = rng.permutation(n_inputs)
    matrix = base + np.outer(t * step, direction)
    return Channel(
        tuple(f"x{i}" for i in range(n_inputs)),
        tuple(f"y{j}" for j in range(n_outputs)),
        matrix,
    )


def brute_force_violations(c, partition, class_rows, tol):
    """Independent oracle: per-entry comparison of each input's channel row
    with its class row, in class, member, output order."""
    found = []
    for k, cl in enumerate(partition.classes):
        for x in cl:
            for j in range(c.n_outputs):
                gap = abs(float(c.matrix[x, j]) - float(class_rows[k][j]))
                if gap > tol:
                    found.append((c.inputs[x], c.outputs[j], gap))
    return found


def random_partition(rng, n):
    """Uniformly messy partition of range(n), canonicalized by Partition."""
    k = int(rng.integers(1, n + 1))
    assignment = rng.integers(0, k, size=n)
    assignment[: min(k, n)] = np.arange(min(k, n))
    rng.shuffle(assignment)
    classes = {}
    for i, g in enumerate(assignment):
        classes.setdefault(int(g), []).append(i)
    return Partition(tuple(tuple(c) for c in classes.values()), n)


def coarsen(rng, p):
    """Merge two random classes of ``p``; returns a strictly coarser partition."""
    if p.n_classes < 2:
        raise ValueError("cannot coarsen a single-class partition")
    i, j = rng.choice(p.n_classes, size=2, replace=False)
    classes = [list(c) for c in p.classes]
    classes[int(i)].extend(classes[int(j)])
    del classes[int(j)]
    return Partition(tuple(tuple(c) for c in classes), p.size)
