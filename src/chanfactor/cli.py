"""Command-line interface.

One subcommand per reproducible artifact: channel factorization reports,
the square-root-amplitude quantum factorization, the quantum-advantage
heatmap, phase scans, the qutrit case-study curve, and the canned merging
demonstration. All outputs are deterministic: a fixed configuration yields
byte-identical bytes on every run.

The parser, the writer and the exit codes live in ``chanfactor._entry``,
which loads no numpy. Run as ``python -m chanfactor.cli``, this module
first calls its ``parse_or_exit``, so that ``--help`` and a usage error end
the process before numpy loads; a command line that parses falls through
to the imports below, so the module is compiled once and the command line
parsed once.

Each ``cmd_*`` returns (report, stderr summary, exit code); ``_execute``
alone writes them and maps every failure to an exit code: 0 success, 2 validation
failure (a schema violation or an input too large to allocate included), 3
input that cannot be read or decoded as JSON, or a failed write. A
failed ``--out`` write may leave a partial file. Every byte on stdout or
stderr, argparse's help, usage and error text included, goes through
``_entry._write``.
"""

from __future__ import annotations

if __name__ == "__main__":
    from ._entry import parse_or_exit

    _ARGS = parse_or_exit()

import json
import os
import sys
from itertools import repeat
from json.encoder import c_encode_basestring_ascii, c_make_encoder

import numpy as np

from . import qfactor
from ._documents import ParseError, read_json
from ._entry import EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, _output_error, _write, build_parser
from .channel import (
    Channel,
    InputDistribution,
    _check_distribution_of,
    causal_factorization,
    pushforward,
    shannon_entropy,
)
from .linalg import ENTROPY_TOL, ROW_TOL
from .qfactor import (
    DensityMatrix,
    Ensemble,
    FidelityBoundReport,
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

__all__ = ["main"]

_CONTAINERS = (dict, list, tuple)
_DEFAULT = json.JSONEncoder().default  # json.dumps's TypeError for a value JSON cannot hold


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``, byte for byte.

    Python walks only the dicts and lists that hold dicts or lists. Every
    other value goes through CPython's C encoder in one call, made by an
    encoder whose item separator carries the indentation of its items. A
    ``FidelityBoundReport`` is written as the list of its pair dicts, from
    its columns with one row template. A non-finite float raises ValueError.
    """
    encoders = {}

    def scalars(level: int):
        """C encoder of a value whose items sit at indentation ``level``."""
        if level not in encoders:
            # markers, default, string encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan
            encoders[level] = c_make_encoder(
                None, _DEFAULT, c_encode_basestring_ascii, None, ": ", ",\n" + "  " * level, False, False, False
            )
        return encoders[level]

    def emit(o, level: int, out: list) -> None:
        pad = "\n" + "  " * level
        if isinstance(o, FidelityBoundReport):
            out.append(pair_table(o, level, pad))
            return
        items = o.values() if isinstance(o, dict) else o if isinstance(o, (list, tuple)) else ()
        if not any(map(isinstance, items, repeat(_CONTAINERS))):
            text = "".join(scalars(level + 1)(o, 0))
            out.append(f"{text[0]}{pad}  {text[1:-1]}{pad}{text[-1]}" if isinstance(o, _CONTAINERS) and o else text)
        elif isinstance(o, dict):
            out.append("{")
            for n, (key, value) in enumerate(o.items()):
                # {key: null} gives the key's text as json.dumps converts it: a number, bool or null becomes a string
                key_text = "".join(scalars(0)({key: None}, 0))[1 : -len(": null}")]
                out.append(f"{',' if n else ''}{pad}  {key_text}: ")
                emit(value, level + 1, out)
            out.append(pad + "}")
        else:
            out.append("[")
            for n, value in enumerate(o):
                out.append(f"{',' if n else ''}{pad}  ")
                emit(value, level + 1, out)
            out.append(pad + "]")

    def pair_table(r, level: int, pad: str) -> str:
        if not r.i.size:
            return "[]"
        if not all(np.isfinite(col).all() for col in (r.f_quantum, r.f_classical, r.slack)):
            raise ValueError("non-finite fidelity")
        labels = ["".join(scalars(0)(label, 0)) for label in r.labels]  # JSON scalars, by the channel's label rule
        p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
        row = (
            f'{p1}{{{p2}"pair": [{p3}%s,{p3}%s{p2}],{p2}"f_quantum": %s,{p2}"f_classical": %s,'
            f'{p2}"slack": %s,{p2}"saturated": %s{p1}}}'
        )
        rows = zip(
            [labels[i] for i in r.i.tolist()],
            [labels[j] for j in r.j.tolist()],
            map(float.__repr__, r.f_quantum.tolist()),
            map(float.__repr__, r.f_classical.tolist()),
            map(float.__repr__, r.slack.tolist()),
            np.where(r.saturated, "true", "false").tolist(),
        )
        return "[" + ",".join([row % values for values in rows]) + pad + "]"

    out = []
    emit(doc, 0, out)
    out.append("\n")
    return "".join(out)


def _channel_inputs(args) -> tuple:
    """(channel, ``--dist`` distribution or None, tolerance, report config
    block) of ``factorize`` and ``qfactorize``, read and matched before any
    work. A given ``--dist``, an empty path included, is read as a file;
    without ``--tol`` the tolerance is ``ROW_TOL``."""
    c = Channel.from_json(read_json(args.channel))
    d = None if (path := args.dist) is None else InputDistribution.from_json(read_json(path))
    if d is not None:
        _check_distribution_of(c, d)
    tol = ROW_TOL if args.tol is None else args.tol
    return c, d, tol, {"command": args.command, "tol": tol, "channel": args.channel}


def cmd_factorize(args) -> tuple:
    c, d, tol, config = _channel_inputs(args)
    f = causal_factorization(c, tol)
    doc = {
        "config": config,
        "partition": [[c.inputs[x] for x in cl] for cl in f.partition.classes],
        "cardinality": f.partition.n_classes,
        "reduced_channel": f.reduced.to_json(),
    }
    if d is not None:
        doc["entropy_x"] = shannon_entropy(d)
        doc["entropy_z"] = shannon_entropy(pushforward(d, f.partition))
    return _json_text(doc), "", EXIT_OK


def cmd_qfactorize(args) -> tuple:
    c, d, tol, config = _channel_inputs(args)
    q = g0_construct(c, tol)
    check = verify_qfactorization(c, q, tol)
    bound = fidelity_bound_check(c, q, tol)
    weights = pushforward(InputDistribution.uniform(c.n_inputs) if d is None else d, q.partition)
    rho = average_state(Ensemble(weights.probs, q.signals))
    s_signal = von_neumann_entropy(rho)
    h_z = shannon_entropy(weights)
    doc = {
        "config": config,
        "qfactorization": qfactorization_to_json(q),
        "report": {
            "verified": check.ok,
            "cardinality": q.cardinality,
            "entropy_signal": s_signal,
            "entropy_z": h_z,
            "advantage": h_z - s_signal,
            "fidelity_pairs": bound,
        },
    }
    return _json_text(doc), "", EXIT_OK if check.ok else EXIT_VALIDATION


def cmd_heatmap(args) -> tuple:
    p_steps = args.points
    alpha_steps = args.points if args.alpha_points is None else args.alpha_points
    if p_steps < 2 or alpha_steps < 2:
        raise ValueError("heatmap needs at least 2 steps per axis")
    ps = np.linspace(0.0, 1.0, p_steps)
    alphas = np.linspace(0.0, 1.0, alpha_steps)
    grid = advantage_grid(ps, alphas)
    alpha_texts = [repr(a) for a in alphas.tolist()]
    lines = ["p,alpha,advantage"]
    for p, row in zip(ps.tolist(), grid.tolist()):
        p_text = repr(p)
        lines += [f"{p_text},{a},{v!r}" for a, v in zip(alpha_texts, row)]
    return "\n".join(lines) + "\n", "", EXIT_OK


def cmd_phase_scan(args) -> tuple:
    from . import phase

    ens = phase.PhasedQubitEnsemble.from_json(read_json(args.ensemble))
    if ens.size > 3 and args.points is not None:
        raise ValueError(
            f"--points sets the phase grid, which runs for at most 3 states; this ensemble has {ens.size}"
        )
    phases, entropy = phase.optimal_phases(ens)
    # Beyond three states full grids blow up combinatorially; resolution 2 is
    # the stationary configurations (all phases in {0, pi}), which carry the
    # candidate minima.
    default = {1: 360, 2: 360, 3: 72}.get(ens.size, 2)
    scan = phase.grid_scan(ens, default if args.points is None else args.points)
    doc = {
        "config": {"command": args.command, "tol": ENTROPY_TOL, "ensemble": args.ensemble},
        "phases": phases.tolist(),
        "delta": phase.delta(ens.with_phases(phases)),
        "entropy": entropy,
        "grid_min_entropy": scan.min_entropy,
        "grid_resolution": scan.resolution,
        "pass": bool(entropy <= scan.min_entropy + ENTROPY_TOL),
    }
    return _json_text(doc), "", EXIT_OK


def cmd_casestudy(args) -> tuple:
    from . import casestudy

    family = casestudy.build_sic_family()
    curve = casestudy.entropy_purity_curve(family, args.points)
    lines = ["t,entropy_rho_t,purity_rho_t,entropy_rho_At"]
    lines += ["%.12g,%.12g,%.12g,%.12g" % pt for pt in curve.points]
    first, last = curve.points[0], curve.points[-1]
    gmin = curve.global_min()
    segments = "; ".join(f"{d} on [{a:g}, {b:g}]" for d, a, b in curve.monotone_segments())
    summary = (
        f"endpoints: S(rho_t={first.t:g}) = {first.entropy_rho_t:.6f}, "
        f"S(rho_t={last.t:g}) = {last.entropy_rho_t:.6f}\n"
        f"global minimum: t = {gmin.t:g}, entropy = {gmin.entropy_rho_t:.6f}, "
        f"purity = {gmin.purity_rho_t:.6f}\n"
        f"segments: {segments}\n"
    )
    return "\n".join(lines) + "\n", summary, EXIT_OK


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


def cmd_merge_demo(args) -> tuple:
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
    return _json_text(doc), "", EXIT_OK


_COMMANDS = {
    "factorize": cmd_factorize,
    "qfactorize": cmd_qfactorize,
    "heatmap": cmd_heatmap,
    "phase-scan": cmd_phase_scan,
    "casestudy": cmd_casestudy,
    "merge-demo": cmd_merge_demo,
}


def main(argv=None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``) and run the command; its exit code.

    The entry for callers in the same process: argparse's own exits raise
    SystemExit, as they do from ``parse_args``.
    """
    try:
        args = build_parser().parse_args(argv)
    except OSError as err:
        return _output_error(err)
    return _execute(args)


def _execute(args) -> int:
    """Run a parsed command line, write its report and note, and return its exit code."""
    try:
        try:
            report, note, code = _COMMANDS[args.command](args)
        except ParseError as err:
            report, note, code = None, f"parse error: {err}\n", EXIT_PARSE
        except (ValueError, IndexError, MemoryError) as err:
            report, note, code = None, f"validation error: {err}\n", EXIT_VALIDATION
        if report is not None and args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report)
        elif report is not None:
            _write(sys.stdout, report)
        _write(sys.stderr, note)
        return code
    except OSError as err:
        return _output_error(err)


if __name__ == "__main__":
    os._exit(_execute(_ARGS))
