"""Spans around the calls into each chanfactor layer, for the traced run.

The program carries no instrumentation of its own, so the traced run swaps
the module attributes through which the layers call each other for wrappers
that record a span, and puts the originals back afterwards. A span is
``[name, start, end, parent, invocation]``; ``parent`` indexes the span list
(-1 for a root) and ``invocation`` identifies the CLI call it belongs to.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("channel", "qfactor", "phase", "casestudy", "linalg", "cli")
# Spans whose median duration per call is reported, in microseconds.
PER_CALL = ("qfactor.density_matrix", "qfactor.von_neumann_entropy", "casestudy.rho_A")


class Tracer:
    """Spans and counts kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.invocation = -1
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(result, *args)``
        returns counts, of which the largest per call is kept."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(result, *args).items():
                    self.counts[key] = max(self.counts.get(key, 0), value)
            return result

        return traced


def layer_targets(cli, channel, qfactor, phase, casestudy) -> list:
    """(owner, attribute, span name, count) for every layer boundary the CLI
    crosses. The owner is the module or class whose attribute the caller
    looks up at call time, so both importers of a shared function appear."""
    return [
        (channel.Channel, "from_json", "channel.from_json",
         lambda c, *_: {"channel.inputs": c.n_inputs, "channel.outputs": c.n_outputs}),
        (channel, "causal_partition", "channel.causal_partition",
         lambda p, *_: {"channel.classes": p.n_classes}),
        (qfactor, "causal_partition", "channel.causal_partition",
         lambda p, *_: {"channel.classes": p.n_classes}),
        (channel, "factorization_from_partition", "channel.factorization_from_partition", None),
        (cli, "pushforward", "channel.pushforward", None),
        (cli, "shannon_entropy", "channel.shannon_entropy", None),
        (cli, "g0_construct", "qfactor.g0_construct", None),
        (cli, "verify_qfactorization", "qfactor.verify_qfactorization", None),
        (cli, "fidelity_bound_check", "qfactor.fidelity_bound_check",
         lambda r, *_: {"qfactor.fidelity_pairs": len(r.pairs)}),
        (cli, "average_state", "qfactor.average_state", None),
        (cli, "von_neumann_entropy", "qfactor.von_neumann_entropy", None),
        (casestudy, "von_neumann_entropy", "qfactor.von_neumann_entropy", None),
        (cli, "qfactorization_to_json", "qfactor.qfactorization_to_json", None),
        (qfactor.DensityMatrix, "__post_init__", "qfactor.density_matrix", None),
        (phase, "optimal_phases", "phase.optimal_phases", None),
        (phase, "grid_scan", "phase.grid_scan",
         lambda r, ens, resolution: {"phase.grid_points": resolution ** (ens.size - 1)}),
        (phase, "sign_pattern_deltas", "phase.sign_pattern_deltas",
         lambda d, *_: {"phase.sign_patterns": d.size}),
        (phase, "entropy_from_delta", "phase.entropy_from_delta", None),
        (casestudy, "build_sic_family", "casestudy.build_sic_family", None),
        (casestudy, "entropy_purity_curve", "casestudy.entropy_purity_curve",
         lambda c, *_: {"casestudy.points": len(c.points)}),
        (casestudy, "rho_A", "casestudy.rho_A", None),
        (casestudy, "purity", "linalg.purity", None),
        (cli, "advantage_grid", "cli.advantage_grid",
         lambda g, *_: {"cli.advantage_grid.cells": g.size}),
    ]


@contextmanager
def patched(tracer: Tracer, targets: list):
    """Install traced wrappers for ``targets``; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, count in targets:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, count))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_nesting(spans: list, own: list, roots: dict) -> list:
    """Problems with the span tree: a span outside its parent, a negative
    self time, or an invocation whose self times do not add up to its root
    span (the in-process ``cli.main``). ``roots`` maps invocation to root."""
    problems = []
    total = defaultdict(float)
    for i, (name, start, end, parent, inv) in enumerate(spans):
        total[inv] += own[i]
        if own[i] < -1e-9:
            problems.append(f"{name}: negative self time {own[i]:.3e}")
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2] or inv != p[4]:
                problems.append(f"{name} escapes its parent {p[0]}")
        elif i != roots.get(inv):
            problems.append(f"{name} runs outside cli.main")
    for inv, root in roots.items():
        _, start, end, _, _ = spans[root]
        if abs(total[inv] - (end - start)) > 1e-6:
            problems.append(f"invocation {inv}: spans cover {total[inv]:.6f} s of {end - start:.6f} s")
    return problems


def pass_metrics(spans: list, own: list, commands: dict, out_bytes: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``commands`` maps invocation to command name, ``out_bytes`` command name
    to its stdout size. ``<span>_s`` and ``<span>.self_s`` are totals over the
    pass of each span name's duration and self time; ``*_us`` are medians per
    call.
    """
    total, self_total, per_call = defaultdict(float), defaultdict(float), defaultdict(list)
    main_s, main_self = {}, {}
    for i, (name, start, end, _, inv) in enumerate(spans):
        if name == "cli.main":
            main_s[commands[inv]] = end - start
            main_self[commands[inv]] = own[i]
        total[name] += end - start
        self_total[name] += own[i]
        if name in PER_CALL:
            per_call[name].append(end - start)

    m = {f"{name}_s": t for name, t in total.items() if name != "cli.main"}
    m.update({f"{name}.self_s": t for name, t in self_total.items()})
    for name in PER_CALL:
        m[f"{name}_us"] = statistics.median(per_call[name]) * 1e6 if per_call[name] else 0.0
    for layer in LAYERS:
        m[f"layer_self_s.{layer}"] = sum(
            t for name, t in self_total.items() if name.startswith(layer + ".")
        )
    for cmd, t in main_s.items():
        m[f"cli.main_s.{cmd}"] = t
        m[f"cli.self_s.{cmd}"] = main_self[cmd]
        m[f"cli.out_bytes.{cmd}"] = out_bytes[cmd]
    m["trace.spans"] = len(spans)
    return m
