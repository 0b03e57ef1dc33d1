"""chanfactor benchmark: seeded CLI workloads timed end to end, or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload many-inputs --seed 1 --seconds 50 --trace 0

``--trace 0`` times each CLI command of the workload as a fresh
``python -m chanfactor.cli`` subprocess, in a closed loop from one client
(each command starts when the previous one has exited), for ``--seconds``
seconds, and checks every output against the oracles in ``oracles.py``.
``--trace 1`` runs the same commands in process instead, alternating
untraced and traced passes, and reports per-layer times from spans kept in
memory (see ``spans.py``); those of the last traced pass are written to
the work directory at the end. The channel workloads are also traced once
at half size.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs and
outputs live in ``bench/_work/``. Exit code 2 means the checkout has no
chanfactor sources or set-up failed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
# Every process the benchmark starts, itself included, computes on one
# thread: BLAS and OpenMP pools are pinned before numpy is imported.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# A run makes at least this many passes, however short --seconds is, so
# that every median has samples to work with.
MIN_PASSES = 3
# --help samples taken before the first pass; one more precedes each pass.
SETUP_SAMPLES = 3

E2E_METRICS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MiB"}
COMMANDS = ("factorize", "qfactorize", "heatmap", "casestudy",
            "phase-scan-grid", "phase-scan-signs", "merge-demo")
FUNCTIONS = (
    "channel.from_json", "channel.causal_partition", "channel.factorization_from_partition",
    "channel.pushforward", "channel.shannon_entropy",
    "qfactor.g0_construct", "qfactor.verify_qfactorization", "qfactor.fidelity_bound_check",
    "qfactor.average_state", "qfactor.von_neumann_entropy", "qfactor.qfactorization_to_json",
    "phase.optimal_phases", "phase.grid_scan", "phase.sign_pattern_deltas",
    "phase.entropy_from_delta",
    "casestudy.build_sic_family", "casestudy.entropy_purity_curve",
    "linalg.purity",
    "cli.advantage_grid",
)
COUNTS = ("channel.inputs", "channel.outputs", "channel.classes", "qfactor.fidelity_pairs",
          "phase.grid_points", "phase.sign_patterns", "casestudy.points",
          "cli.advantage_grid.cells")
# Functions whose time at full and half size gives a scaling exponent.
SCALED = ("channel.causal_partition", "qfactor.fidelity_bound_check", "cli.main")
LAYER_METRICS = {
    **{f"{f}_s": "s" for f in FUNCTIONS},
    "qfactor.g0_construct.self_s": "s",
    **{f"{f}_us": "us" for f in spans.PER_CALL},
    **{c: "count" for c in COUNTS},
    **{f"layer_self_s.{layer}": "s" for layer in spans.LAYERS},
    "cli.import_s": "s",
    **{f"cli.main_s.{c}": "s" for c in COMMANDS},
    **{f"cli.self_s.{c}": "s" for c in COMMANDS},
    **{f"cli.out_bytes.{c}": "bytes" for c in COMMANDS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
    **{f"half.{f}_s": "s" for f in SCALED},
    **{f"slope.{f}": "exponent" for f in SCALED},
}


class SetupError(RuntimeError):
    """chanfactor could not be started: --help or its import failed."""


def machine_block() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "thread_pins": THREAD_PINS,
    }


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list, out_path: Path, env: dict) -> tuple:
    """Run ``python <args>`` to completion with stdout in ``out_path``.

    Returns (wall seconds, exit code, max RSS in MiB) of that one child.
    """
    argv = [sys.executable, *args]
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


class Verdicts:
    """Pass/fail of each invocation: exit code 0, oracle passed on the first
    output of the command, and bytes identical to that first output."""

    def __init__(self, invocations: list):
        self.checks = {inv.name: inv.check for inv in invocations}
        self.first: dict = {}
        self.attempted = 0
        self.failures: list = []

    def record(self, name: str, code: int, out: bytes) -> None:
        self.attempted += 1
        digest = hashlib.sha256(out).hexdigest()
        if name not in self.first:
            try:
                self.checks[name](out)
                problem = None
            except (AssertionError, ValueError, KeyError, TypeError, IndexError) as err:
                problem = f"oracle: {err}"
            self.first[name] = (digest, problem)
        first_digest, problem = self.first[name]
        if code != 0:
            problem = f"exit code {code}"
        elif digest != first_digest:
            problem = problem or "stdout differs from the first invocation"
        if problem:
            self.failures.append(f"{name}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def tail_note(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few for a tail percentile"
    q = math.floor(100 * (n - 10) / n)
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return f"n={n}, p{q}={value:.4f}"


def run_e2e(invocations: list, seconds: float, workdir: Path, verdicts: Verdicts) -> dict:
    env = child_env()
    help_out = workdir / "help.out"

    def setup_sample() -> float:
        wall, code, _ = spawn(["-m", "chanfactor.cli", "--help"], help_out, env)
        if code != 0:
            raise SetupError(f"chanfactor --help exited {code}: {help_out.with_suffix('.err').read_text()}")
        return wall

    setup_sample()  # compiles the bytecode cache; not a sample
    setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
    cmd = {inv.name: [] for inv in invocations}
    jobs, peak = [], 0.0
    deadline = time.perf_counter() + seconds
    while len(jobs) < MIN_PASSES or time.perf_counter() < deadline:
        setup.append(setup_sample())
        results = []
        pass_start = time.perf_counter()
        for inv in invocations:
            out_path = workdir / f"{inv.name}.out"
            results.append((inv, out_path, *spawn(["-m", "chanfactor.cli", *inv.argv], out_path, env)))
        jobs.append(time.perf_counter() - pass_start)
        for inv, out_path, wall, code, rss in results:
            cmd[inv.name].append(wall)
            peak = max(peak, rss)
            verdicts.record(inv.name, code, out_path.read_bytes())

    print(f"setup_s  {statistics.median(setup):.4f} s  ({tail_note(setup)}; python -m chanfactor.cli --help)")
    print(f"job_s    {statistics.median(jobs):.4f} s  ({tail_note(jobs)}; "
          f"passes {' '.join(f'{j:.3f}' for j in jobs)})")
    for name, samples in cmd.items():
        print(f"cmd_s.{name}  {statistics.median(samples):.4f} s  ({tail_note(samples)})")
    print(f"peak_rss_mb  {peak:.1f} MiB")
    print(f"fail_ratio  {verdicts.failed / verdicts.attempted:.4f}  ({verdicts.failed}/{verdicts.attempted})")
    return {"setup_s": statistics.median(setup), "job_s": statistics.median(jobs), "peak_rss_mb": peak}


def import_time(env: dict, workdir: Path, samples: int = 5) -> float:
    """Median in-child time of ``import chanfactor.cli`` (numpy included)."""
    code = "import time; t = time.perf_counter(); import chanfactor.cli; print(time.perf_counter() - t)"
    out_path = workdir / "import.out"
    times = []
    for _ in range(samples):
        _, status, _ = spawn(["-c", code], out_path, env)
        if status != 0:
            raise SetupError(f"import chanfactor.cli exited {status}")
        times.append(float(out_path.read_text()))
    return statistics.median(times)


def run_traced(name: str, seed: int, invocations: list, seconds: float, workdir: Path,
               verdicts: Verdicts) -> tuple:
    """Alternate untraced and traced in-process passes; returns (metrics, problems)."""
    import workloads

    sys.path.insert(0, str(SRC))
    from chanfactor import casestudy, channel, cli, phase, qfactor

    targets = spans.layer_targets(cli, channel, qfactor, phase, casestudy)

    sizes: dict = {}

    def call(tracer, inv_id: int, inv) -> float:
        out, err = io.StringIO(), io.StringIO()
        main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        if tracer is not None:
            tracer.invocation = inv_id
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(inv.argv))
            except Exception:  # a crash fails this invocation, as exit code 1 would
                traceback.print_exc(file=sys.__stderr__)
                code = 1
            wall = time.perf_counter() - start
        data = out.getvalue().encode()
        verdicts.record(inv.name, code, data)
        sizes[inv.name] = len(data)
        return wall

    def traced_pass(invs: list) -> tuple:
        tracer = spans.Tracer()
        with spans.patched(tracer, targets):
            for i, inv in enumerate(invs):
                call(tracer, i, inv)
        own = spans.self_times(tracer.spans)
        roots = {s[4]: i for i, s in enumerate(tracer.spans) if s[0] == "cli.main"}
        problems = spans.check_nesting(tracer.spans, own, roots)
        commands = {i: inv.name for i, inv in enumerate(invs)}
        m = spans.pass_metrics(tracer.spans, own, commands, dict(sizes))
        m.update(tracer.counts)
        m["cli.main_s"] = sum(m[f"cli.main_s.{inv.name}"] for inv in invs)
        return m, problems, tracer.spans

    for i, inv in enumerate(invocations):  # warm-up; checks the outputs
        call(None, i, inv)
    untraced, traced, problems = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(sum(call(None, i, inv) for i, inv in enumerate(invocations)))
        m, p, last_spans = traced_pass(invocations)
        traced.append(m)
        problems += p
    # Only the last full-size pass (and the half-size one) is written out:
    # a sweeps pass alone holds about 90,000 spans.
    kept = {"full": last_spans}

    medians = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
    metrics = {key: medians.get(key, 0.0) for key in LAYER_METRICS}
    main_total = medians["cli.main_s"]
    metrics["trace.overhead_s"] = main_total - statistics.median(untraced)
    metrics["cli.import_s"] = import_time(child_env(), workdir)

    if name in workloads.CHANNEL_SIZES:
        half_invs = [replace(inv, name=f"half.{inv.name}")
                     for inv in workloads.build(name, seed, workdir, scale=0.5)]
        verdicts.checks.update({inv.name: inv.check for inv in half_invs})
        half, p, kept["half"] = traced_pass(half_invs)
        problems += p
        full = dict(metrics, **{"cli.main_s": main_total})
        for f in SCALED:
            metrics[f"half.{f}_s"] = half[f"{f}_s"]
            metrics[f"slope.{f}"] = math.log2(full[f"{f}_s"] / half[f"{f}_s"])

    with open(workdir / "spans.csv", "w", encoding="utf-8") as fh:
        fh.write("size,name,start,end,parent,invocation\n")
        for size, pass_spans in kept.items():
            for s in pass_spans:
                fh.write(f"{size},{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]}\n")

    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
          f"spans of the last pass in {workdir / 'spans.csv'}")
    for key, unit in LAYER_METRICS.items():
        print(f"{key}  {metrics[key]:.6g} {unit}")
    shares = {k[:-len(".self_s")]: t for k, t in medians.items() if k.endswith(".self_s")}
    print(f"largest self times in the in-process cli.main ({main_total:.4f} s):")
    for f, t in sorted(shares.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {f}  {t:.4f} s  {t / main_total:.1%}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "chanfactor" / "cli.py").is_file():
        print(f"no chanfactor sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy is first imported below
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    print("machine", json.dumps(machine_block()))
    workdir = WORK / args.workload
    invocations = workloads.build(args.workload, args.seed, workdir)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{', '.join(inv.name for inv in invocations)}; closed loop, one client")
    verdicts = Verdicts(invocations)
    try:
        if args.trace:
            values, problems = run_traced(args.workload, args.seed, invocations,
                                          args.seconds, workdir, verdicts)
            units = LAYER_METRICS
        else:
            values, problems = run_e2e(invocations, args.seconds, workdir, verdicts), []
            units = E2E_METRICS
    except SetupError as err:
        print(f"set-up failed: {err}", file=sys.stderr)
        return 2
    for problem in verdicts.failures[:10] + problems[:10]:
        print(f"FAIL {problem}")
    result = {
        "correct": verdicts.failed == 0 and not problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
