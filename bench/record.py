"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/record.py --workloads many-inputs,sweeps \
        --seeds 1-10 --seconds 50 --out bench/_work/set-a.json

Each run is ``bench/run.py --trace 0`` in a fresh process, one after the
other. For each workload and metric the summary holds every run's value,
their median and their spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
Per-command medians and the pass times behind ``job_s`` are read from the
human-readable lines of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", default="50")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            values.update({
                line.split()[0]: float(line.split()[1])
                for line in lines if line.startswith("cmd_s.")
            })
            passes = next(line for line in lines if line.startswith("job_s"))
            values["job_passes"] = [float(x) for x in passes.rsplit("passes ", 1)[1].rstrip(")").split()]
            runs.append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                         "attempted": result["attempted"], **values})
            print(workload, json.dumps(runs[-1]), flush=True)
        metrics = [k for k in runs[0]
                   if k not in ("seed", "correct", "failed", "attempted", "job_passes")]
        summary[workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": {m: summarise([r[m] for r in runs]) for m in metrics},
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
