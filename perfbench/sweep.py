"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/sweep.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                               [--seconds S] [--out FILE]

Runs the benchmark once per seed and workload, one process at a time,
and prints for every end-to-end metric its median, its quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
interquartile distance as a share of the median.  A spread at or above
a third of the metric's bound is flagged; setup_s is reported but not
flagged.  --out writes the figures as JSON, which is how the baseline
in this directory was recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n{done.stdout}")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict[str, dict] = {}
    flagged = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [one_run(workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        report[workload] = {}
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {sum(r['attempted'] for r in runs)} ops")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = "" if name == "setup_s" or spread < bound / 3 else "  <-- over bound/3"
            flagged += bool(mark)
            report[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "values": values}
            print(f"  {name:16s} median {median:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}"
                  f"  spread {spread:7.2%} (bound {bound:.0%}){mark}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
