"""Closed-loop benchmark of the corktwist pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

One client, one process, one thread: each operation starts when the
previous one has been checked.  Rounds of operations (see workloads.py)
run until --seconds have passed; only whole rounds are measured, so
every run sees the same mix of input classes.  Every answer is checked
against a known answer; the last line of output is one JSON object.

Times are scaled to a calibration slice taken around every operation
(see clock.py), so that host speed drift cancels; the measured
wall-clock figures are printed beside them.

--trace 0 reports the end-to-end metrics.  --trace 1 spends the first
half of the time untraced and the second half with spans around each
module's entry points, and reports per-round layer metrics plus the
tracing overhead.  --all runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "corktwist" / "fixtures"
SETUPS = 5  # set-ups per run; setup_s is their median

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = ("cli", "fillings", "front", "hfcert", "intmat", "kirby", "mcg", "moves")


def fresh_import() -> SimpleNamespace:
    """Import the package from this checkout's src/, discarding any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "corktwist" or n.startswith("corktwist.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("corktwist")
    if Path(pkg.__file__).resolve().parent != (SRC / "corktwist").resolve():
        raise ImportError(f"corktwist imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"corktwist.{m}") for m in MODULES})


class Run:
    """One workload in one process: set-up, timed rounds, checks."""

    def __init__(self, workload: str, seed: int, work: Path, tiny: bool = False) -> None:
        self.workload, self.seed, self.work, self.tiny = workload, seed, work, tiny
        self.clock = Clock()
        # per operation: measured seconds, index of the slice just before, class
        self.samples: list[tuple[float, int, str]] = []
        self.attempted = self.failed = self.decided = 0
        self.problems: list[str] = []
        self.rounds = 0
        setups = []
        for _ in range(SETUPS):
            setups.append(self._timed(self._setup)[1:])
        self.clock.tick()
        self.setup_s = statistics.median(t * self.clock.scale(b) for t, b in setups)
        self.setup_measured_s = statistics.median(t for t, _ in setups)

    def _timed(self, fn, *args):
        """fn's result, the seconds it took, and the index of the slice before it."""
        before = self.clock.tick()
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start, before

    def _setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.mods = fresh_import()
        self.ctx = workloads.Context(self.mods, self.work, FIXTURES)
        self.next_round = self._build(0)
        self.digest = hashlib.sha256("\0".join(self.ctx.generated).encode()).hexdigest()

    def _build(self, index: int) -> list[workloads.Op]:
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        self.ctx.new_round()
        units = workloads.BUILDERS[self.workload](self.ctx, rng, tiny=self.tiny)
        return [op for unit in units for op in unit]

    def measure(self, seconds: float, tracer: Tracer | None = None) -> tuple[int, int]:
        """Run whole rounds until `seconds` pass; returns the range of samples taken."""
        first, rounds = len(self.samples), self.rounds
        deadline = time.perf_counter() + seconds
        if tracer is not None:
            tracer.install(self.mods)
        try:
            while self.rounds == rounds or time.perf_counter() < deadline:
                for op in self.next_round:
                    self._one(op, tracer)
                self.rounds += 1
                self.next_round = self._build(self.rounds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.clock.tick()  # the slice after the last operation
        return first, len(self.samples)

    def _one(self, op: workloads.Op, tracer: Tracer | None) -> None:
        if op.prepare is not None:
            op.prepare()
        outcome, *timing = self._timed(attempt, op)
        self.samples.append((*timing, op.klass))
        op.outcome = outcome
        self.attempted += 1
        problem = mismatch(op, outcome)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.klass}: {problem}")
        elif op.decided(outcome):
            self.decided += 1
        if tracer is not None and op.artifact is not None and op.artifact.exists():
            tracer.counts["hfcert.certificate_bytes"] += op.artifact.stat().st_size

    def latencies(self, span: tuple[int, int], scaled: bool = True) -> list[float]:
        return [t * self.clock.scale(b) if scaled else t
                for t, b, _ in self.samples[span[0]:span[1]]]

    def defects_failing(self) -> list[str]:
        """Labels of the ROADMAP item-4 defect inputs that still fail."""
        failing = []
        for label, op in workloads.known_defects(self.ctx):
            outcome = attempt(op)
            if mismatch(op, outcome) is not None:
                failing.append(f"{label} (got {outcome.code})")
        return failing


def attempt(op: workloads.Op) -> workloads.Outcome:
    try:
        return op.run()
    except Exception as exc:  # an uncaught exception fails the op; the run goes on
        return workloads.Outcome(type(exc).__name__)


def mismatch(op: workloads.Op, outcome: workloads.Outcome) -> str | None:
    """None if the outcome is the known answer, else what differs."""
    if isinstance(outcome.code, str):
        return f"uncaught {outcome.code}"
    return op.check(outcome)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def rank_report(run: Run, span: tuple[int, int]) -> list[str]:
    """Per-class latency medians, and which classes surround each percentile rank."""
    classes = [k for *_, k in run.samples[span[0]:span[1]]]
    latencies = run.latencies(span)
    by_class: dict[str, list[float]] = {}
    for lat, klass in zip(latencies, classes):
        by_class.setdefault(klass, []).append(lat)
    lines = [f"  class {k}: {len(v)} ops, median {statistics.median(v) * 1000:.2f} ms"
             for k, v in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1]))]
    ranked = [k for _, k in sorted(zip(latencies, classes))]
    n = len(ranked)
    for q in (0.5, 0.9):
        at = max(0, math.ceil(q * n) - 1)
        window = ranked[max(0, at - n // 20): at + n // 20 + 1]
        share = window.count(ranked[at]) / len(window)
        lines.append(f"  p{round(q * 100)} rank {at + 1} of {n}: class {ranked[at]}, "
                     f"{share:.0%} of ranks within 5% of it in the same class")
    return lines


def ops_per_s(run: Run, span: tuple[int, int], scaled: bool = True) -> float:
    """Operations per second, taking each input class at its median time.

    A round's time is the sum over classes of (operations in the class) x
    (the class's median latency), which one disturbed operation cannot skew.
    """
    by_class: dict[str, list[float]] = {}
    for (*_, klass), lat in zip(run.samples[span[0]:span[1]], run.latencies(span, scaled)):
        by_class.setdefault(klass, []).append(lat)
    busy = sum(len(v) * statistics.median(v) for v in by_class.values())
    return (span[1] - span[0]) / busy


def end_to_end(run: Run, span: tuple[int, int], scaled: bool = True) -> dict:
    ranked = sorted(run.latencies(span, scaled))
    return {
        "ops_per_s": (ops_per_s(run, span, scaled), "ops/s"),
        "latency_p50_ms": (percentile(ranked, 0.5) * 1000, "ms"),
        "latency_p90_ms": (percentile(ranked, 0.9) * 1000, "ms"),
        "decided_ratio": (run.decided / run.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (run.setup_s if scaled else run.setup_measured_s, "s"),
    }


def run_workload(args) -> int:
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, work, tiny=args.tiny)
        if args.trace:
            plain = run.measure(args.seconds / 2)
            tracer, rounds = Tracer(), run.rounds
            span = run.measure(args.seconds / 2, tracer)
            rounds = run.rounds - rounds
            metrics = tracer.layer_metrics(rounds)
            traced_rate = ops_per_s(run, span)
            metrics["trace.ops_per_s"] = (traced_rate, "ops/s")
            metrics["trace.overhead"] = (ops_per_s(run, plain) / traced_rate - 1, "fraction")
            measured = {}
            if tracer.missing:
                print(f"not traced (entry point gone): {', '.join(tracer.missing)}")
        else:
            span = run.measure(args.seconds)
            metrics = end_to_end(run, span)
            measured = end_to_end(run, span, scaled=False)
        defects = run.defects_failing()
        if args.trace:
            metrics["known_defects_failing"] = (len(defects), "count")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, {run.rounds} rounds, "
          f"{run.attempted} ops, {span[1] - span[0]} latency samples")
    print(f"inputs_digest {run.digest} (round 0)")
    print(f"failed_ratio {run.failed / run.attempted} ({run.failed} of {run.attempted})")
    print("\n".join(rank_report(run, span)))
    for problem in run.problems:
        print(f"  failed: {problem}")
    print(f"known defects still failing: {len(defects)} of 5")
    for label in defects:
        print(f"  defect: {label}")
    for name, (value, unit) in metrics.items():
        extra = f" (measured {measured[name][0]})" if name in measured else ""
        print(f"{name} {value} {unit}{extra}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print(f"== {name} (exit {done.returncode})")
        print("\n".join(lines[:-1] if done.returncode == 0 else lines))
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="rounds of the smallest inputs only (for the self-tests)")
    args = parser.parse_args(argv)
    if not (SRC / "corktwist" / "__init__.py").is_file():
        print(f"error: no corktwist sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
