"""Regenerate the reference table of ROADMAP item 1.

    python3 perfbench/reference.py

Prints one markdown row per case: certify on the mazur fixtures,
admissible on knotted.kirby, the unknot search on garlands with
k = 4, 5 and 6 kinks, building LHP(64), and build_concave on the chain
word c1..c2g at genus 6 and 8.  Each case runs with the per-layer spans
of tracing.py installed (for the work counts) until it has run three
times or spent ten seconds, and the median time is reported.  The k = 6
search alone takes well over a minute on the seed code.
"""

from __future__ import annotations

import io
import contextlib
import shutil
import statistics
import sys
import time
from fractions import Fraction

from run import FIXTURES, ROOT, fresh_import
from tracing import Tracer
import workloads

REPEATS, PATIENCE_S = 3, 10.0


def timed(case) -> tuple[float, int, object]:
    """Median seconds over up to REPEATS runs, the run count, the last result."""
    took: list[float] = []
    while len(took) < REPEATS and sum(took) < PATIENCE_S:
        start = time.perf_counter()
        result = case()
        took.append(time.perf_counter() - start)
    return statistics.median(took), len(took), result


def seconds(s: float) -> str:
    return f"{s * 1000:.0f} ms" if s < 1 else f"{s:.2f} s"


def main() -> int:
    mods = fresh_import()
    fx = lambda name: str(FIXTURES / name)
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.install(mods)

    def cli(argv):
        def call():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return mods.cli.main(argv)
        return call

    def delta(counter: str, case):
        """Run `case` timed; also return how much `counter` grew per run."""
        before = tracer.counts[counter]
        median, runs, result = timed(case)
        return median, runs, result, (tracer.counts[counter] - before) // runs

    rows = []
    try:
        median, runs, code = timed(cli(["certify", fx("mazur.kirby"), fx("mazur_inflated.palf"),
                                        fx("trefoil_inflation.spec"),
                                        "--out", str(work / "cert.json")]))
        rows.append(("`certify` on the mazur fixtures (end to end, in process)",
                     f"{seconds(median)} (exit {code})", runs))
        median, runs, code, expanded = delta(
            "moves.states_expanded", cli(["admissible", fx("knotted.kirby")]))
        rows.append(("`admissible knotted.kirby` (search runs out, exit 3)",
                     f"{seconds(median)} (exit {code}, {expanded} states expanded)", runs))
        for k in (4, 5, 6):
            diagram = mods.front.parse_front(
                workloads.garland_front(k, Fraction(1, 2), 5, "+", 0, 0))
            median, runs, report, expanded = delta(
                "moves.states_expanded",
                lambda: mods.moves.unknot_certificate(diagram, "G"))
            rows.append((f"unknot search, garland k = {k}",
                         f"{seconds(median)} ({report['verdict']}, {expanded} states expanded, "
                         f"{len(report['moves'] or [])} moves)", runs))
        text = workloads.lhp_front(64, False, 0, 0)
        median, runs, d, pairs = delta("front.segment_pairs_tested",
                                       lambda: mods.front.parse_front(text))
        segments = sum(len(a.points) - 1 for a in d.arcs)
        rows.append((f"LHP(64) build ({segments} segments, {len(d.crossings())} crossings)",
                     f"{seconds(median)}, {pairs:,} exact segment-pair tests", runs))
        for g in (6, 8):
            palf = mods.fillings.parse_palf(workloads.chain_palf(g, list(range(1, 2 * g + 1))))
            book = mods.fillings.palf_to_openbook(palf)
            median, runs, _, letters = delta("mcg.letters_applied",
                                             lambda: mods.fillings.build_concave(book))
            rows.append((f"`build_concave`, chain word of genus {g}",
                         f"{seconds(median)} ({letters:,} twist letters applied)", runs))
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("| workload | now | runs |")
    print("|---|---|---|")
    for case, now, runs in rows:
        print(f"| {case} | {now} | {runs} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
