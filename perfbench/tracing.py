"""Per-layer spans and work counts, recorded from benchmark code.

A traced run replaces corktwist's public entry points with wrappers while
it runs; the package itself records no time.  Each wrapper opens a span
around the call.  A layer's self time is its span's duration minus the
time covered by the spans opened inside it, so nested layers (the CLI
calling the parser calling the front builder) are not counted twice.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    """Span self times, call counts and work counters, kept in memory."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        open_spans = self._open
        self_s, calls, counts = self.self_s, self.calls, self.counts

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                took = perf_counter() - start
                self_s[name] += took - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += took
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        """Swap owner.attr for make(owner.attr), remembering the original.

        Package modules call each other through module attributes
        (`kirby.check_admissible`, `intmat.mat_mul`), so one swap catches
        every caller.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, mods) -> None:
        """Wrap the entry points of each corktwist module in `mods`."""
        span, count = self._span, self._counter

        def searched(counts, _args, report):
            counts["moves.searches"] += 1
            counts["moves.states_expanded"] += report.get("expanded", 0)
            if report.get("found"):
                counts["moves.found"] += 1
            elif not report.get("queue_emptied"):
                counts["moves.budget_exhausted"] += 1

        def built(counts, args, _result):
            counts["front.crossings_found"] += len(args[0].crossings())

        def acted(counts, args, _result):
            counts["mcg.letters_applied"] += len(args[0])

        plan = [
            (mods.cli, "main", "cli", None),
            (mods.front.FrontDiagram, "__post_init__", "front.build", built),
            (mods.front, "stabilize", "front.stabilize", None),
            (mods.moves, "search_unknot", "moves.search", searched),
            (mods.kirby, "parse_kirby", "kirby.parse", None),
            (mods.kirby, "check_admissible", "kirby.admissible", None),
            (mods.kirby, "homology", "kirby.homology", None),
            (mods.mcg, "h1_action", "mcg.h1_action", acted),
            (mods.mcg, "trivialize", "mcg.trivialize", None),
            (mods.intmat, "mat_mul", "intmat.mat_mul", None),
            (mods.intmat, "smith_normal_form", "intmat.snf", None),
            (mods.fillings, "parse_palf", "fillings.parse", None),
            (mods.fillings, "build_concave", "fillings.build_concave", None),
            (mods.hfcert, "certify_distinct", "hfcert.certify", None),
            (mods.hfcert, "validate_certificate", "hfcert.validate", None),
        ]
        for owner, attr, name, after in plan:
            self._replace(owner, attr, lambda fn, n=name, a=after: span(n, fn, a))
        # called once per segment pair or per condition: counted, not timed
        self._replace(mods.front, "_seg_meet",
                      lambda fn: count("front.segment_pairs_tested", fn))
        self._replace(mods.hfcert, "eval_condition",
                      lambda fn: count("hfcert.conditions_evaluated", fn))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer figures, keyed by the names BENCHMARK.json lists."""
        per = 1.0 / max(rounds, 1)
        s = lambda name: (self.self_s[name] * per, "s/round")
        n = lambda value: (value * per, "count/round")
        searches = self.counts["moves.searches"]
        return {
            "moves.search_s": s("moves.search"),
            "moves.searches": n(searches),
            "moves.states_expanded": n(self.counts["moves.states_expanded"]),
            "moves.certified_ratio": (
                self.counts["moves.found"] / searches if searches else 0.0, "ratio"),
            "moves.budget_exhausted": n(self.counts["moves.budget_exhausted"]),
            "front.build_s": s("front.build"),
            "front.build_calls": n(self.calls["front.build"]),
            "front.stabilize_s": s("front.stabilize"),
            "front.crossings_found": n(self.counts["front.crossings_found"]),
            "front.segment_pairs_tested": n(self.counts["front.segment_pairs_tested"]),
            "mcg.h1_action_s": s("mcg.h1_action"),
            "mcg.h1_action_calls": n(self.calls["mcg.h1_action"]),
            "mcg.letters_applied": n(self.counts["mcg.letters_applied"]),
            "mcg.trivialize_s": s("mcg.trivialize"),
            "intmat.mat_mul_s": s("intmat.mat_mul"),
            "intmat.mat_mul_calls": n(self.calls["intmat.mat_mul"]),
            "intmat.snf_s": s("intmat.snf"),
            "fillings.build_concave_s": s("fillings.build_concave"),
            "fillings.parse_s": s("fillings.parse"),
            "kirby.parse_s": s("kirby.parse"),
            "kirby.admissible_s": s("kirby.admissible"),
            "kirby.admissible_calls": n(self.calls["kirby.admissible"]),
            "kirby.homology_s": s("kirby.homology"),
            "hfcert.certify_s": s("hfcert.certify"),
            "hfcert.validate_s": s("hfcert.validate"),
            "hfcert.conditions_evaluated": n(self.counts["hfcert.conditions_evaluated"]),
            # added by the runner from the certificate files operations write
            "hfcert.certificate_bytes": (
                self.counts["hfcert.certificate_bytes"] * per, "B/round"),
            "cli.self_s": s("cli"),
            "cli.calls": n(self.calls["cli"]),
            "cli.uncaught_exceptions": n(self.counts["cli.raised"]),
        }
