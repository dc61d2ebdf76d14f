"""The benchmark's workloads: seeded inputs, operations and known answers.

Every input is generated here from the seed; nothing is taken from the
package's own constructors or from its test suite, so the work being
measured never leaks into set-up.  Every expected answer is written out
here too, from the fixture comments or from a closed formula for the
generated family, never by asking the code under test.

A workload is a sequence of rounds.  A round holds a fixed number of
operations in each input class; the seed (and the round number) picks
the geometry, the twist letters and the order.  The class counts are
chosen so that, sorted by latency, the median and the 90th percentile
fall well inside one class each, and so that the total work of a round
does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("fixtures_cli", "unknot_search", "large_fronts", "high_genus")


@dataclass
class Outcome:
    code: int | str  # exit code, or the name of an uncaught exception
    out: str = ""
    value: object = None  # what an in-process call returned


@dataclass
class Op:
    """One timed operation and its known answer."""

    klass: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]  # None if correct, else the mismatch
    decided: Callable[[Outcome], bool] = lambda o: True
    prepare: Callable[[], None] | None = None  # untimed, runs just before
    artifact: Path | None = None  # a certificate file the op writes
    outcome: Outcome | None = None  # set by the runner after each run


class Context:
    """What every builder needs: the imported package and somewhere to write."""

    def __init__(self, mods, work: Path, fixtures: Path) -> None:
        self.mods = mods
        self.work = work
        self.fixtures = fixtures
        self._files = 0
        self.generated: list[str] = []  # every generated input, in order

    def new_round(self) -> None:
        """Later rounds reuse the file names, so the work directory stays small."""
        self._files = 0
        self.generated.clear()

    def fixture(self, name: str) -> str:
        return str(self.fixtures / name)

    def write(self, stem: str, text: str) -> str:
        self.generated.append(text)
        path = self.path(stem)
        Path(path).write_text(text)
        return path

    def path(self, stem: str) -> str:
        self._files += 1
        return str(self.work / f"{self._files:05d}-{stem}")

    def cli(self, argv: list[str]) -> Callable[[], Outcome]:
        mods = self.mods

        def run() -> Outcome:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods.cli.main(argv)
            return Outcome(code, out.getvalue())

        return run


# -- checks -------------------------------------------------------------------


def expect(code: int, *lines: str, absent: tuple[str, ...] = ()):
    """Exit code `code`, each of `lines` printed as a whole line, none of `absent`."""

    def check(o: Outcome) -> str | None:
        if o.code != code:
            return f"exit {o.code}, expected {code}"
        printed = set(o.out.splitlines())
        for line in lines:
            if line not in printed:
                return f"missing line {line!r}"
        for line in absent:
            if line in printed:
                return f"unexpected line {line!r}"
        return None

    return check


def expect_rejected(o: Outcome) -> str | None:
    """Untrusted input: exit 2, or exit 1 with an `invalid:` line; never a traceback."""
    if o.code == 2:
        return None
    if o.code == 1 and any(l.startswith("invalid:") for l in o.out.splitlines()):
        return None
    return f"exit {o.code}, expected 2 or 1 with an invalid: line"


def undecided_on_exit_3(o: Outcome) -> bool:
    return o.code != 3


def _doc(o: Outcome) -> dict | None:
    try:
        doc = json.loads(o.out)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def cert_file_check(path: str, then):
    """`then`, plus: the written certificate parses and ends in DISTINCT."""

    def check(o: Outcome) -> str | None:
        problem = then(o)
        if problem:
            return problem
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return f"certificate file unreadable: {exc}"
        if doc.get("verdict") != "DISTINCT":
            return f"certificate verdict {doc.get('verdict')!r}"
        return None

    return check


def tamper(src: str, dst: str, rng: random.Random) -> Callable[[], None]:
    """Copy a certificate, changing one integer inside a side condition."""

    def prepare() -> None:
        try:
            doc = json.loads(Path(src).read_text())
            sites = [
                (i, j) for i, step in enumerate(doc["steps"])
                for j, cond in enumerate(step["side_conditions"])
                if re.search(r"\d", cond["expr"])
            ]
            i, j = sites[rng.randrange(len(sites))]
            cond = doc["steps"][i]["side_conditions"][j]
            cond["expr"] = re.sub(r"\d+", lambda m: str(int(m.group()) + 1),
                                  cond["expr"], count=1)
            text = json.dumps(doc, sort_keys=True, indent=2)
        except (OSError, ValueError, KeyError, TypeError):
            text = "{}"  # nothing to tamper with; validating it must still fail
        Path(dst).write_text(text)

    return prepare


# -- generated geometry -------------------------------------------------------


def _pt(x: Fraction, y: Fraction) -> str:
    return f"({x},{y})"


def garland_front(k: int, depth: Fraction, spacing: int, orient: str,
                  dx: int, dy: int) -> str:
    """A closed strand carrying k teardrop kinks: an unknot with k crossings.

    Kink i dips below the strand between x = a_i and a_i + 4; its two
    diagonals cross once.  The closing arc returns above everything.
    """
    pts = [(0, 0)]
    a = 1
    for _ in range(k):
        pts += [(a, 1), (a + 3, -2 - depth), (a + 1, -3 - depth), (a + 4, 1)]
        a += spacing
    right = a - spacing + 5
    pts.append((right, 0))
    back = [(right, 0), (right + 1, 5), (-1, 5), (0, 0)]
    shift = lambda ps: " ".join(_pt(Fraction(x) + dx, Fraction(y) + dy) for x, y in ps)
    return f"arc G : {shift(pts)}\narc G : {shift(back)}\norient G {orient}\n"


def bigon_front(width: int, height: Fraction, orient: str, dx: int, dy: int) -> str:
    """Two strands clasped twice: an unknot whose two crossings bound a bigon."""
    w, h = width, height
    top = [(0, 0), (w, h), (2 * w, -h), (3 * w, h), (4 * w, 0)]
    bottom = [(4 * w, 0), (3 * w, -h), (2 * w, h), (w, -h), (0, 0)]
    shift = lambda ps: " ".join(_pt(Fraction(x) + dx, Fraction(y) + dy) for x, y in ps)
    return f"arc B : {shift(top)}\narc B : {shift(bottom)}\norient B {orient}\n"


def trefoil_front(sx: int, sy: int, orient: str, dx: int, dy: int) -> str:
    """The right-handed trefoil front, stretched by (sx, sy) and translated."""
    arcs = [
        [(0, 1), (3, -1), (5, 1), (7, -1), (10, -1)],
        [(10, -1), (5, -3), (0, -1)],
        [(0, -1), (3, 1), (5, -1), (7, 1), (10, 1)],
        [(10, 1), (5, 3), (0, 1)],
    ]
    lines = [
        "arc T : " + " ".join(_pt(Fraction(sx * x + dx), Fraction(sy * y + dy))
                              for x, y in arc)
        for arc in arcs
    ]
    return "\n".join(lines) + f"\norient T {orient}\n"


def lhp_front(n: int, flip: bool, dx: int, dy: int) -> str:
    """LHP(n): a lens K1 and a curve K2 that threads it n times (n >= 2).

    K2 passes horizontally through the lens at descending heights; between
    passes it wraps below the lens, each wrap nested inside the previous
    one.  The closing return dives right of the passes, runs under every
    wrap, and climbs back outside them, picking up n - 1 self-crossings.
    Linking number n (sign set by the orientation), 4n + 5 segments,
    3n - 1 crossings, 2n cusps on K2.
    """
    big = Fraction(2 * n + 2)
    heights = [Fraction(-4 * i - 3, 2) for i in range(n)]
    k2: list[tuple[Fraction, Fraction]] = []
    for i in range(n - 1):
        width = Fraction(8 + 2 * (n - 2 - i))
        depth = -big - 2 - 2 * (n - 2 - i)
        k2 += [(Fraction(-6), heights[i]), (Fraction(6), heights[i]),
               (width, depth), (-width, depth)]
    deep = Fraction(-4 * n - 2)
    k2 += [(Fraction(-6), heights[n - 1]), (Fraction(6), heights[n - 1]),
           (Fraction(7), deep), (Fraction(-2 * n - 7), deep),
           (Fraction(-2 * n - 6), heights[0]), (Fraction(-6), heights[0])]
    lens_left = [(Fraction(0), -big), (Fraction(-3), Fraction(0)), (Fraction(0), big)]
    lens_right = [(Fraction(0), big), (Fraction(3), Fraction(0)), (Fraction(0), -big)]
    shift = lambda ps: " ".join(_pt(x + dx, y + dy) for x, y in ps)
    return (
        f"arc K1 : {shift(lens_left)}\n"
        f"arc K1 : {shift(lens_right)}\n"
        f"arc K2 : {shift(k2)}\n"
        "orient K1 +\n"
        f"orient K2 {'-' if flip else '+'}\n"
    )


def chain_palf(genus: int, letters: list[int]) -> str:
    """A positive word in the chain curves c1..c2g of a genus-g page."""
    word = " ".join(f"T(c{i})" for i in letters)
    return f"# generated chain word\ngenus {genus}\nword {word}\n"


def plan_counts(genus: int, length: int) -> tuple[int, int]:
    """(trivializing letters, plan Euler characteristic) for a chain word.

    Each letter is cancelled by the rest of a conjugated chain relator,
    2g(4g+2) - 1 letters; the plan is a 0-handle, one 2-handle per
    trivializing letter, and a closed genus-g fiber times a disk.
    """
    triv = length * (2 * genus * (4 * genus + 2) - 1)
    return triv, 1 + triv + 2 - 2 * genus


# -- fixtures_cli -------------------------------------------------------------


def _malformed(ctx: Context, rng: random.Random) -> list[Op]:
    """Inputs every parser must reject with exit 2 (all do at the seed)."""
    name = rng.choice("LMNZ")
    cases = [
        ("tb", ctx.write("short.front", f"arc {name} : (0,0)\n")),
        ("tb", ctx.write("stray.front", f"arc {name} : (0,0) (2,1) (4,0)\nbogus {name}\n")),
        ("tb", str(ctx.work / f"missing-{rng.randrange(10**6)}.front")),
        ("fill", ctx.write("neg.palf", f"genus 2\nword T(c1) T'(c{rng.randint(1, 4)})\n")),
        ("fill", ctx.write("nogenus.palf", "word T(c1)\n")),
        ("fill", ctx.write("imprim.palf", "genus 2\ncurve e = [2, 0, 2, 0]\nword T(e)\n")),
        ("homology", ctx.fixture("mazur.palf")),
        ("admissible", ctx.fixture("trefoil.front")),
    ]
    argvs = [[cmd, path] for cmd, path in cases] + [
        ["tb", ctx.fixture("trefoil.front"), "--component", name],
        ["tb", ctx.fixture("lens.front"), "--format", "xml"],
        ["mcg", "verify-chain", str(-rng.randrange(3))],
        ["certify", ctx.fixture("mazur.kirby")],
    ]
    return [Op("malformed", ctx.cli(a), expect(2)) for a in rng.sample(argvs, 5)]


def _certify_unit(ctx: Context, rng: random.Random) -> list[Op]:
    """certify to a file, validate it, and validate a copy with one integer changed."""
    out = ctx.path("cert.json")
    bad = ctx.path("tampered.json")
    argv = ["certify", ctx.fixture("mazur.kirby"), ctx.fixture("mazur_inflated.palf"),
            ctx.fixture("trefoil_inflation.spec"), "--out", out,
            "--seed", str(rng.randrange(1000))]
    return [
        Op("certify", ctx.cli(argv),
           cert_file_check(out, expect(0, "verdict: DISTINCT")), artifact=Path(out)),
        Op("validate", ctx.cli(["certify", "--validate", out]),
           expect(0, "certificate valid: verdict DISTINCT, 10 steps re-checked")),
        Op("validate tampered", ctx.cli(["certify", "--validate", bad]),
           lambda o: None if o.code == 1 and "invalid:" in o.out
           else f"tampered certificate: exit {o.code}",
           prepare=tamper(out, bad, rng)),
    ]


def _certify_doc(ctx: Context, rng: random.Random) -> Op:
    argv = ["certify", ctx.fixture("mazur.kirby"), ctx.fixture("mazur_inflated.palf"),
            ctx.fixture("trefoil_inflation.spec"), "--format", "doc",
            "--seed", str(rng.randrange(1000))]

    def check(o: Outcome) -> str | None:
        doc = _doc(o)
        if o.code != 0 or doc is None:
            return f"exit {o.code} or unparsable doc"
        if doc.get("certificate", {}).get("verdict") != "DISTINCT":
            return "certificate verdict is not DISTINCT"
        return None

    return Op("certify", ctx.cli(argv), check)


def _twice_twisted(ctx: Context) -> list[Op]:
    """twist mazur, then twist the result: the dot and the framing come back."""
    mazur = ctx.fixture("mazur.kirby")
    once = ctx.path("twisted.kirby")
    original = [_arc_points(l) for l in Path(mazur).read_text().splitlines()
                if l.startswith("arc ")]
    first = Op("twist mazur.kirby", ctx.cli(["twist", mazur]),
               expect(0, "dot K2", "frame K1 0", absent=("dot K1",)))

    def check(o: Outcome) -> str | None:
        problem = expect(0, "dot K1", "frame K2 0", "involution K1 K2 : rot180 6 0")(o)
        if problem:
            return problem
        arcs = [_arc_points(l) for l in o.out.splitlines() if l.startswith("arc ")]
        return None if arcs == original else "arcs differ from the original diagram"

    def keep_first() -> None:
        Path(once).write_text(first.outcome.out if first.outcome else "")

    return [first, Op("twist twice-twisted", ctx.cli(["twist", once]), check,
                      prepare=keep_first)]


def _arc_points(line: str) -> tuple:
    comp, _, pts = line[len("arc "):].partition(":")
    return comp.strip(), tuple(
        tuple(Fraction(v) for v in tok.strip("()").split(",")) for tok in pts.split()
    )


def fixtures_cli(ctx: Context, rng: random.Random, tiny: bool = False) -> list[list[Op]]:
    """Every subcommand on every applicable shipped fixture, in process."""
    fx = ctx.fixture
    seed_arg = lambda: ["--seed", str(rng.randrange(1000))]

    def admissible(path, code, verdict):
        argv = ["admissible", fx(path)] + seed_arg()
        if rng.random() < 0.5:
            check = expect(code, f"verdict: {verdict}")
        else:
            argv += ["--format", "doc"]

            def check(o):
                d = _doc(o)
                got = d and d.get("report", {}).get("verdict")
                return None if o.code == code and got == verdict else f"exit {o.code}, {got!r}"
        return Op(f"admissible {path}", ctx.cli(argv), check, decided=undecided_on_exit_3)

    def homology(path):
        # every fixture: one dotted circle, one 0-framed circle, linking number
        # +-1, so H1 of the boundary vanishes and the domain is contractible
        argv = ["homology", fx(path)]
        if rng.random() < 0.5:
            check = expect(0, "H_1(boundary) = 0", "contractible: True",
                           "homology sphere boundary: True")
        else:
            argv += ["--format", "doc"]

            def check(o):
                d = _doc(o)
                ok = d and d.get("is_contractible") is True and d.get("is_homology_sphere") is True
                return None if o.code == 0 and ok else f"exit {o.code}, doc {ok!r}"
        return Op(f"homology {path}", ctx.cli(argv), check)

    def tb(path, value, comp="K"):
        argv = ["tb", fx(path)] + (["--component", comp] if rng.random() < 0.5 else [])
        return Op(f"tb {path}", ctx.cli(argv), expect(0, f"tb = {value}"))

    def fill(path, letters):
        triv, euler = plan_counts(2, letters)
        return Op(f"fill {path}", ctx.cli(["fill", fx(path)]), expect(
            0, f"trivializing handles {triv} in {letters} relator blocks",
            f"plan euler characteristic {euler}"))

    twist = lambda path, dot: Op(f"twist {path}", ctx.cli(["twist", fx(path)]),
                                 expect(0, f"dot {dot}"))
    genus = rng.randint(1, 3)
    mcg = Op("mcg", ctx.cli(["mcg", "verify-chain", str(genus)]), expect(
        0, f"genus {genus}: the {4 * genus + 2}-th power of the chain twist word "
        "acts trivially on H1"))

    if tiny:
        units = [[tb("lens.front", -1, "U")], [admissible("mazur.kirby", 0, "admissible")],
                 [mcg], _certify_unit(ctx, rng), _twice_twisted(ctx),
                 _malformed(ctx, rng)[:1]]
    else:
        units = [[op] for op in _malformed(ctx, rng)] + [
            # 2-10 ms: with the malformed inputs and the four validations,
            # the lowest 35% of a round (21 of 60 operations)
            [tb("lens.front", -1, "U")], [tb("trefoil.front", 1)],
            [tb("trefoil_handle.front", 2)], [mcg],
            [admissible("hopf.kirby", 1, "not admissible")],
            [homology("hopf.kirby")], [twist("hopf.kirby", "K2")],
            [fill("mazur.palf", 4)], [fill("mazur_inflated.palf", 5)],
            [homology("mazur.kirby")], _twice_twisted(ctx),
            # admissible mazur, ~13 ms: the 35-65% band, where the median falls
            *[[admissible("mazur.kirby", 0, "admissible")] for _ in range(18)],
            # the other subcommands on knotted.kirby, ~15-20 ms: 65-85%
            *[[homology("knotted.kirby")] for _ in range(8)],
            *[[twist("knotted.kirby", "K2")] for _ in range(4)],
            # certify, ~40 ms: the 85-95% band, where the 90th percentile falls
            _certify_unit(ctx, rng), _certify_unit(ctx, rng),
            *[[_certify_doc(ctx, rng)] for _ in range(4)],
            # the exhausted unknot search on knotted.kirby, ~200 ms: the top 5%
            *[[admissible("knotted.kirby", 3, "inconclusive")] for _ in range(3)],
        ]
    rng.shuffle(units)
    return units


def known_defects(ctx: Context) -> list[tuple[str, Op]]:
    """The five input-handling defects listed in ROADMAP item 4, with correct answers.

    They run once per benchmark run, outside the timed rounds, so the
    timed workloads stay free of failing operations while the count of
    defects still open is reported on every run.
    """
    deep = "(" * 1000 + "1" + ")" * 1000
    nested = {
        "steps": [{"rule": "cork_admissible", "quote": "", "inputs": [],
                   "outputs": [], "side_conditions": [{"expr": f"{deep} == 1",
                                                       "value": True}]}],
        "verdict": "DISTINCT", "assumptions": [],
    }
    fx = ctx.fixture
    cases = [
        ("malformed JSON .kirby", ["admissible", ctx.write("broken.kirby", '{"front": [1,\n')],
         expect(2)),
        ("JSON .kirby without front", ["homology", ctx.write("nofront.kirby", '{"dots": ["K1"]}\n')],
         expect(2)),
        ("validate {\"steps\":[1]}", ["certify", "--validate",
                                       ctx.write("steps.json", '{"steps": [1]}\n')],
         expect_rejected),
        ("validate deeply nested condition", ["certify", "--validate",
                                              ctx.write("nested.json", json.dumps(nested))],
         expect_rejected),
        ("certify --budget 0", ["certify", fx("mazur.kirby"), fx("mazur_inflated.palf"),
                                fx("trefoil_inflation.spec"), "--budget", "0"],
         expect(3)),
    ]
    return [(label, Op("defect", ctx.cli(argv), check)) for label, argv, check in cases]


# -- unknot_search ------------------------------------------------------------

DEPTHS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
          Fraction(1, 5), Fraction(3, 4), Fraction(1), Fraction(5, 4)]


def _search_op(ctx: Context, klass: str, text: str, comp: str, crossings: int,
               budget: int, unknot: bool) -> Op:
    mods = ctx.mods
    ctx.generated.append(text)

    def run() -> Outcome:
        d = mods.front.parse_front(text)
        return Outcome(0, value=mods.moves.unknot_certificate(d, comp, budget=budget))

    def check(o: Outcome) -> str | None:
        r = o.value
        if r["self_crossings"] != crossings:
            return f"{r['self_crossings']} self-crossings, expected {crossings}"
        if r["budget"] != budget or r["expanded"] > budget:
            return f"expanded {r['expanded']} states on a budget of {budget}"
        allowed = ("unknot", "inconclusive") if unknot else ("inconclusive",)
        if r["verdict"] not in allowed:
            return f"verdict {r['verdict']!r}, allowed {allowed}"
        if r["verdict"] == "unknot" and not r["moves"]:
            return "unknot verdict without a move sequence"
        return None

    return Op(klass, run, check, decided=lambda o: o.value["verdict"] == "unknot")


def unknot_search(ctx: Context, rng: random.Random, tiny: bool = False) -> list[list[Op]]:
    """Front parsing and the unknot move search on garlands, bigons and trefoils."""
    orient = lambda: rng.choice("+-")
    shift = lambda: rng.randrange(-40, 41)

    def garland(k, budget=2000):
        text = garland_front(k, rng.choice(DEPTHS), rng.choice((5, 6)), orient(),
                             shift(), shift())
        klass = f"garland-k{k}" + ("" if budget == 2000 else f"-budget{budget}")
        return _search_op(ctx, klass, text, "G", k, budget, unknot=True)

    def bigon():
        text = bigon_front(rng.choice((3, 4, 5)), rng.choice((Fraction(2), Fraction(3), Fraction(5, 2))),
                           orient(), shift(), shift())
        return _search_op(ctx, "bigon", text, "B", 2, 2000, unknot=True)

    def trefoil():
        text = trefoil_front(rng.choice((1, 2)), rng.choice((1, 2)), orient(), shift(), shift())
        return _search_op(ctx, "trefoil", text, "T", 3, 2000, unknot=False)

    if tiny:
        ops = [garland(1), bigon(), trefoil(), garland(2, budget=1)]
    else:
        ops = (
            # one kink (~5 ms): the lowest 60%, so the median falls inside it
            [garland(1) for _ in range(24)]
            # ~60-100 ms: 60-85%; the trefoil searches end with the queue empty
            + [bigon() for _ in range(3)]
            + [garland(2) for _ in range(4)]
            + [trefoil() for _ in range(3)]
            # three kinks (~370 ms): 85-95%, where the 90th percentile falls
            + [garland(3) for _ in range(4)]
            # the top 5%: searches that stop on their budget
            + [garland(4, budget=10), garland(5, budget=1)]
        )
    rng.shuffle(ops)
    return [[op] for op in ops]


# -- large_fronts -------------------------------------------------------------


def large_fronts(ctx: Context, rng: random.Random, tiny: bool = False) -> list[list[Op]]:
    """Linked pairs LHP(n): homology and tb via the CLI, stabilization in process."""
    mods = ctx.mods

    def text(n):
        return lhp_front(n, rng.random() < 0.5, rng.randrange(-60, 61), rng.randrange(-60, 61))

    def homology(n):
        t = text(n)
        path = ctx.write(f"lhp{n}.kirby", t + "dot K1\nframe K2 0\n")

        def check(o):
            d = _doc(o)
            if o.code != 0 or d is None:
                return f"exit {o.code}"
            link = d.get("linking_matrix")
            h1 = d.get("h_of_boundary", [None, {}])[1]
            if not link or abs(link[0][1]) != n or abs(link[1][0]) != n:
                return f"linking matrix {link}, expected linking number {n}"
            if h1.get("rank") != 0 or sorted(h1.get("torsion", [])) != [n, n]:
                return f"H1(boundary) {h1.get('pretty')}, expected Z/{n} + Z/{n}"
            return None
        return Op(f"lhp{n}", ctx.cli(["homology", path, "--format", "doc"]), check)

    def tb(n):
        t = text(n)
        path = ctx.write(f"lhp{n}.front", t)
        return Op(f"lhp{n}", ctx.cli(["tb", path, "--component", "K2"]), expect(
            0, f"writhe {-(n - 1)}, cusps {2 * n}", f"tb = {-(2 * n - 1)}"))

    def stabilize(n):
        t = text(n)
        ctx.generated.append(t)
        sign = rng.choice((1, -1))

        def run():
            d = mods.front.parse_front(t)
            return Outcome(0, value=mods.front.stabilize(d, "K2", sign))

        def check(o):
            s = o.value
            got = (s.tb("K2"), len(s.crossings()), s.cusp_count("K2"))
            want = (-2 * n, 3 * n - 1, 2 * n + 2)
            return None if got == want else f"(tb, crossings, cusps) {got}, expected {want}"
        return Op(f"lhp{n} stabilize", run, check)

    kinds = (homology, tb)
    if tiny:
        ops = [homology(2), tb(3), stabilize(2)]
    else:
        # The sizes above n = 6 are fixed per band and only their assignment
        # to operations is drawn, so the work in a round does not depend on
        # the seed.  Build time grows with the square of n.
        ops = (
            # n <= 6 (~5-15 ms): the lowest 40%
            [rng.choice(kinds)(rng.randint(2, 6)) for _ in range(12)]
            + [stabilize(rng.randint(2, 3)) for _ in range(4)]
            # LHP(12) (~50 ms): 40-60%, where the median falls
            + [rng.choice(kinds)(12) for _ in range(8)]
            # n = 18-22 (~100-170 ms): 60-85%
            + [rng.choice(kinds)(n) for n in (18, 18, 19, 19, 20, 20, 21, 22)]
            + [stabilize(12), stabilize(12)]
            # LHP(32) (~300 ms): 85-95%, where the 90th percentile falls
            + [rng.choice(kinds)(32) for _ in range(4)]
            # the top 5%: LHP(64) and a stabilization that rebuilds LHP(28)
            + [homology(64), stabilize(28)]
        )
    rng.shuffle(ops)
    return [[op] for op in ops]


# -- high_genus ---------------------------------------------------------------


def high_genus(ctx: Context, rng: random.Random, tiny: bool = False) -> list[list[Op]]:
    """Concave plans and certificates for chain words of genus 2 to 8."""
    fx = ctx.fixture

    def palf(genus, length):
        t = chain_palf(genus, [rng.randint(1, 2 * genus) for _ in range(length)])
        return ctx.write(f"g{genus}.palf", t)

    def fill(genus, length):
        path = palf(genus, length)
        triv, euler = plan_counts(genus, length)
        return [Op(f"fill-g{genus}", ctx.cli(["fill", path]), expect(
            0, f"fiber genus {genus} (stabilized 0 times from genus {genus})",
            f"trivializing handles {triv} in {length} relator blocks",
            f"plan euler characteristic {euler}"))]

    def certify(genus, length):
        path = palf(genus, length)
        out = ctx.path(f"g{genus}.cert.json")
        argv = ["certify", fx("mazur.kirby"), path, fx("trefoil_inflation.spec"), "--out", out]
        return [
            Op(f"certify-g{genus}", ctx.cli(argv),
               cert_file_check(out, expect(0, "verdict: DISTINCT")),
               artifact=Path(out)),
            Op("validate", ctx.cli(["certify", "--validate", out]),
               expect(0, "certificate valid: verdict DISTINCT, 10 steps re-checked")),
        ]

    def mcg(genus):
        return [Op("mcg", ctx.cli(["mcg", "verify-chain", str(genus)]), expect(
            0, f"genus {genus}: the {4 * genus + 2}-th power of the chain twist word "
            "acts trivially on H1"))]

    if tiny:
        units = [fill(2, 1), certify(2, 1), mcg(2)]
    else:
        units = (
            # mcg checks and the eleven certificate validations (~3 ms): lowest 40%
            [mcg(g) for g in (2, 3, 4, 5, 6)]
            # fill at genus 4, one letter (~10 ms): 40-60%, where the median falls
            + [fill(4, 1) for _ in range(8)]
            # certify at genus 2-4, fill at genus 5-7 (~20-60 ms): 60-85%
            + [certify(g, 1) for g in (2, 2, 3, 3, 4, 4)]
            + [fill(g, 1) for g in (5, 5, 6, 7)]
            # certify at genus 6 (~110 ms): 85-95%, the 90th percentile
            + [certify(6, 1) for _ in range(4)]
            # genus 8, two letters: the top 5%
            + [certify(8, 2), fill(8, 2)]
        )
    rng.shuffle(units)
    return units


BUILDERS = {
    "fixtures_cli": fixtures_cli,
    "unknot_search": unknot_search,
    "large_fronts": large_fronts,
    "high_genus": high_genus,
}
