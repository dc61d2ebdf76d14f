"""Front parsing and the tb / linking arithmetic on the shipped fixtures."""

import gc
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corktwist import front, kirby
from corktwist.base import InputError
from corktwist.front import FrontGeometryError, FrontParseError, parse_front, stabilize


def test_lens_unknot_tb(load):
    d = parse_front(load("lens.front"))
    assert d.components() == ["U"]
    assert d.writhe("U") == 0
    assert d.cusp_count("U") == 2
    assert d.tb("U") == -1


def test_trefoil_tb(load):
    d = parse_front(load("trefoil.front"))
    assert d.tb("K") == 1
    assert d.writhe("K") == 3
    assert d.cusp_count("K") == 4
    assert d.knottype("K") == "right_trefoil"
    report = d.tb_report("K")
    assert [c["sign"] for c in report["crossings"]] == [1, 1, 1]
    assert len(report["cusps"]) == 4


def test_trefoil_over_handle_sheds_cusps(load):
    d = parse_front(load("trefoil_handle.front"))
    assert d.tb("K") == 2
    assert d.handle_passes("K") == 2
    assert d.cusp_count("K") == 2


def test_stabilization_drops_tb_by_one_each_time(load):
    d = parse_front(load("trefoil.front"))
    tb = d.tb("K")
    for step in range(10):
        d = stabilize(d, "K", 1 if step % 2 else -1)
        assert d.tb("K") == tb - step - 1
    assert d.tb("K") == tb - 10


def test_stabilization_is_a_zigzag(load):
    # two new cusps, the crossing picture untouched
    d = parse_front(load("lens.front"))
    before = d.tb_report("U")
    s = stabilize(d, "U", 1)
    after = s.tb_report("U")
    assert len(after["crossings"]) == len(before["crossings"])
    assert after["writhe"] == before["writhe"]
    assert after["cusp_count"] == before["cusp_count"] + 2


@pytest.mark.parametrize("name", ["trefoil.front", "trefoil_handle.front"])
def test_stabilization_against_the_orientation(load, name):
    # run backwards, the walk enters its first arc at the arc's far end
    d = parse_front(load(name).replace("orient K +", "orient K -"))
    assert d._walks["K"][0][1] is False
    for step in range(3):
        before = d.tb_report("K")
        d = stabilize(d, "K", 1 if step % 2 else -1)
        after = d.tb_report("K")
        assert after["tb"] == before["tb"] - 1
        assert after["crossings"] == before["crossings"]
        assert after["cusp_count"] == before["cusp_count"] + 2


def test_linking_number_hopf():
    text = """
arc A : (0,0) (4,4) (8,0)
arc A : (8,0) (4,-4) (0,0)
arc B : (5,1) (9,5) (13,1)
arc B : (13,1) (9,-3) (5,1)
orient A +
orient B +
"""
    d = parse_front(text)
    lk = d.linking_number("A", "B")
    assert lk == d.linking_number("B", "A")
    assert abs(lk) == 1


def test_two_component_symmetric_fixture(load):
    # the cork diagram's front: linking number one, both unknots with a kink
    from corktwist import kirby
    d = kirby.parse_kirby(load("mazur.kirby")).front
    assert abs(d.linking_number("K1", "K2")) == 1
    assert d.writhe("K1") == d.writhe("K2")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FrontParseError) as info:
        parse_front("arc K : (0,0) (1,1)\nnonsense Z\n")
    assert info.value.line == 2
    assert "line 2" in str(info.value)

    with pytest.raises(front.FrontError):
        parse_front("arc K : (0,0)\n")  # an arc needs two points

    with pytest.raises(front.FrontError):
        parse_front("orient K +\n")  # component never drawn


def test_vertical_segments_rejected():
    with pytest.raises(front.FrontError):
        parse_front("arc K : (0,0) (0,4) (2,0) (0,0)\n")


def test_rational_coordinates_exact():
    text = "arc U : (0,0) (1/3,1/7) (2,0)\narc U : (2,0) (1,-1/2) (0,0)\norient U +\n"
    d = parse_front(text)
    assert d.tb("U") == -1


def test_fixture_fronts_roundtrip_through_doc(load):
    from corktwist import kirby
    d = kirby.parse_kirby(load("mazur.kirby"))
    doc = kirby.kirby_to_doc(d)
    back = kirby.kirby_from_doc(doc)
    assert kirby.kirby_to_doc(back) == doc


KIRBY_FIXTURES = {name: kirby.parse_kirby((Path(kirby.__file__).parent / "fixtures" / name)
                                          .read_text())
                  for name in ("mazur.kirby", "hopf.kirby", "knotted.kirby")}


RENAMED = ("K1", "K2", "h1", "unknot", "right_trefoil")


def _renamed(d, new):
    """d with each component, handle id and knot type called `new[old name]`."""
    def renamed_front(f):
        return front.FrontDiagram(
            tuple(front.Arc(new[a.component], a.points, a.scale) for a in f.arcs),
            tuple(front.HandleBall(new[b.handle], b.x, b.ytop, b.ybot, b.scale) for b in f.balls),
            tuple((new[c], s) for c, s in f.orientations),
            tuple((new[c], new[k]) for c, k in f.knottypes))
    iv = d.involution
    return kirby.KirbyDiagram(
        renamed_front(d.front), tuple(new[c] for c in d.dots),
        tuple((new[c], k) for c, k in d.frames),
        iv._replace(comp1=new[iv.comp1], comp2=new[iv.comp2]),
        renamed_front(d.stein_front), new[d.stein_component])


def _read(parse, spelled):
    try:
        return kirby.kirby_to_doc(parse(spelled))
    except (front.FrontError, kirby.KirbyError):
        return None


# new names drawn with the empty one, a space, `:` and `#`, which no statement
# takes.  A name with only surrounding spaces prints to a line that reads back
# as the stripped name, so the line spelling may read another diagram: it
# must give d back exactly when the JSON spelling is accepted.
@settings(max_examples=40)
@given(st.sampled_from(sorted(KIRBY_FIXTURES)),
       st.dictionaries(st.sampled_from(RENAMED), st.text(alphabet="Kh1 :#", max_size=3),
                       min_size=1, max_size=2))
def test_both_spellings_accept_the_same_names(fixture, renames):
    new = {name: renames.get(name, name) for name in RENAMED}
    assume(len(set(new.values())) == len(new))
    d = _renamed(KIRBY_FIXTURES[fixture], new)
    doc = kirby.kirby_to_doc(d)
    from_text = _read(kirby.parse_kirby, kirby.kirby_to_text(d))
    from_doc = _read(kirby.kirby_from_doc, doc)
    assert (from_doc is not None) == (from_text == doc)
    assert from_doc in (None, doc)


LENS_A = "arc A : (0,0) (4,2) (8,0)\narc A : (8,0) (4,-2) (0,0)\n"


@pytest.mark.parametrize("text, fragment", [
    # B's left cusp sits inside A's upper-left segment
    (LENS_A + "arc B : (2,1) (6,5) (10,1)\narc B : (10,1) (6,-1) (2,1)\n",
     "touch at (2,1)"),
    (LENS_A + "arc B : (-2,-1) (6,3) (14,-1)\narc B : (14,-1) (6,-5) (-2,-1)\n",
     "overlap along a line"),
    # collinear segments (0,0)-(4,2) and (4,2)-(8,4) share only their end x
    (LENS_A + "arc B : (4,2) (8,4) (12,2)\narc B : (12,2) (8,1) (4,2)\n",
     "touch at (4,2)"),
    ("arc A : (-2,-2) (2,2) (0,4) (-2,-2)\n"
     "arc B : (-2,2) (2,-2) (0,-4) (-2,2)\n"
     "arc C : (-3,0) (3,0) (0,1) (-3,0)\n",
     "triple point at (0,0)"),
    (LENS_A + "handle h : x=2 ytop=2 ybot=0\nhandle h : x=20 ytop=1 ybot=-1\n",
     "runs through a ball of handle 'h'"),
    # x-ranges [2,4] and [4,6] share one x, where a right and a left cusp meet
    ("arc A : (0,0) (2,1) (4,0) (2,-1) (0,0)\narc B : (8,0) (6,1) (4,0) (6,-1) (8,0)\n",
     "touch at (4,0)"),
], ids=["t-touch", "overlap", "collinear-end", "triple-point", "through-ball", "shared-x"])
def test_genericity_violations_are_rejected(text, fragment):
    with pytest.raises(FrontGeometryError, match=re.escape(fragment)):
        parse_front(text)


def test_records_compare_by_fields_and_refuse_assignment():
    d, again = parse_front(LENS_A), parse_front(LENS_A)
    assert d == again and hash(d) == hash(again) and d is not again
    assert d != front.FrontDiagram(d.arcs, orientations=(("A", -1),))
    assert d != d.arcs[0] and d.arcs[0] != d.arcs[1]
    assert repr(d.arcs[0]) == "Arc(component='A', points=((0, 0), (4, 2), (8, 0)), scale=1)"
    with pytest.raises(AttributeError, match="cannot assign to field 'arcs'"):
        d.arcs = ()


# -- the integer frame against the Fraction geometry it replaced ---------------
#
# The oracles below read Fraction steps and balls; the helpers after them
# build a diagram's integer frame and hand its coordinates back as Fractions.

def _fmt_pt(p):
    return f"({p[0]},{p[1]})"


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _fraction_seg_meet(p, q, r, s):
    """Classify how segments pq and rs meet, in Fraction arithmetic.

    The classifier `front._seg_meet` replaced, kept for the oracles.  Returns one of
      ("none",), ("overlap",),
      ("touch", point),
      ("cross", t, u, point)   with 0 < t, u < 1 strictly interior.
    """
    d1 = _sub(q, p)
    d2 = _sub(s, r)
    denom = _cross2(d1, d2)
    rp = _sub(r, p)
    if denom == 0:
        if _cross2(rp, d1) != 0:
            return ("none",)
        # collinear: compare x-intervals (segments are never vertical)
        lo1, hi1 = sorted((p[0], q[0]))
        lo2, hi2 = sorted((r[0], s[0]))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return ("none",)
        if lo == hi:
            x = lo
            y = p[1] + (q[1] - p[1]) * (x - p[0]) / (q[0] - p[0])
            return ("touch", (x, y))
        return ("overlap",)
    t = _cross2(rp, d2) / denom
    u = _cross2(rp, d1) / denom
    if t < 0 or t > 1 or u < 0 or u > 1:
        return ("none",)
    point = (p[0] + t * d1[0], p[1] + t * d1[1])
    if 0 < t < 1 and 0 < u < 1:
        return ("cross", t, u, point)
    return ("touch", point)


def _slope(a, b):
    return (b[1] - a[1]) / (b[0] - a[0])


def _fraction_find_cusps(steps):
    """The Fraction cusp finder that `front._find_cusps` replaced, kept as its oracle."""
    cusps = []
    n = len(steps)
    for i in range(n):
        cur = steps[i]
        nxt = steps[(i + 1) % n]
        if nxt.after_jump:
            continue
        if (cur.end[0] > cur.start[0]) != (nxt.end[0] > nxt.start[0]):
            cusps.append(cur.end)
    return cusps


def _fraction_check_ball_contacts(comp, s, balls):
    """The Fraction ball check that `front._check_ball_contacts` replaced, kept as its oracle."""
    for ball in balls:
        t = (ball.x - s.start[0]) / (s.end[0] - s.start[0])
        if t < 0 or t > 1:
            continue
        y = s.start[1] + t * (s.end[1] - s.start[1])
        if not (ball.ybot <= y <= ball.ytop):
            continue
        if t == 0 and s.start == (ball.x, y) and ball.contains(s.start):
            continue
        if t == 1 and ball.contains(s.end):
            continue
        raise FrontGeometryError(
            f"segment of {comp!r} runs through a ball of handle {ball.handle!r}"
        )


def _all_pairs_crossings(traversals, balls):
    """The all-pairs Fraction loop that `front._find_crossings` replaced, kept as its oracle."""
    segs = []
    for comp, steps in traversals.items():
        for i, s in enumerate(steps):
            segs.append((comp, i, s))

    for comp, i, s in segs:
        _fraction_check_ball_contacts(comp, s, balls)

    crossings = []
    for a in range(len(segs)):
        comp1, i1, s1 = segs[a]
        n1 = len(traversals[comp1])
        for b in range(a + 1, len(segs)):
            comp2, i2, s2 = segs[b]
            if comp1 == comp2:
                successor = (i1 + 1) % n1 == i2 and not traversals[comp1][i2].after_jump
                predecessor = (i2 + 1) % n1 == i1 and not traversals[comp1][i1].after_jump
                if successor or predecessor:
                    continue
            result = _fraction_seg_meet(s1.start, s1.end, s2.start, s2.end)
            kind = result[0]
            if kind == "none":
                continue
            if kind == "overlap":
                raise FrontGeometryError(
                    f"segments of {comp1!r} and {comp2!r} overlap along a line"
                )
            if kind == "touch":
                raise FrontGeometryError(
                    f"segments of {comp1!r} and {comp2!r} touch at {_fmt_pt(result[1])}; "
                    "perturb the diagram"
                )
            t, u, point = result[1], result[2], result[3]
            if _slope(s1.start, s1.end) < _slope(s2.start, s2.end):
                over = (comp1, i1, t, s1)
                under = (comp2, i2, u, s2)
            else:
                over = (comp2, i2, u, s2)
                under = (comp1, i1, t, s1)
            odir = _sub(over[3].end, over[3].start)
            udir = _sub(under[3].end, under[3].start)
            sign = 1 if _cross2(odir, udir) > 0 else -1
            crossings.append(
                front.Crossing(
                    point=point,
                    over_component=over[0],
                    under_component=under[0],
                    over_dir=odir,
                    under_dir=udir,
                    sign=sign,
                    over_at=(over[0], over[1], over[2]),
                    under_at=(under[0], under[1], under[2]),
                )
            )

    by_point = Counter(c.point for c in crossings)
    for pt, n in by_point.items():
        if n > 1:
            raise FrontGeometryError(f"triple point at {_fmt_pt(pt)}")
    return crossings


class _FractionStep(NamedTuple):
    start: tuple
    end: tuple
    after_jump: bool


class _FractionBall(NamedTuple):
    handle: str
    x: Fraction
    ytop: Fraction
    ybot: Fraction

    def contains(self, p):
        return p[0] == self.x and self.ybot <= p[1] <= self.ytop


def _arc(name, pts):
    """An Arc from points whose coordinates are ints or Fractions."""
    return front.Arc(name, *front._points_over_lcm(
        [v.as_integer_ratio() for p in pts for v in p]))


def _ball(handle, x, ytop, ybot):
    return front._ball(handle, *(v.as_integer_ratio() for v in (x, ytop, ybot)))


def _framed(arcs, balls, sign=1):
    """The walks, the steps entered through a ball and the Frame that
    FrontDiagram builds from arcs and balls, each component oriented `sign`."""
    scale, points, framed = front._integer_frame(arcs, balls)
    orient = {arc.component: sign for arc in arcs}
    walks, segs, jumps = front._chain_components(arcs, scale, points, framed, orient)
    return walks, jumps, front.Frame(scale, segs, framed)


def _fractions(pts, scale):
    return [(Fraction(x, scale), Fraction(y, scale)) for x, y in pts]


def _fraction_steps(jumps, frame):
    """Each traversal step with its ends as Fraction points."""
    return {comp: [_FractionStep(*_fractions((seg[:2], seg[2:]), frame.scale), i in jumps[comp])
                   for i, seg in enumerate(segs)]
            for comp, segs in frame.segs.items()}


def _fraction_balls(frame):
    return [_FractionBall(h, *(Fraction(v, frame.scale) for v in (x, ytop, ybot)))
            for h, x, ytop, ybot in frame.balls]


def _fraction_crossing(c, scale):
    """c with its fields in the Fractions the oracles build."""
    x, y, den = c.point
    return c._replace(
        point=(Fraction(x, den), Fraction(y, den)),
        over_dir=tuple(Fraction(v, scale) for v in c.over_dir),
        under_dir=tuple(Fraction(v, scale) for v in c.under_dir),
        over_at=(*c.over_at[:2], Fraction(*c.over_at[2:])),
        under_at=(*c.under_at[:2], Fraction(*c.under_at[2:])),
    )


def _grid(rng):
    """A step and a negative offset per axis, mixing denominators 1, 2, 3 and 7."""
    return (
        Fraction(1, rng.choice((1, 2, 3, 7))),
        -Fraction(rng.randint(0, 4), rng.choice((1, 2, 7))),
        -Fraction(rng.randint(0, 4), rng.choice((1, 3, 7))),
    )


def _random_closed_polygons(rng):
    """Arcs and balls of 1-3 closed polygons that often touch, overlap or meet at a point.

    Components mostly share one small grid, so vertices and edges coincide.
    In about a third of the inputs every first edge is centred on one point,
    which makes triple points.
    """
    while True:
        grid = _grid(rng)
        centre = None
        if rng.random() < 0.3:
            centre = (Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2), 3))
        polygons = []
        for name in "ABC"[: rng.randint(1, 3)]:
            if rng.random() < 0.4:
                grid = _grid(rng)
            step, ox, oy = grid
            pts = [(ox + step * rng.randint(0, 4), oy + step * rng.randint(0, 4))
                   for _ in range(rng.randint(3, 5))]
            if centre:
                vx = Fraction(rng.randint(1, 3), rng.choice((1, 2, 3, 7)))
                vy = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 7)))
                pts[:2] = [(centre[0] - vx, centre[1] - vy), (centre[0] + vx, centre[1] + vy)]
            polygons.append((name, tuple(pts + pts[:1])))
        balls = ()
        if rng.random() < 0.2:
            # off the last grid's vertex columns, so no vertex sits on the ball
            x = ox + step * rng.randint(0, 4) + step / 2
            balls = (_ball("h", x, oy + 4 * step, oy),
                     _ball("h", Fraction(40), Fraction(1), Fraction(0)))
        try:
            arcs = tuple(_arc(name, pts) for name, pts in polygons)
            _framed(arcs, balls)
        except FrontGeometryError:
            continue  # a vertical or zero-length edge, or arc ends that do not chain
        return arcs, balls


def _both_orientations(arcs, balls):
    """The jumps and frame of the diagram with every component oriented + and then -."""
    return [_framed(arcs, balls, sign)[1:] for sign in (1, -1)]


def _outcome(find, *args):
    try:
        return find(*args)
    except FrontGeometryError as exc:
        return ("error", str(exc))


def _integer_crossings(jumps, frame):
    return [_fraction_crossing(c, frame.scale) for c in front._find_crossings(frame, jumps)]


def _assert_crossings_match_oracle(jumps, frame):
    """The all-pairs oracle's outcome, which the sweep's must equal."""
    expected = _outcome(_all_pairs_crossings, _fraction_steps(jumps, frame),
                        _fraction_balls(frame))
    assert _outcome(_integer_crossings, jumps, frame) == expected
    return expected


def test_sweep_matches_all_pairs_oracle(monkeypatch):
    rng = random.Random(20110411)
    kinds = Counter()
    for _ in range(600):
        for jumps, frame in _both_orientations(*_random_closed_polygons(rng)):
            expected = _assert_crossings_match_oracle(jumps, frame)
            # these fronts take the window scan: the ordered sweep, too
            with monkeypatch.context() as m:
                m.setattr(front, "_meeting_pairs", front._ordered_pairs)
                assert _outcome(_integer_crossings, jumps, frame) == expected
            if isinstance(expected, list):
                kinds["crossings" if expected else "no crossings"] += 1
            else:
                kinds[next(k for k in ("touch", "overlap", "triple", "ball")
                           if k in expected[1])] += 1
    assert set(kinds) == {"crossings", "no crossings", "touch", "overlap", "triple", "ball"}, kinds


def _plain_sweep_pairs(ints):
    """The x-sweep that `front._meeting_pairs` refined with a y-extent test, kept as its oracle."""
    segs = []
    for k, (px, py, qx, qy) in enumerate(ints):
        segs.append((px, py, qx, qy, k) if px < qx else (qx, qy, px, py, k))
    segs.sort()
    pairs = []
    for n, (px, py, qx, qy, a) in enumerate(segs):
        dx, dy = qx - px, qy - py
        for rx, ry, sx, sy, b in segs[n + 1:]:
            if rx > qx:
                break
            if (dx * (ry - py) - dy * (rx - px)) * (dx * (sy - py) - dy * (sx - px)) > 0:
                continue
            ex, ey = sx - rx, sy - ry
            if (ex * (py - ry) - ey * (px - rx)) * (ex * (qy - ry) - ey * (qx - rx)) > 0:
                continue
            pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return pairs


def _joined_successors(jumps, frame):
    """Per segment of the frame in one list, the index of the next step of its
    component when the two meet at a shared vertex (not through a ball), else -1."""
    successors = []
    for comp, segs in frame.segs.items():
        first = len(successors)
        for i in range(len(segs)):
            nxt = (i + 1) % len(segs)
            successors.append(-1 if nxt in jumps[comp] else first + nxt)
    return successors


def _degenerate_segments(rng):
    """Segments on a grid of even integers, and each one's joined successor or
    -1, built to meet in every degenerate way: a path of joined steps, then a
    segment from the end of a step it is not joined to, one from the midpoint
    of a step, one along a step's line over its second half and beyond, and
    three through one point."""
    while True:
        pts = [(2 * rng.randint(0, 6), 2 * rng.randint(0, 6)) for _ in range(rng.randint(3, 7))]
        path = [p + q for p, q in zip(pts, pts[1:])]
        px, py, qx, qy = rng.choice(path)
        mx, my = (px + qx) // 2, (py + qy) // 2
        cx, cy = 2 * rng.randint(1, 5), 2 * rng.randint(1, 5)
        spokes = [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(3)]
        segs = path + [
            (qx, qy, 2 * rng.randint(0, 6), 2 * rng.randint(0, 6)),
            (mx, my, 2 * rng.randint(0, 6), 2 * rng.randint(0, 6)),
            (mx, my, 2 * qx - mx, 2 * qy - my),
        ] + [(cx - vx, cy - vy, cx + vx, cy + vy) for vx, vy in spokes]
        if all(s[0] != s[2] for s in segs):
            return segs, [*range(1, len(path)), -1] + [-1] * 6


def _no_window(ints, joined):
    raise AssertionError(f"window scan over {len(ints)} segments")


def _counting_ordered_pairs(monkeypatch):
    """Patch `_ordered_pairs` to record (most, pairs returned) per call."""
    calls, ordered = [], front._ordered_pairs

    def counted(ints, joined, most=None):
        pairs = ordered(ints, joined, most)
        calls.append((most, len(pairs)))
        return pairs

    monkeypatch.setattr(front, "_ordered_pairs", counted)
    return calls


def test_sweep_lists_the_pairs_of_the_plain_x_sweep(monkeypatch):
    rng = random.Random(20110411)
    cases = [_framed(*_random_closed_polygons(rng))[1:] for _ in range(600)]
    cases += [(d._jumps, d.frame()) for d in (kirby.linked_handle_pair(n).front
                                              for n in range(2, 65))]
    sets = [([seg for segs in frame.segs.values() for seg in segs],
             _joined_successors(jumps, frame)) for jumps, frame in cases]
    sets[600:600] = [_degenerate_segments(rng) for _ in range(200)]
    # crossings closer in x than 1/B for the bound B of `_ordered_pairs`
    # (1/20 with B = 12, 2/39 with B = 18): event keys scaled by B would tie
    sets[800:800] = [([(0, 3, 1, 1), (0, 3, 1, 0), (0, 1, 2, 0), (0, 0, 1, 1)], [-1] * 4),
                     ([(2, 1, 1, 1), (2, 2, 0, 2), (0, 0, 3, 2), (2, 0, 0, 3)], [-1] * 4)]
    for ints, successors in sets:
        joined = {tuple(sorted((a, b))) for a, b in enumerate(successors) if b >= 0}
        expected = [pair for pair in _plain_sweep_pairs(ints) if pair not in joined]
        assert front._meeting_pairs(ints, successors) == expected
        # both sweeps, whichever one the set selects
        assert front._window_pairs(ints, successors) == expected
        assert front._ordered_pairs(ints, successors) == expected
    # the last case, LHP(64): 452 pairs meet, 261 of them steps joined at a
    # vertex; its 29,064 candidates select the ordered sweep
    assert (len(_plain_sweep_pairs(ints)), len(joined)) == (452, 261)
    monkeypatch.setattr(front, "_window_pairs", _no_window)
    assert front._meeting_pairs(ints, successors) == expected


def test_dense_segments_give_the_ordered_sweep_up_for_the_window_scan(monkeypatch):
    # two paths of 70 steps over one x-range, nearly level and steep, each
    # step crossing every step of the other: their 7,384 candidates cost as
    # much as 7384 // 14 = 527 events, so the ordered sweep may find
    # 527 - 2 * 140 = 247 pairs, and it stops at the 248th of 4,900
    level = [(7000 * (i % 2), i) for i in range(71)]
    steep = [(700 + 80 * j, 280 * (j % 2) - 5) for j in range(71)]
    ints = [p + q for pts in (level, steep) for p, q in zip(pts, pts[1:])]
    joined = [*range(1, 70), -1, *range(71, 140), -1]
    expected = front._window_pairs(ints, joined)
    assert len(expected) == 4900
    calls = _counting_ordered_pairs(monkeypatch)
    assert front._meeting_pairs(ints, joined) == expected
    assert calls == [(247, 248)]


def test_segments_through_one_point_stop_the_ordered_sweep_at_the_limit(monkeypatch):
    # 1,365 thin triangles in disjoint sectors around the origin: nothing
    # meets left of it, and its 2,730 segments would make 3.7 million pairs
    calls = _counting_ordered_pairs(monkeypatch)

    def no_classifying(a, b):
        raise AssertionError("classified a segment pair past the crossing limit")

    monkeypatch.setattr(front, "_seg_meet", no_classifying)
    text = "".join(f"arc T{i} : (2,{4 * i}) (1,{2 * i + 1}) (0,0) (2,{4 * i})\n"
                   for i in range(1365))
    with pytest.raises(FrontGeometryError, match="at most 5000 crossings"):
        parse_front(text)
    assert calls == [(5000, 5001)]


def _cyclic_garbage_after(run):
    """What the cyclic collector frees after run(), with the collector off while it runs."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_ordered_sweep_leaves_no_cyclic_garbage(monkeypatch):
    # the status slots link to the slots below and above them: a sweep that
    # left them linked would leave a cycle per run of adjacent slots
    text = front.front_to_text(kirby.linked_handle_pair(32).front)
    calls = _counting_ordered_pairs(monkeypatch)
    assert _cyclic_garbage_after(lambda: parse_front(text)) == 0
    assert len(calls) == 1 and calls[0][1] <= calls[0][0]  # swept to the end
    # the dense paths below: the sweep gives up at its 248th pair
    level = [(7000 * (i % 2), i) for i in range(71)]
    steep = [(700 + 80 * j, 280 * (j % 2) - 5) for j in range(71)]
    ints = [p + q for pts in (level, steep) for p, q in zip(pts, pts[1:])]
    joined = [*range(1, 70), -1, *range(71, 140), -1]
    assert _cyclic_garbage_after(lambda: front._ordered_pairs(ints, joined, 247)) == 0


def test_zigzag_of_4082_segments_over_one_x_range_builds_by_the_ordered_sweep(monkeypatch):
    # every pair of the 4,078 zigzag steps shares its x-range, so the window
    # scan would visit 8.3 million candidates for no crossing
    monkeypatch.setattr(front, "_window_pairs", _no_window)
    zigzag = [(100 * (i % 2), i) for i in range(4079)]
    back = [(-1, 4079), (-2, 2039), (-1, -1), (0, 0)]
    d = parse_front("arc K : " + " ".join(f"({x},{y})" for x, y in zigzag + back) + "\n")
    assert sum(len(a.points) - 1 for a in d.arcs) == 4082
    assert (d.crossings(), d.cusp_count("K"), d.tb("K")) == ((), 4078, -2039)


def _assert_frame_matches_oracles(jumps, frame):
    steps, balls = _fraction_steps(jumps, frame), _fraction_balls(frame)
    for comp in frame.segs:
        assert (_fractions(front._find_cusps(frame.segs[comp], jumps[comp]), frame.scale)
                == _fraction_find_cusps(steps[comp]))
        for s, seg in zip(steps[comp], frame.segs[comp]):
            assert (_outcome(front._check_ball_contacts, comp, seg, frame.balls)
                    == _outcome(_fraction_check_ball_contacts, comp, s, balls))


def test_integer_cusps_and_ball_contacts_match_fraction_oracles(load):
    rng = random.Random(20110411)
    for _ in range(600):
        for jumps, frame in _both_orientations(*_random_closed_polygons(rng)):
            _assert_frame_matches_oracles(jumps, frame)
    # strands through handles; in the last one the x-direction reverses at
    # both jumps, which makes no cusp
    reversing = parse_front(
        "arc K : (0,1) (-2,0) (0,-1)\narc K : (10,-1) (8,0) (10,1)\n"
        "handle h : x=0 ytop=2 ybot=-2\nhandle h : x=10 ytop=2 ybot=-2\n")
    assert reversing.tb_report("K")["cusps"] == [["-2", "0"], ["8", "0"]]
    for d in (parse_front(load("trefoil_handle.front")),
              kirby.parse_kirby(load("mazur.kirby")).front, reversing,
              parse_front(HANDLE_AND_VERTEX)):
        for jumps, frame in _both_orientations(d.arcs, d.balls):
            _assert_frame_matches_oracles(jumps, frame)
            _assert_crossings_match_oracle(jumps, frame)


class _Step(NamedTuple):
    """One directed segment of a traversal, as chaining once kept it per step."""

    seg: tuple
    arc_index: int
    after_jump: bool  # entered through a handle ball


def _reverse_steps(steps):
    """The steps of a '-' component, as FrontDiagram once built them from its '+'
    steps in a second pass: the reference for chaining in the orientation."""
    out = []
    n = len(steps)
    for i in range(n - 1, -1, -1):
        s = steps[i]
        # after reversal the jump flag belongs to the step that FOLLOWS the jump,
        # which is the reversal of the step that preceded it
        flag = steps[(i + 1) % n].after_jump
        out.append(_Step(s.seg[2:] + s.seg[:2], s.arc_index, flag))
    return out


def _steps(arcs, walks, jumps, frame):
    """Each component's traversal as one _Step per segment."""
    steps = {}
    for comp, walk in walks.items():
        arc_of_step = [i for i, _, _ in walk for _ in arcs[i].points[1:]]
        steps[comp] = [_Step(seg, i, k in jumps[comp])
                       for k, (seg, i) in enumerate(zip(frame.segs[comp], arc_of_step))]
    return steps


# K passes the handle twice and meets itself once at (10,-6): one arc is
# entered at a shared vertex, the other two through a ball
HANDLE_AND_VERTEX = ("arc K : (0,1) (10,4) (20,-1)\narc K : (0,-1) (5,-4) (10,-6)\n"
                     "arc K : (10,-6) (15,-8) (20,1)\n"
                     "handle h : x=0 ytop=2 ybot=-2\nhandle h : x=20 ytop=2 ybot=-2\n")


def test_chaining_in_orientation_matches_reversing_the_steps(load):
    rng = random.Random(20110411)
    diagrams = [_random_closed_polygons(rng) for _ in range(600)]
    for d in (parse_front(load("trefoil_handle.front")), kirby.parse_kirby(load("mazur.kirby")),
              parse_front(load("trefoil.front")), parse_front(HANDLE_AND_VERTEX)):
        for f in (d.front, d.stein_front) if isinstance(d, kirby.KirbyDiagram) else (d,):
            diagrams.append((f.arcs, f.balls))
    for arcs, balls in diagrams:
        framed = [_framed(arcs, balls, sign) for sign in (1, -1)]
        for walks, jumps, frame in framed:
            # arc ends and their partners form disjoint cycles: every arc is walked
            # exactly once, and each walk closes on its own start, every step but
            # one entered through a ball starting where the step before it ends
            walked = sorted(i for walk in walks.values() for i, _, _ in walk)
            assert walked == list(range(len(arcs)))
            for comp, segs in frame.segs.items():
                assert all(segs[k - 1][2:] == segs[k][:2]
                           for k in range(len(segs)) if k not in jumps[comp])
        plus, minus = (_steps(arcs, *f) for f in framed)
        assert minus == {comp: _reverse_steps(steps) for comp, steps in plus.items()}
    # a '-' diagram keeps the steps of its chaining, step 0 first, with their jumps
    d = parse_front(load("trefoil_handle.front").replace("orient K +", "orient K -"))
    minus = _steps(d.arcs, *_framed(d.arcs, d.balls, -1))
    assert _steps(d.arcs, d._walks, d._jumps, d.frame()) == minus
    assert d.handle_passes("K") == sum(s.after_jump for s in minus["K"]) == 2


@pytest.mark.parametrize("ybot, ytop, hit", [
    (Fraction(1, 23), Fraction(1, 21), True),    # y = 1/22 at x = 1/11 lies inside
    (Fraction(1, 23), Fraction(1, 22), True),    # ... or on the top end
    (Fraction(2, 43), Fraction(5, 13), False),   # the ball starts just above it
    (Fraction(-1, 23), Fraction(1, 23), False),  # or lies between the two strands
])
def test_ball_denominators_join_the_frame(ybot, ytop, hit):
    # no arc point has a denominator of 11, 13, 21, 22, 23 or 43, so only a
    # frame whose scale includes the balls' denominators decides these exactly
    text = (LENS_A + f"handle h : x=1/11 ytop={ytop} ybot={ybot}\n"
            "handle h : x=20 ytop=1 ybot=-1\n")
    try:
        parse_front(text)
    except FrontGeometryError as exc:
        assert hit and "runs through a ball of handle 'h'" in str(exc)
    else:
        assert not hit
    d = parse_front(LENS_A)
    balls = (_ball("h", Fraction(1, 11), ytop, ybot),
             _ball("h", Fraction(20), Fraction(1), Fraction(-1)))
    _, jumps, frame = _framed(d.arcs, balls)
    assert frame.scale % math.lcm(11, ytop.denominator, ybot.denominator) == 0
    _assert_frame_matches_oracles(jumps, frame)


def test_no_fraction_between_parse_and_output(fixtures, monkeypatch):
    """Parsing, crossings, shadows and the involution check build no Fraction."""
    import fractions

    from corktwist import moves

    texts = {path.name: path.read_text() for path in sorted(fixtures.iterdir())
             if path.suffix in (".front", ".kirby")}
    for name, text in list(texts.items()):
        doc = (front.front_to_doc(parse_front(text)) if name.endswith(".front")
               else kirby.kirby_to_doc(kirby.parse_kirby(text)))
        texts[name + " as JSON"] = json.dumps(doc)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    for module in (front, kirby, moves):
        monkeypatch.setattr(module, "Fraction", refuse, raising=False)
    for name, text in texts.items():
        if ".front" in name:
            fronts = [parse_front(text)]
        else:
            d = kirby.parse_kirby(text)
            assert kirby.involution_verified(d)[0], name
            fronts = [d.front] + ([d.stein_front] if d.stein_front else [])
        for f in fronts:
            for comp in f.components():  # reads f.crossings()
                moves.shadow_of_component(f, comp)


# -- parsing rationals to integers ---------------------------------------------

def _fraction_or_none(tok):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=500)
@given(st.text(alphabet="0123456789+-/. \te_\u0663", max_size=8))
@example("1/0")
@example(" -.5 ")
@example("+1.")
@example("1.5/2")
@example("1_0")
@example("1e5")
@example("\u0663")
@example(".")
def test_parse_rational_matches_fraction(tok):
    # Fraction also reads digit separators, exponents and non-ASCII digits,
    # which parse_ratio refuses; it gives what Fraction(tok) holds, in lowest terms
    plain = tok.isascii() and not set(tok) & set("_eE")
    expected = _fraction_or_none(tok) if plain else None
    try:
        got = front.parse_ratio(tok)
    except FrontParseError:
        got = None
    assert got == (None if expected is None else expected.as_integer_ratio())


def _points_token_by_token(text, line):
    """An arc line's points read token by token with parse_ratio, as the line
    grammar read them before one pattern scanned the whole line."""
    ratios = []
    for tok in text.split():
        x, comma, y = tok[1:-1].partition(",")
        if not (tok.startswith("(") and tok.endswith(")") and comma):
            raise FrontParseError(f"expected (x,y), got {tok!r}", line)
        ratios += front.parse_ratio(x, line), front.parse_ratio(y, line)
    return front._points_over_lcm(ratios)


def _scanned(read, text):
    try:
        return read(text, 7)
    except FrontParseError as exc:
        return ("error", str(exc), exc.line)


# the spellings test_parse_rational_matches_fraction draws and its examples,
# with well-formed numbers mixed in so that whole lines scan
_spelling = st.one_of(
    st.text(alphabet="0123456789+-/. \te_\u0663", max_size=8),
    st.sampled_from(("1/0", " -.5 ", "+1.", "1.5/2", "1_0", "1e5", "\u0663", ".", "9" * 4301)),
    st.builds("{}{}{}".format, st.sampled_from(("", "+", "-")), st.integers(0, 999),
              st.sampled_from(("", "/3", "/12", ".", ".5", ".25", "/0"))),
)


@settings(max_examples=150)
@given(st.lists(st.tuples(_spelling, _spelling, st.sampled_from((" ", "\t", "  ", ""))),
                max_size=4),
       st.sampled_from(("", " ")))
@example([("1", "2", " "), ("3/6", "-4", " "), ("0.50", "+.25", "\t")], "")
@example([("1", "2", " "), ("-0", "007", "")], " ")
@example([("1/0", "2", " ")], "")
def test_arc_line_scan_matches_parse_ratio(points, end):
    text = "".join(sep + f"({x},{y})" for x, y, sep in points) + end
    assert _scanned(front._scan_points, text) == _scanned(_points_token_by_token, text)


def test_arc_lines_are_read_token_by_token_only_to_word_an_error(fixtures, monkeypatch):
    texts = [(fixtures / name).read_text() for name in ("lens.front", "trefoil.front",
                                                         "trefoil_handle.front")]
    texts += [LENS_A.replace("(4,2)", "(4.0,+2)").replace("(4,-2)", "(8/2,-2.00)"),
              "arc U : (0,0) (1/3,1/7) (2,0)\narc U : (2,0) (1,-1/2) (0,0)\n"]
    expected = [parse_front(text) for text in texts]

    def refuse(text, line):
        raise AssertionError(f"line {line} read token by token")

    monkeypatch.setattr(front, "_parse_points", refuse)
    assert [parse_front(text) for text in texts] == expected
    with pytest.raises(AssertionError, match="line 1 read token by token"):
        parse_front("arc U : (0,0) (1/0,1)\n")


# lines spelled from the front grammar's own tokens, and from some it refuses
_FRONT_HEADS = ("arc K :", "arc K :", "arc L :", "handle h :", "orient", "knottype", "#", "arc")
_FRONT_ARGS = (
    "(0,0)", "(4,2)", "(8,0)", "(4,-2)", "(1/2,3)", "(0.5,-1)", "(1/0,1)", "(1e3,1)",
    "(\u0663,1)", "(99999999999999999999,1)", "(0,0)(1,1)", "(1,2", "(", ")", "x=0", "ytop=2",
    "ybot=-2", "x=1/0", "x=", "K", "L", "+", "-", "unknot", ":", "3/4", "-1", "rot180",
    "stein", "component", "\0", "# comment",
)


def test_parse_front_is_total(spelled):
    """Text of front tokens parses, or raises an InputError and nothing else."""

    @settings(max_examples=150)
    @given(st.binary(max_size=40))
    @example(bytes([0, 1, 5, 9, 0, 9, 13, 1, 16, 77, 85]))  # a lens, oriented +
    def parsed(data):
        try:
            parse_front(spelled(data, _FRONT_HEADS, _FRONT_ARGS))
        except InputError:
            pass

    parsed()


@pytest.mark.parametrize("arc, message", [
    ({"component": 7}, "missing key 'points'"),
    ({"component": "K 1", "points": 5}, "'K 1' is not a name"),
    ({"component": "K", "points": 5}, "points is not a list"),
    ({"component": "K", "points": [[0, "1/0"]]}, "bad rational '1/0'"),
])
def test_json_arc_reads_both_keys_then_the_name_then_the_points(arc, message):
    with pytest.raises(FrontParseError, match=re.escape(message)):
        front.front_from_doc({"arcs": [arc]})


# -- the integer classifier against the Fraction one --------------------------

# small grids with mixed denominators, so coordinates coincide often
_coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 7)))
_point = st.tuples(_coord, _coord)
_ratio = st.builds(Fraction, st.integers(-4, 8), st.sampled_from((1, 2, 3, 4)))


@st.composite
def _segment_pairs(draw):
    """Two non-vertical segments pq, rs: free, collinear, sharing an endpoint or an x."""
    p, q = draw(_point), draw(_point)
    shape = draw(st.sampled_from(("free", "collinear", "shared-endpoint", "shared-x")))
    if shape == "collinear":
        # r and s on the line pq, at ratios of q - p from p
        r, s = ((p[0] + k * (q[0] - p[0]), p[1] + k * (q[1] - p[1]))
                for k in (draw(_ratio), draw(_ratio)))
    else:
        r, s = draw(_point), draw(_point)
        if shape == "shared-endpoint":
            r = draw(st.sampled_from((p, q)))
        elif shape == "shared-x":
            r = (draw(st.sampled_from((p[0], q[0]))), r[1])
    pair = draw(st.permutations(((p, q), (r, s))))
    if any(a[0] == b[0] for a, b in pair):
        return draw(st.nothing())  # vertical or zero length: no front has one
    return pair


def _scaled(*segments):
    """The lcm of all denominators, and each segment's integer 4-tuple over it."""
    scale = math.lcm(*(v.denominator for seg in segments for pt in seg for v in pt))
    return scale, [tuple(v.numerator * (scale // v.denominator) for pt in seg for v in pt)
                   for seg in segments]


@settings(max_examples=300)
@given(_segment_pairs())
@example((((0, 0), (2, 2)), ((0, 2), (2, 0))))  # cross
@example((((0, 0), (2, 2)), ((1, 1), (3, 0))))  # touch inside one segment
@example((((0, 0), (2, 2)), ((2, 2), (3, 0))))  # shared endpoint
@example((((0, 0), (2, 2)), ((1, 1), (3, 3))))  # collinear overlap
@example((((0, 0), (2, 2)), ((2, 2), (3, 3))))  # collinear, one shared end x
@example((((0, 0), (2, 2)), ((3, 3), (4, 4))))  # collinear, apart
@example((((0, 0), (2, 2)), ((0, 1), (2, 3))))  # parallel
@example((((0, 0), (2, 2)), ((2, 3), (4, 0))))  # shared x, no meeting
def test_integer_seg_meet_matches_fraction_classifier(pair):
    (p, q), (r, s) = (tuple((Fraction(x), Fraction(y)) for x, y in seg) for seg in pair)
    expected = _fraction_seg_meet(p, q, r, s)
    scale, (a, b) = _scaled((p, q), (r, s))
    got = front._seg_meet(a, b)
    kind = got[0]
    if kind == "touch":
        _, x, y, den = got
        got = ("touch", (Fraction(x, den * scale), Fraction(y, den * scale)))
    elif kind == "cross":
        _, t, u, x, y, den = got
        assert 0 < t < den and 0 < u < den
        got = ("cross", Fraction(t, den), Fraction(u, den),
               (Fraction(x, den * scale), Fraction(y, den * scale)))
    assert got == expected


# -- exactness under large denominators and the tracer's hook -----------------

def _translated(d, ox, oy):
    def moved(a):
        return [(x + ox, y + oy) for x, y in _fractions(a.points, a.scale)]
    return front.FrontDiagram(
        tuple(_arc(a.component, moved(a)) for a in d.arcs),
        tuple(_ball(b.handle, *(Fraction(v, b.scale) + o for v, o in
                                ((b.x, ox), (b.ytop, oy), (b.ybot, oy)))) for b in d.balls),
        d.orientations,
        d.knottypes,
    )


@pytest.mark.parametrize("source", ["LHP(2)", "LHP(7)", "LHP(64)", "trefoil.front",
                                    "trefoil_handle.front"])
def test_large_prime_denominators_stay_exact(source, load):
    if source.startswith("LHP"):
        d = kirby.linked_handle_pair(int(source[4:-1])).front
    else:
        d = parse_front(load(source))
    ox, oy = Fraction(1, 10007), Fraction(3, 65537)
    moved = _translated(d, ox, oy)
    before = [_fraction_crossing(c, d.frame().scale) for c in d.crossings()]
    after = [_fraction_crossing(c, moved.frame().scale) for c in moved.crossings()]
    assert before and len(after) == len(before)
    for c, m in zip(before, after):
        assert m.point == (c.point[0] + ox, c.point[1] + oy)
        assert (m.sign, m.over_component, m.under_component) == (
            c.sign, c.over_component, c.under_component)
        assert (m.over_dir, m.under_dir, m.over_at, m.under_at) == (
            c.over_dir, c.under_dir, c.over_at, c.under_at)
    comps = d.components()
    for comp in comps:
        assert moved.tb(comp) == d.tb(comp)
    if len(comps) == 2:
        assert moved.linking_number(*comps) == d.linking_number(*comps)


def test_seg_meet_is_called_once_per_sweep_candidate(monkeypatch):
    # perfbench's tracer counts `front.segment_pairs_tested` by swapping the
    # module attribute, so `_find_crossings` must call it through the module
    calls = []
    seg_meet = front._seg_meet

    def counted(*args, **kwargs):
        calls.append(args)
        return seg_meet(*args, **kwargs)

    monkeypatch.setattr(front, "_seg_meet", counted)
    d = kirby.linked_handle_pair(64).front
    assert len(calls) == 191
    assert len(d.crossings()) == 191
