"""Piecewise-linear Legendrian front diagrams with exact rational geometry.

A front is a union of oriented polyline arcs in the xy-plane.  Vertical
segments are forbidden: where a smooth front would have a vertical
tangency these diagrams have a cusp, i.e. a vertex at which the
x-direction of travel reverses.  At a crossing the strand of smaller
slope is the over strand, so over/under data is never stored, only
derived.  Coordinates are integers: each token is read as an integer
numerator and denominator, an arc or ball holds its coordinates as
integers over the lcm of its own denominators, and a diagram scales them
once into its frame, integers over one common denominator.  Chaining,
cusps, ball contacts, crossings and the involution check all compare
those integers, so every predicate is exact; a coordinate becomes a
rational again only where it is printed.

Optionally a diagram carries 1-handle attaching balls: vertical segments
that come in pairs, with arc ends on one ball of a pair continued from
the matching (same height rank) position on the other ball.  Cusps and
crossings are counted exactly as drawn; passing through a handle adds
nothing.  That counting convention is surfaced in reports as
``handle_convention`` so alternatives can be compared downstream.

Thurston-Bennequin number of a component: writhe minus half the number
of cusps, both read off this diagram.
"""

from __future__ import annotations

import heapq
import math
import re
from bisect import bisect_right, insort
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from functools import partial
from itertools import combinations, islice
from typing import TYPE_CHECKING, NamedTuple

from .base import InputError, Record, _plain, load_json, numbered_lines

if TYPE_CHECKING:
    from fractions import Fraction

Point = tuple[int, int]  # integer numerators over the scale of what holds the point
Segment = tuple[int, int, int, int]  # (px, py, qx, qy) in a diagram's frame

HANDLE_CONVENTION = "cusps and crossings counted as drawn; no correction per ball passage"

# segments per front (the main and the Stein section of a .kirby each count
# on their own); LHP(64) has 261
MAX_SEGMENTS = 4096
# segment pairs the sweep may hand on to be classified, each a crossing in
# a front that builds; LHP(64) has 191
MAX_CROSSINGS = 5000
# window-scan candidates that take as long as one event of the ordered
# sweep: the measured crossover on LHP(n) lies between 12.8 and 15.3
CANDIDATES_PER_EVENT = 14


class FrontError(InputError):
    """Base class for front diagram problems."""


class FrontParseError(FrontError):
    """A statement that cannot be read, with the line it is on if it has one."""


class FrontGeometryError(FrontError):
    """Genericity violation: touching endpoints, triple points, overlaps, ..."""


class Arc(Record):
    """A polyline of one component, its points as integers over `scale`."""

    __slots__ = _fields = ("component", "points", "scale")
    component: str
    points: tuple[Point, ...]
    scale: int

    def __init__(self, component: str, points: tuple[Point, ...], scale: int = 1) -> None:
        if len(points) < 2:
            raise FrontGeometryError(f"arc of {component!r} needs at least 2 points")
        for a, b in zip(points, points[1:]):
            if a[0] == b[0]:
                if a[1] == b[1]:
                    raise FrontGeometryError(
                        f"zero-length segment at {_fmt_pt(a, scale)} in {component!r}"
                    )
                raise FrontGeometryError(
                    f"vertical segment at x={fmt_ratio(a[0], scale)} in {component!r}; "
                    "fronts replace vertical tangencies with cusps"
                )
        self._assign(component, points, scale)


class HandleBall(Record):
    """One attaching ball of a 1-handle: x and ybot..ytop as integers over `scale`."""

    __slots__ = _fields = ("handle", "x", "ytop", "ybot", "scale")
    handle: str
    x: int
    ytop: int
    ybot: int
    scale: int

    def __init__(self, handle: str, x: int, ytop: int, ybot: int, scale: int = 1) -> None:
        if ytop <= ybot:
            raise FrontGeometryError(f"handle ball {handle!r} has ytop <= ybot")
        self._assign(handle, x, ytop, ybot, scale)


class Crossing(NamedTuple):
    point: tuple[int, int, int]  # (x, y, den): the point (x/den, y/den), in lowest terms
    over_component: str
    under_component: str
    # the two segments' directions, in the frame's integers
    over_dir: tuple[int, int]
    under_dir: tuple[int, int]
    sign: int
    # traversal coordinates (component, segment index, t, den) of both strands:
    # the crossing lies at parameter t/den along the segment, 0 < t < den
    over_at: tuple[str, int, int, int]
    under_at: tuple[str, int, int, int]


class Frame(NamedTuple):
    """A diagram's coordinates as integers over one common denominator `scale`."""

    scale: int
    segs: dict[str, list[Segment]]  # per component, one per traversal step
    balls: list[tuple[str, int, int, int]]  # (handle, x, ytop, ybot) per ball


class FrontDiagram(Record):
    __slots__ = ("arcs", "balls", "orientations", "knottypes",
                 # populated during validation; excluded from equality and hashing
                 "_walks", "_frame", "_crossings", "_cusps", "_jumps")
    _fields = ("arcs", "balls", "orientations", "knottypes")
    arcs: tuple[Arc, ...]
    balls: tuple[HandleBall, ...]
    orientations: tuple[tuple[str, int], ...]
    knottypes: tuple[tuple[str, str], ...]

    def __init__(
        self,
        arcs: tuple[Arc, ...],
        balls: tuple[HandleBall, ...] = (),
        orientations: tuple[tuple[str, int], ...] = (),
        knottypes: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._assign(arcs, balls, orientations, knottypes)
        self.__post_init__()

    def __post_init__(self) -> None:
        scale, points, balls = _integer_frame(self.arcs, self.balls)
        orient = dict(self.orientations)
        walks, segs, jumps = _chain_components(self.arcs, scale, points, balls, orient)
        for comp in orient:
            if comp not in walks:
                raise FrontParseError(f"orientation for unknown component {comp!r}")
        for comp, _ in self.knottypes:
            if comp not in walks:
                raise FrontParseError(f"knot type for unknown component {comp!r}")
        frame = Frame(scale, segs, balls)
        cusps = {comp: _find_cusps(steps, jumps[comp]) for comp, steps in segs.items()}
        for comp, pts in cusps.items():
            if len(pts) % 2 != 0:
                raise FrontGeometryError(
                    f"component {comp!r} has {len(pts)} cusps; a closed front "
                    "reverses x-direction an even number of times"
                )
            if not jumps[comp] and len(pts) < 2:
                raise FrontGeometryError(f"component {comp!r} is closed in the plane but has no cusps")
        crossings = _find_crossings(frame, jumps)
        object.__setattr__(self, "_walks", walks)
        object.__setattr__(self, "_frame", frame)
        object.__setattr__(self, "_crossings", tuple(crossings))
        object.__setattr__(self, "_cusps", cusps)
        object.__setattr__(self, "_jumps", jumps)

    # -- queries --------------------------------------------------------------

    def components(self) -> list[str]:
        seen: list[str] = []
        for arc in self.arcs:
            if arc.component not in seen:
                seen.append(arc.component)
        return seen

    def knottype(self, comp: str) -> str | None:
        return dict(self.knottypes).get(comp)

    def frame(self) -> Frame:
        """The diagram's segments and balls as integers over one common denominator."""
        return self._frame

    def crossings(self) -> tuple[Crossing, ...]:
        return self._crossings

    def cusp_count(self, comp: str) -> int:
        self._require(comp)
        return len(self._cusps[comp])

    def handle_passes(self, comp: str) -> int:
        self._require(comp)
        return len(self._jumps[comp])

    def writhe(self, comp: str) -> int:
        self._require(comp)
        return sum(
            c.sign
            for c in self._crossings
            if c.over_component == comp and c.under_component == comp
        )

    def tb(self, comp: str) -> int:
        """Thurston-Bennequin number: writhe minus half the cusp count."""
        return self.writhe(comp) - self.cusp_count(comp) // 2

    def linking_number(self, c1: str, c2: str) -> int:
        self._require(c1)
        self._require(c2)
        if c1 == c2:
            raise ValueError("linking number needs two distinct components")
        total = 0
        count = 0
        for c in self._crossings:
            pair = {c.over_component, c.under_component}
            if pair == {c1, c2}:
                total += c.sign
                count += 1
        if count % 2 != 0:
            raise FrontGeometryError(
                f"components {c1!r}, {c2!r} cross an odd number of times; diagram is not closed"
            )
        return total // 2

    def _require(self, comp: str) -> None:
        if comp not in self._walks:
            raise KeyError(f"no component {comp!r}; have {self.components()}")

    def tb_report(self, comp: str) -> dict:
        """Structured tb computation: every crossing sign and cusp listed."""
        self._require(comp)
        own = [c.point + (c.sign,) for c in self._crossings
               if c.over_component == comp and c.under_component == comp]
        # in (x, y) order: each point over the lcm of their denominators
        lcm = math.lcm(*(den for _, _, den, _ in own))
        own.sort(key=lambda p: (p[0] * (lcm // p[2]), p[1] * (lcm // p[2])))
        scale = self._frame.scale
        return {
            "component": comp,
            "crossings": [
                {"point": [fmt_ratio(x, den), fmt_ratio(y, den)], "sign": sign}
                for x, y, den, sign in own
            ],
            "writhe": self.writhe(comp),
            "cusps": [[fmt_ratio(x, scale), fmt_ratio(y, scale)]
                      for x, y in sorted(self._cusps[comp])],
            "cusp_count": self.cusp_count(comp),
            "tb": self.tb(comp),
            "handle_passes": self.handle_passes(comp),
            "handle_convention": HANDLE_CONVENTION,
        }


# -- the integer frame and exact segment predicates ----------------------------


def _integer_frame(
    arcs: tuple[Arc, ...], balls: tuple[HandleBall, ...]
) -> tuple[int, list[tuple[Point, ...]], list[tuple[str, int, int, int]]]:
    """The lcm `scale` of every arc's and ball's scale, each arc's points and
    each ball's (handle, x, ytop, ybot) as integers over it."""
    scale = math.lcm(*{a.scale for a in arcs}, *{b.scale for b in balls})
    points = []
    for arc in arcs:
        k = scale // arc.scale
        points.append(arc.points if k == 1 else tuple([(x * k, y * k) for x, y in arc.points]))
    framed = []
    for b in balls:
        k = scale // b.scale
        framed.append((b.handle, b.x * k, b.ytop * k, b.ybot * k))
    return scale, points, framed


def _seg_meet(a: Segment, b: Segment):
    """Classify how integer segments a = pq and b = rs meet.

    Every decision compares integer cross products with one positive
    denominator `den`, and every result is a numerator over it.  Returns
    one of
      ("none",), ("overlap",),
      ("touch", x, y, den),
      ("cross", t, u, x, y, den)   with 0 < t, u < den strictly interior.
    """
    px, py, qx, qy = a
    rx, ry, sx, sy = b
    d1x, d1y = qx - px, qy - py
    d2x, d2y = sx - rx, sy - ry
    rpx, rpy = rx - px, ry - py
    den = d1x * d2y - d1y * d2x
    u = rpx * d1y - rpy * d1x
    if den == 0:
        if u != 0:
            return ("none",)
        # collinear: compare x-intervals (segments are never vertical)
        lo = max(min(px, qx), min(rx, sx))
        hi = min(max(px, qx), max(rx, sx))
        if lo > hi:
            return ("none",)
        if lo == hi:
            # the one shared x is an end x of both segments
            return ("touch", lo, py if px == lo else qy, 1)
        return ("overlap",)
    t = rpx * d2y - rpy * d2x
    if den < 0:
        den, t, u = -den, -t, -u
    if t < 0 or t > den or u < 0 or u > den:
        return ("none",)
    x, y = px * den + t * d1x, py * den + t * d1y
    if 0 < t < den and 0 < u < den:
        return ("cross", t, u, x, y, den)
    return ("touch", x, y, den)


# -- chaining arcs into closed components -------------------------------------

def _chain_components(
    arcs: tuple[Arc, ...],
    scale: int,
    points: list[tuple[Point, ...]],
    balls: list[tuple[str, int, int, int]],
    orient: dict[str, int],
) -> tuple[dict[str, list[tuple[int, bool, bool]]], dict[str, list[Segment]],
           dict[str, list[int]]]:
    """Walk the arcs into one closed traversal per component, in its orientation.

    `points` holds each arc's points and `balls` each ball's (handle, x,
    ytop, ybot), all as integers over `scale`; a component that `orient`
    maps to -1 runs against the direction its first arc is drawn in.
    Returns, per component, its walk: (arc index, traversed forward,
    entered through a ball) per arc in traversal order; its segments, one
    per step; and the indices of the steps entered through a ball.
    """
    if not arcs:
        raise FrontParseError("diagram has no arcs")
    _validate_balls(arcs, scale, points, balls)

    def end_point(e: tuple[int, int]) -> Point:
        return points[e[0]][-e[1]]  # e = (arc index, 0 = start or 1 = end)

    by_point: dict[Point, list[tuple[int, int]]] = {}
    for i, pts in enumerate(points):
        by_point.setdefault(pts[0], []).append((i, 0))
        by_point.setdefault(pts[-1], []).append((i, 1))

    partner: dict[tuple[int, int], tuple[tuple[int, int], bool]] = {}
    ball_ends: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(balls))}
    for pt, group in by_point.items():
        if len(group) == 2:
            a, b = group
            partner[a] = (b, False)
            partner[b] = (a, False)
        elif len(group) == 1:
            e = group[0]
            hits = [i for i, ball in enumerate(balls) if _on_ball(pt, ball)]
            if not hits:
                raise FrontGeometryError(
                    f"open component: arc end at {_fmt_pt(pt, scale)} matches nothing"
                )
            if len(hits) > 1:
                raise FrontGeometryError(
                    f"arc end at {_fmt_pt(pt, scale)} lies on two handle balls"
                )
            ball_ends[hits[0]].append(e)
        else:
            raise FrontGeometryError(f"{len(group)} arc ends meet at {_fmt_pt(pt, scale)}")

    pair_of: dict[str, list[int]] = {}
    for i, ball in enumerate(balls):
        pair_of.setdefault(ball[0], []).append(i)
    for handle, pair in pair_of.items():
        ia, ib = pair
        left = sorted(ball_ends[ia], key=lambda e: end_point(e)[1], reverse=True)
        right = sorted(ball_ends[ib], key=lambda e: end_point(e)[1], reverse=True)
        if len(left) != len(right):
            raise FrontGeometryError(
                f"handle {handle!r} balls carry {len(left)} and {len(right)} strand ends"
            )
        ys = [end_point(e)[1] for e in left]
        if len(set(ys)) != len(ys) or len({end_point(e)[1] for e in right}) != len(right):
            raise FrontGeometryError(f"two strand ends at the same height on a ball of {handle!r}")
        for a, b in zip(left, right):
            partner[a] = (b, True)
            partner[b] = (a, True)

    # walk each cycle forward from its first arc, then lay its steps down
    # in the component's orientation
    walks: dict[str, list[tuple[int, bool, bool]]] = {}
    segs: dict[str, list[Segment]] = {}
    jumps: dict[str, list[int]] = {}
    visited = [False] * len(arcs)
    for start in range(len(arcs)):
        if visited[start]:
            continue
        comp = arcs[start].component
        if comp in walks:
            raise FrontGeometryError(f"component {comp!r} splits into several closed curves")
        walk: list[tuple[int, bool, bool]] = []
        current, forward, via_ball = start, True, False
        while True:
            visited[current] = True
            if arcs[current].component != comp:
                raise FrontGeometryError(
                    f"arcs labelled {comp!r} and {arcs[current].component!r} chain into one curve"
                )
            walk.append((current, forward, via_ball))
            (current, entry), via_ball = partner[(current, 1 if forward else 0)]
            forward = entry == 0
            if current == start and forward:
                walk[0] = (start, True, via_ball)
                break
        if orient.get(comp, 1) == -1:
            # backwards, each arc entered where the forward walk left it
            n = len(walk)
            walk = [(walk[k][0], not walk[k][1], walk[(k + 1) % n][2])
                    for k in range(n - 1, -1, -1)]
        steps: list[Segment] = []
        entered: list[int] = []
        for i, fwd, via in walk:
            if via:
                entered.append(len(steps))
            pts = points[i] if fwd else points[i][::-1]
            steps += map(tuple.__add__, pts, pts[1:])
        walks[comp], segs[comp], jumps[comp] = walk, steps, entered
    return walks, segs, jumps


def _on_ball(p: Point, ball: tuple[str, int, int, int]) -> bool:
    _, x, ytop, ybot = ball
    return p[0] == x and ybot <= p[1] <= ytop


def _validate_balls(
    arcs: tuple[Arc, ...],
    scale: int,
    points: list[tuple[Point, ...]],
    balls: list[tuple[str, int, int, int]],
) -> None:
    if not balls:
        return
    counts: dict[str, int] = {}
    for ball in balls:
        counts[ball[0]] = counts.get(ball[0], 0) + 1
    for handle, n in counts.items():
        if n != 2:
            raise FrontParseError(f"handle {handle!r} has {n} balls; need exactly 2")
    for i, (h1, x1, top1, bot1) in enumerate(balls):
        for h2, x2, top2, bot2 in balls[i + 1 :]:
            if x1 == x2 and not (top1 < bot2 or top2 < bot1):
                raise FrontGeometryError(f"balls of {h1!r} and {h2!r} overlap")
    # interior vertices may not sit on balls
    for arc, pts in zip(arcs, points):
        for p in pts[1:-1]:
            for ball in balls:
                if _on_ball(p, ball):
                    raise FrontGeometryError(
                        f"interior vertex {_fmt_pt(p, scale)} of {arc.component!r} "
                        "lies on a handle ball"
                    )


def _find_cusps(segs: list[Segment], jumps: list[int]) -> list[Point]:
    """Each step end where the x-direction reverses, unless the next step enters through a ball."""
    rightward = [s[0] < s[2] for s in segs]
    n = len(segs)
    # rightward[i + 1 - n] is the next step's flag, step 0's for the last step
    return [segs[i][2:] for i in range(n)
            if rightward[i] != rightward[i + 1 - n] and (i + 1) % n not in jumps]


def _find_crossings(frame: Frame, jumps: dict[str, list[int]]) -> list[Crossing]:
    """Every crossing, in order of segment index pairs; a genericity violation raises.

    `jumps` gives, per component, the steps entered through a ball.  The
    ball check, the sweep, `_seg_meet` and the triple-point check all
    work on the integers of `frame`, and so does every field a `Crossing`
    stores: its point in lowest terms, the integer directions of its two
    segments and the parameter along each.
    """
    # per segment in one list: its component, and the index of the next
    # step when the two are joined at a shared vertex, else -1
    ints: list[Segment] = []
    comps: list[str] = []
    joined: list[int] = []
    offset: dict[str, int] = {}
    for comp, segs in frame.segs.items():
        start, n = len(ints), len(segs)
        offset[comp] = start
        ints += segs
        comps += [comp] * n
        nxt = list(range(start + 1, start + n))
        nxt.append(start)
        for i in jumps[comp]:
            nxt[i - 1] = -1
        joined += nxt
    if frame.balls:
        for comp, seg in zip(comps, ints):
            _check_ball_contacts(comp, seg, frame.balls)

    pairs = _meeting_pairs(ints, joined)
    if len(pairs) > MAX_CROSSINGS:
        raise FrontGeometryError(
            f"too many crossings: a front has at most {MAX_CROSSINGS} crossings"
        )
    scale = frame.scale
    crossings: list[Crossing] = []
    for a, b in pairs:
        comp1, comp2 = comps[a], comps[b]
        result = _seg_meet(ints[a], ints[b])
        kind = result[0]
        if kind == "none":
            continue
        if kind == "overlap":
            raise FrontGeometryError(
                f"segments of {comp1!r} and {comp2!r} overlap along a line"
            )
        if kind == "touch":
            _, x, y, den = result
            raise FrontGeometryError(
                f"segments of {comp1!r} and {comp2!r} touch at {_fmt_pt((x, y), den * scale)}; "
                "perturb the diagram"
            )
        _, t, u, x, y, den = result
        i1, i2 = a - offset[comp1], b - offset[comp2]
        px, py, qx, qy = ints[a]
        rx, ry, sx, sy = ints[b]
        d1, d2 = (qx - px, qy - py), (sx - rx, sy - ry)
        # the over strand has the smaller slope; "cross" means the slopes differ
        if (d1[1] * d2[0] - d2[1] * d1[0]) * d1[0] * d2[0] < 0:
            over, under = (comp1, i1, t, d1), (comp2, i2, u, d2)
        else:
            over, under = (comp2, i2, u, d2), (comp1, i1, t, d1)
        odir, udir = over[3], under[3]
        g = math.gcd(x, y, den * scale)
        crossings.append(
            Crossing(
                point=(x // g, y // g, den * scale // g),
                over_component=over[0],
                under_component=under[0],
                over_dir=odir,
                under_dir=udir,
                sign=1 if odir[0] * udir[1] - odir[1] * udir[0] > 0 else -1,
                over_at=(over[0], over[1], over[2], den),
                under_at=(under[0], under[1], under[2], den),
            )
        )

    if len({c.point for c in crossings}) < len(crossings):
        repeats = Counter(c.point for c in crossings)
        for c in crossings:
            if repeats[c.point] > 1:
                raise FrontGeometryError(f"triple point at {_fmt_pt(c.point[:2], c.point[2])}")
    return crossings


def _meeting_pairs(ints: list[Segment], joined: list[int]) -> list[tuple[int, int]]:
    """Index pairs a < b, in increasing order, of the segments that share a point,
    less each segment and the next step joined to it, `joined[a]`.

    Every pair left out other than a joined one is one that `_seg_meet`
    classifies as "none".  Past MAX_CROSSINGS pairs the search stops and
    returns what it holds, unsorted: the caller refuses the front.

    `_window_pairs` costs about one unit per candidate, a pair of segments
    whose x-ranges overlap; `_ordered_pairs` costs CANDIDATES_PER_EVENT
    units per event, two per segment and one per pair found.  So the
    ordered sweep is the cheaper while it has found at most `most` pairs,
    the candidates' cost in events less two per segment.  It runs when
    `most` is past the segment count, since fronts seldom have more
    crossings than segments (LHP(n) has 3n - 1 among 4n + 5), and it gives
    up for the window scan at the first pair past `most`: a front whose
    segments nearly all cross costs at most about twice its window scan.
    Both return the same pairs.
    """
    n = len(ints)
    # n segments have at most n * (n - 1) / 2 candidates, too few below this
    # to cost as much as 3 * n events
    if n > 6 * CANDIDATES_PER_EVENT:
        lefts = sorted([px if px < qx else qx for px, _, qx, _ in ints])
        rights = [qx if px < qx else px for px, _, qx, _ in ints]
        candidates = sum(map(partial(bisect_right, lefts), rights)) - n * (n + 1) // 2
        most = candidates // CANDIDATES_PER_EVENT - 2 * n
        if most > n:
            pairs = _ordered_pairs(ints, joined, min(most, MAX_CROSSINGS))
            if len(pairs) <= most or len(pairs) > MAX_CROSSINGS:
                return pairs
    return _window_pairs(ints, joined)


def _window_pairs(ints: list[Segment], joined: list[int]) -> list[tuple[int, int]]:
    """`_meeting_pairs` by a sweep over the segments sorted by left x.

    It pairs each segment with the later ones whose left x is at most its
    right x, so a shared x still counts.  A candidate whose y-extent is
    disjoint from the segment's is dropped first: two segments that meet,
    or are collinear and share an x, share a y as well.  A pair of steps
    joined at their shared vertex goes next.  Integer orientation tests
    then drop a pair when both ends of one segment lie strictly on one side
    of the other's line, each line written as dx * y - dy * x = c.  The
    cost grows with the pairs whose x-ranges overlap.
    """
    segs = []
    for k, (px, py, qx, qy) in enumerate(ints):
        if px > qx:
            px, py, qx, qy = qx, qy, px, py
        dx, dy = qx - px, qy - py
        lo, hi = (py, qy) if py < qy else (qy, py)
        segs.append((px, qx, lo, hi, py, qy, dx, dy, dx * py - dy * px, k, joined[k]))
    segs.sort()
    pairs: list[tuple[int, int]] = []
    for n, (px, qx, lo, hi, py, qy, dx, dy, c, a, na) in enumerate(segs):
        for rx, sx, rlo, rhi, ry, sy, ex, ey, e, b, nb in islice(segs, n + 1, None):
            if rx > qx:
                break
            if rlo > hi or rhi < lo or b == na or a == nb:
                continue
            if (dx * ry - dy * rx - c) * (dx * sy - dy * sx - c) > 0:
                continue
            if (ex * py - ey * px - e) * (ex * qy - ey * qx - e) > 0:
                continue
            pairs.append((a, b) if a < b else (b, a))
            if len(pairs) > MAX_CROSSINGS:
                return pairs  # the caller refuses the front: the rest need not be found
    pairs.sort()
    return pairs


def _ordered_pairs(ints: list[Segment], joined: list[int],
                   most: int | None = None) -> list[tuple[int, int]]:
    """`_meeting_pairs` by a sweep that keeps the segments across it in y-order
    (Bentley and Ottmann, with the degenerate events of de Berg et al., ch. 2).
    It stops at the first pair past `most`, MAX_CROSSINGS if None, and
    returns what it holds, unsorted.

    Event points are the segment ends and the crossings found, taken in
    (x, y) order.  A point (X/D, Y/D) is keyed by the integers
    floor(X * m / D) and floor(Y * m / D).  No D exceeds B = 2 * w * h, for
    w and h (at least 1) the width and height of all the segment ends, as no
    |dx1 * dy2 - dy1 * dx2| does; so with m = B**2 two event coordinates
    that differ differ by at least 1/m, and the keys order the points
    exactly.  The status lists the segments across the
    sweep line from below.  The segments through a point are found by
    bisection on c * D + dy * X - dx * Y, which has the sign of a segment's
    height above it, and every two of them (ending, passing or starting
    there) are a pair unless joined.  Those going on are put back in slope
    order, and only segments then adjacent are tested for a crossing ahead.
    The two commonest points need no search: a corner, where one step ends
    and the step joined to it starts, and a crossing of two segments, each
    with nothing else through it.  The cost grows with the segments and the
    pairs found, not with the x-ranges that overlap.
    """
    if most is None:
        most = MAX_CROSSINGS
    # each segment left to right as (px, py, qx, qy, dx, dy, c, index), its
    # line dx * y - dy * x = c; per end point, the segments ending and starting
    starts: dict[Point, list[tuple[int, ...]]] = {}
    ends: dict[Point, list[int]] = {}
    for k, (px, py, qx, qy) in enumerate(ints):
        if px > qx:
            px, py, qx, qy = qx, qy, px, py
        dx, dy = qx - px, qy - py
        starts.setdefault((px, py), []).append((px, py, qx, qy, dx, dy, dx * py - dy * px, k))
        ends.setdefault((qx, qy), []).append(k)
    vertices = starts.keys() | ends.keys()
    points = sorted(vertices)
    ys = [y for _, y in points]
    m = (2 * (points[-1][0] - points[0][0]) * max(1, max(ys) - min(ys))) ** 2
    at_ends = [(x * m, y * m, x, y) for x, y in points]
    x0, x1, y0, y1 = points[0][0] - 1, points[-1][0] + 1, min(ys) - 1, max(ys) + 1
    w2 = (points[-1][0] - points[0][0]) ** 2

    def slope(r: tuple[int, ...]) -> int:
        """An integer in the order of r's slope dy / dx: slopes that differ
        do so by at least 1 / w**2, w the width of all the ends."""
        return r[5] * w2 // r[4]

    crossings: list[tuple[int, ...]] = []  # a heap of (keys, X, Y, D, lower, upper)
    queued: set[tuple[int, int, int]] = set()
    # the status: a slot [segment, slot below, slot above] per segment across
    # the sweep line, from below, between a floor and a ceiling that run
    # level past every point and meet nothing; slot_of[k] is segment k's
    floor = [(x0, y0, x1, y0, x1 - x0, 0, (x1 - x0) * y0, -1), None, None]
    ceiling = [(x0, y1, x1, y1, x1 - x0, 0, (x1 - x0) * y1, -1), floor, None]
    floor[2] = ceiling
    status: list[list] = [floor, ceiling]
    slot_of: dict[int, list] = {}
    pairs: set[tuple[int, int]] = set()

    def ahead(r: tuple[int, ...], s: tuple[int, ...]) -> None:
        """Queue the point where r, below s at the sweep line, crosses it
        inside both: where one ends first on the far side of the other."""
        qx, qy, sx, sy = r[2], r[3], s[2], s[3]
        if s[4] * qy - s[5] * qx > s[6] if qx <= sx else r[4] * sy - r[5] * sx < r[6]:
            px, py, _, _, d1x, d1y, _, a = r
            rx, ry, _, _, d2x, d2y, _, b = s
            den = d1x * d2y - d1y * d2x
            t = (rx - px) * d2y - (ry - py) * d2x
            if den < 0:
                den, t = -den, -t
            X, Y = px * den + t * d1x, py * den + t * d1y
            g = math.gcd(X, Y, den)
            point = (X // g, Y // g, den // g)
            # a crossing at a segment end is met at that end's point
            if point not in queued and (point[2] != 1 or point[:2] not in vertices):
                queued.add(point)
                heapq.heappush(crossings, (X * m // den, Y * m // den, *point, a, b))

    # the slots link both ways, so each one leaving the status is unlinked, and
    # the rest on every exit: the sweep leaves nothing for the cyclic collector
    try:
        e = 0
        while True:
            if e < len(at_ends) and (not crossings or at_ends[e] < crossings[0]):
                _, _, X, Y = at_ends[e]
                e += 1
                D = 1
                ending, starting = ends.get((X, Y), ()), starts.get((X, Y), ())
                if len(ending) == 1 and len(starting) == 1:
                    a, s = ending[0], starting[0]
                    b = s[7]
                    slot = slot_of[a]
                    below, above = slot[1], slot[2]
                    # a corner, unless a third segment passes through the point
                    if ((joined[a] == b or joined[b] == a)
                            and (r := below[0])[6] + r[5] * X != r[4] * Y
                            and (r := above[0])[6] + r[5] * X != r[4] * Y):
                        # a corner: the next step takes the place of the one ending
                        slot[0] = s
                        slot_of[b] = slot
                        ahead(below[0], s)
                        ahead(s, above[0])
                        continue
            elif crossings:
                _, _, X, Y, D, a, b = heapq.heappop(crossings)
                ending = starting = ()
                lower, upper = slot_of[a], slot_of[b]
                below, above = lower[1], upper[2]
                if (lower[2] is upper
                        and (r := below[0])[6] * D + r[5] * X != r[4] * Y
                        and (r := above[0])[6] * D + r[5] * X != r[4] * Y):
                    # two segments cross, and no third passes: they change places
                    r, s = lower[0], upper[0]
                    lower[0], upper[0] = s, r
                    slot_of[a], slot_of[b] = upper, lower
                    pairs.add((a, b) if a < b else (b, a))
                    if len(pairs) > most:
                        return list(pairs)
                    ahead(below[0], s)
                    ahead(r, above[0])
                    continue
            else:
                break
            # the first segment not below the point, and then those through it
            lo, hi = 1, len(status) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                _, _, _, _, dx, dy, c, _ = status[mid][0]
                if c * D + dy * X < dx * Y:
                    lo = mid + 1
                else:
                    hi = mid
            while (r := status[hi][0])[6] * D + r[5] * X == r[4] * Y:
                hi += 1
            meeting = [slot[0] for slot in status[lo:hi]]
            # those going on: the ones passing, in the reverse of their order
            # before the point, and the ones starting, each put in by slope
            going = meeting[::-1]
            if ending:
                gone = set(ending)
                going = [r for r in going if r[7] not in gone]
            for r in starting:
                insort(going, r, key=slope)
                meeting.append(r)
            for r, s in combinations(meeting, 2):
                a, b = r[7], s[7]
                if joined[a] != b and joined[b] != a:
                    pairs.add((a, b) if a < b else (b, a))
                    if len(pairs) > most:
                        return list(pairs)
            # a slot for each going on, linked in from the slot below to the one above
            below = status[lo - 1]
            new = []
            for r in going:
                below[2] = slot = [r, below, None]
                slot_of[r[7]] = slot
                new.append(slot)
                below = slot
            above = status[hi]
            below[2], above[1] = above, below
            for slot in status[lo:hi]:
                slot[1] = slot[2] = None
            status[lo:hi] = new
            ahead(status[lo - 1][0], status[lo][0])
            if new:
                ahead(below[0], above[0])
        return sorted(pairs)
    finally:
        for slot in status:
            slot[1] = slot[2] = None


def _check_ball_contacts(comp: str, seg: Segment, balls: list[tuple[str, int, int, int]]) -> None:
    """Raise if the segment meets a ball anywhere but at one of its own ends.

    With the segment ordered so that dx > 0, a ball at x strictly between
    its end xs is met when the segment's height there, times dx, lies in
    [ybot * dx, ytop * dx].
    """
    px, py, qx, qy = seg
    if px > qx:
        px, py, qx, qy = qx, qy, px, py
    dx = qx - px
    for handle, x, ytop, ybot in balls:
        if px < x < qx and ybot * dx <= py * dx + (x - px) * (qy - py) <= ytop * dx:
            raise FrontGeometryError(
                f"segment of {comp!r} runs through a ball of handle {handle!r}"
            )


# -- stabilization ------------------------------------------------------------

def stabilize(d: FrontDiagram, comp: str, sign: int) -> FrontDiagram:
    """Insert a zigzag into comp: two new cusps, no new crossings, tb drops by 1.

    sign +1 bulges the zigzag toward +y, -1 toward -y.  The insertion site
    is deterministic: the first traversal segment, in its largest
    crossing-free window, with the zigzag shrunk until the diagram stays
    generic.  The four zigzag points are placed in Fractions and the arc
    that receives them is rescaled to the lcm of their denominators.
    """
    from fractions import Fraction  # here, so that no command imports it

    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    d._require(comp)
    seg_index = 0
    arc_index, forward, _ = d._walks[comp][0]
    params = sorted(
        Fraction(at[2], at[3])
        for c in d._crossings
        for at in (c.over_at, c.under_at)
        if at[0] == comp and at[1] == seg_index
    )
    cuts = [Fraction(0)] + params + [Fraction(1)]
    best = max(range(len(cuts) - 1), key=lambda i: (cuts[i + 1] - cuts[i], -i))
    lo, hi = cuts[best], cuts[best + 1]
    mid = (lo + hi) / 2
    width = (hi - lo) / 3

    old_crossing_count = len(d._crossings)
    arc = d.arcs[arc_index]
    # the first step runs the arc's first segment, or its last one backwards
    stored = 0 if forward else len(arc.points) - 2
    a, b = ((Fraction(x, arc.scale), Fraction(y, arc.scale))
            for x, y in arc.points[stored : stored + 2])
    # the arc's coordinates as ratios, and where the zigzag's four points go
    ratios = [(v, arc.scale) for p in arc.points for v in p]
    cut = 2 * stored + 2

    for attempt in range(80):
        w = width / (2**attempt)
        h = w * abs(b[0] - a[0]) / (2 ** (attempt + 1))
        t1, t2 = mid - w / 2, mid + w / 2
        if forward:
            s1, s2 = t1, t2
        else:
            s1, s2 = 1 - t2, 1 - t1
        m1 = _lerp(a, b, s1)
        m2 = _lerp(a, b, s2)
        dx, dy = m2[0] - m1[0], m2[1] - m1[1]
        za = (m1[0] + Fraction(3, 4) * dx, m1[1] + Fraction(3, 4) * dy + sign * h)
        zb = (m1[0] + Fraction(1, 4) * dx, m1[1] + Fraction(1, 4) * dy - sign * h)
        zigzag = [v.as_integer_ratio() for p in (m1, za, zb, m2) for v in p]
        arcs = list(d.arcs)
        arcs[arc_index] = Arc(
            arc.component, *_points_over_lcm(ratios[:cut] + zigzag + ratios[cut:])
        )
        try:
            candidate = FrontDiagram(tuple(arcs), d.balls, d.orientations, d.knottypes)
        except FrontError:
            continue
        if len(candidate._crossings) != old_crossing_count:
            continue
        if candidate.cusp_count(comp) != d.cusp_count(comp) + 2:
            continue
        return candidate
    raise FrontGeometryError(f"could not fit a zigzag on component {comp!r}")


def _lerp(a, b, t: Fraction) -> tuple[Fraction, Fraction]:
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


# -- parsing and serialization ------------------------------------------------

def fmt_ratio(n: int, d: int) -> str:
    """The rational n/d (d > 0) spelled as str(Fraction(n, d)) spells it."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _fmt_pt(p: Point, scale: int) -> str:
    return f"({fmt_ratio(p[0], scale)},{fmt_ratio(p[1], scale)})"


# the spellings Fraction(str) accepts, less digit separators and exponents:
# sign, then p, p/q or a decimal, with surrounding whitespace
_COORD = r"([-+]?)(?=[0-9]|\.[0-9])([0-9]*)(?:/([0-9]+)|(?:\.([0-9]*))?)"
_RATIONAL = re.compile(rf"\s*{_COORD}\s*\Z")
# the tokens `(x,y) ...` of an arc line, each followed by whitespace or the
# end; _COORD's groups go uncaptured there, saving a third of the match time
_UNCAPTURED = _COORD.replace("([", "(?:[")
_POINTS = re.compile(rf"(?:\s*\({_UNCAPTURED},{_UNCAPTURED}\)(?!\S))*\s*\Z")
_COORDS = re.compile(_COORD)


def parse_ratio(tok: str, line: int | None = None) -> tuple[int, int]:
    """The rational tok spells, as (numerator, denominator > 0) in lowest terms.

    Takes what Fraction(tok) takes, less digit separators, non-ASCII digits
    and exponents (`1e1000000` is seven characters, but Fraction would
    build its million digits), and builds no Fraction."""
    m = _RATIONAL.match(tok) if tok.isascii() else None
    if m is None:
        if not _plain(tok):
            reason = "ASCII digits only, no '_'"
        elif "e" in tok or "E" in tok:
            reason = "no exponent"
        else:
            reason = f"Invalid literal for Fraction: {tok!r}"
        raise FrontParseError(f"bad rational {tok!r}: {reason}", line)
    try:
        return _ratio(*m.groups())
    except (ValueError, ZeroDivisionError) as exc:  # too many digits, or a zero denominator
        raise FrontParseError(f"bad rational {tok!r}: {exc}", line)


def _ratio(sign: str, num: str, den: str, decimal: str) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms from the groups of `_COORD`; a
    zero denominator raises ZeroDivisionError, a number too long ValueError."""
    n, d = int(num or "0"), 1
    if den:
        d = int(den)
    elif decimal:
        d = 10 ** len(decimal)
        n = n * d + int(decimal)
    if sign == "-":
        n = -n
    if d == 0:
        raise ZeroDivisionError(f"Fraction({n}, 0)")  # Fraction's own words for it
    if d != 1:
        g = math.gcd(n, d)
        n, d = n // g, d // g
    return n, d


def _points_over_lcm(ratios: list[tuple[int, int]]) -> tuple[tuple[Point, ...], int]:
    """Coordinates given as ratios x0, y0, x1, y1, ... as points over their lcm, and the lcm."""
    scale = math.lcm(*{d for _, d in ratios})
    ints = iter([n * (scale // d) for n, d in ratios] if scale != 1 else [n for n, _ in ratios])
    return tuple(zip(ints, ints)), scale


class FrontBuilder:
    """Takes one front statement per call, with every check on it, then builds
    the diagram.  The line grammar (`statement`) and JSON (`front_from_doc`)
    only split their spelling into these calls; `line` is None for JSON."""

    def __init__(self) -> None:
        self.arcs: list[Arc] = []
        self.balls: list[HandleBall] = []
        self.orientations: list[tuple[str, int]] = []
        self.knottypes: list[tuple[str, str]] = []
        self.segments = 0

    def arc(self, component: object, read: Callable[[], tuple[tuple[Point, ...], int]],
            line: int | None = None) -> None:
        """An arc through the points `read()` gives, as integers over the scale it
        gives with them; it is called once the name has passed."""
        name = check_name(component, "component", line)
        points, scale = read()
        if not points:
            raise FrontParseError("arc has no points", line)
        arc = Arc(name, points, scale)
        self.segments += len(arc.points) - 1
        if self.segments > MAX_SEGMENTS:
            raise FrontParseError(
                f"too many segments: a front has at most {MAX_SEGMENTS} segments", line
            )
        self.arcs.append(arc)

    def handle(self, handle: object, params: Iterable[tuple[str, str]],
               line: int | None = None) -> None:
        """One ball of a handle from its (key, value) parameters x, ytop and ybot."""
        name = check_name(handle, "handle id", line)
        vals: dict[str, tuple[int, int]] = {}
        for key, val in params:
            if key not in ("x", "ytop", "ybot") or not val:
                raise FrontParseError(f"bad handle parameter {key!r}", line)
            if key in vals:
                raise FrontParseError(f"handle parameter {key}= given twice", line)
            vals[key] = parse_ratio(val, line)
        if len(vals) != 3:
            raise FrontParseError("handle needs x=, ytop= and ybot=", line)
        self.balls.append(_ball(name, vals["x"], vals["ytop"], vals["ybot"]))

    def orient(self, component: object, sign: object, line: int | None = None) -> None:
        name = check_name(component, "component", line)
        if sign not in ("+", "-"):
            raise FrontParseError(f"orientation {sign!r} of {name!r} is not '+' or '-'", line)
        if any(comp == name for comp, _ in self.orientations):
            raise FrontParseError(f"second orient line for {name!r}", line)
        self.orientations.append((name, 1 if sign == "+" else -1))

    def knottype(self, component: object, knot: object, line: int | None = None) -> None:
        name = check_name(component, "component", line)
        knot = check_name(knot, "knot type", line)
        if any(comp == name for comp, _ in self.knottypes):
            raise FrontParseError(f"second knottype line for {name!r}", line)
        self.knottypes.append((name, knot))

    def statement(self, text: str, line: int) -> bool:
        """Split one front-grammar line into its call; False if the keyword is foreign."""
        head, _, rest = text.partition(" ")
        if head == "arc":
            name, _, pts = rest.partition(":")
            self.arc(name.strip(), partial(_scan_points, pts, line), line)
        elif head == "handle":
            name, _, params = rest.partition(":")
            pairs = (tok.partition("=") for tok in params.split())
            self.handle(name.strip(), ((key, val) for key, _, val in pairs), line)
        elif head in ("orient", "knottype"):
            parts = rest.split()
            if len(parts) != 2:
                usage = "<component> +|-" if head == "orient" else "<component> <name>"
                raise FrontParseError(f"usage: {head} {usage}", line)
            (self.orient if head == "orient" else self.knottype)(*parts, line)
        else:
            return False
        return True

    def build(self) -> FrontDiagram:
        return FrontDiagram(
            tuple(self.arcs),
            tuple(self.balls),
            tuple(self.orientations),
            tuple(self.knottypes),
        )


_NAME = re.compile(r"[^\s:#]+\Z")


def check_name(name: object, what: str, line: int | None = None) -> str:
    """name, if it is a non-empty string with no whitespace, `:` or `#`: what
    the printers can spell back.  A name that is no string is a TypeError."""
    if type(name) is not str:
        raise TypeError(f"{what} {name!r} is not a string")
    if not _NAME.match(name):
        raise FrontParseError(
            f"{what} {name!r} is not a name: it must be non-empty, "
            "with no whitespace, ':' or '#'", line
        )
    return name


def _ball(handle: str, *ratios: tuple[int, int]) -> HandleBall:
    """A ball from its x, ytop and ybot given as ratios (n, d)."""
    scale = math.lcm(*(d for _, d in ratios))
    return HandleBall(handle, *(n * (scale // d) for n, d in ratios), scale)


def _scan_points(text: str, line: int) -> tuple[tuple[Point, ...], int]:
    """The points of the tokens `(x,y) ...` as integers over their lcm, and the lcm.

    One pattern checks the whole text; the coordinates are then the words
    left between its brackets and commas.  Text that the pattern refuses,
    or that holds a number too long to convert or a zero denominator, is
    read token by token by `_parse_points`, which words the error."""
    if _POINTS.match(text):
        words = text.replace("(", " ").replace(")", " ").replace(",", " ").split()
        try:
            if "/" not in text and "." not in text:
                ints = map(int, words)
                return tuple(zip(ints, ints)), 1
            return _points_over_lcm([(int(w), 1) if "/" not in w and "." not in w
                                     else _ratio(*_COORDS.match(w).groups()) for w in words])
        except (ValueError, ZeroDivisionError):
            pass
    return _points_over_lcm(list(_parse_points(text, line)))


def _parse_points(text: str, line: int) -> Iterator[tuple[int, int]]:
    """The coordinates of the tokens `(x,y) ...`, as ratios x0, y0, x1, y1, ..."""
    for tok in text.split():
        if not (tok.startswith("(") and tok.endswith(")")):
            raise FrontParseError(f"expected (x,y), got {tok!r}", line)
        x, comma, y = tok[1:-1].partition(",")
        if not comma:
            raise FrontParseError(f"expected (x,y), got {tok!r}", line)
        yield parse_ratio(x, line)
        yield parse_ratio(y, line)


def json_object(obj: object, what: str, keys: tuple[str, ...]) -> dict:
    """obj, a JSON object with no key but `keys`: a key that names nothing is refused."""
    unknown = [key for key in obj.keys() if key not in keys]  # no keys(): ill-typed
    if unknown:
        raise FrontParseError(f"unknown key {unknown[0]!r} in {what}")
    return obj


def json_list(obj: object, what: str) -> list:
    """obj, a JSON array: a string would iterate as its characters."""
    if type(obj) is not list:
        raise TypeError(f"{what} is not a list")
    return obj


@contextmanager
def reading_doc(what: str, error: type[Exception]) -> Iterator[None]:
    """Raise a missing or ill-typed field of a JSON document as `error`."""
    try:
        yield
    except InputError:
        raise
    except KeyError as exc:
        raise error(f"{what} is missing key {exc}") from None
    except (TypeError, IndexError, AttributeError, ValueError) as exc:
        raise error(f"{what} has an ill-typed field: {exc}") from None


def parse_front(text: str) -> FrontDiagram:
    """Parse the line grammar, or the JSON equivalent if text starts with '{'."""
    if text.lstrip().startswith("{"):
        # numbers with a fraction part stay strings, for parse_ratio
        return front_from_doc(load_json(text, FrontParseError, parse_float=str))
    builder = FrontBuilder()
    for lineno, line in numbered_lines(text):
        if not builder.statement(line, lineno):
            raise FrontParseError(f"unknown statement {line.split()[0]!r}", lineno)
    return builder.build()


def front_doc_statements(doc: object, builder: FrontBuilder) -> None:
    """Walk a JSON front into `builder`'s statement calls."""
    doc = json_object(doc, "front", ("arcs", "handles", "orient", "knottypes"))
    for a in json_list(doc.get("arcs", []), "arcs"):
        a = json_object(a, "arc", ("component", "points"))
        builder.arc(a["component"], partial(_doc_points, a["points"]))
    for h in json_list(doc.get("handles", []), "handles"):
        h = json_object(h, "handle", ("id", "balls"))
        for ball in json_list(h["balls"], "balls"):
            builder.handle(h["id"], ((key, str(v)) for key, v in ball.items()))
    for comp, sign in doc.get("orient", {}).items():
        builder.orient(comp, sign)
    for comp, knot in doc.get("knottypes", {}).items():
        builder.knottype(comp, knot)


def _doc_points(points: object) -> tuple[tuple[Point, ...], int]:
    """A JSON list of [x, y] points as integers over their lcm, and the lcm."""
    ratios = []
    for point in json_list(points, "points"):
        x, y = json_list(point, "point")
        ratios += parse_ratio(str(x)), parse_ratio(str(y))
    return _points_over_lcm(ratios)


def front_from_doc(doc: dict) -> FrontDiagram:
    """Diagram from its JSON document; a missing or ill-typed field is a FrontParseError."""
    builder = FrontBuilder()
    with reading_doc("front document", FrontParseError):
        front_doc_statements(doc, builder)
    return builder.build()


def _spelled(pts: Iterable[Point], scale: int) -> list[tuple[str, str]]:
    return [(fmt_ratio(x, scale), fmt_ratio(y, scale)) for x, y in pts]


def front_to_doc(d: FrontDiagram) -> dict:
    handles: dict[str, list[dict]] = {}
    for ball in d.balls:
        x, ytop, ybot = (fmt_ratio(v, ball.scale) for v in (ball.x, ball.ytop, ball.ybot))
        handles.setdefault(ball.handle, []).append({"x": x, "ytop": ytop, "ybot": ybot})
    return {
        "arcs": [
            {"component": a.component, "points": [list(p) for p in _spelled(a.points, a.scale)]}
            for a in d.arcs
        ],
        "handles": [{"id": name, "balls": balls} for name, balls in handles.items()],
        "orient": {comp: ("+" if s == 1 else "-") for comp, s in d.orientations},
        "knottypes": dict(d.knottypes),
    }


def front_to_text(d: FrontDiagram) -> str:
    lines: list[str] = []
    for a in d.arcs:
        pts = " ".join(f"({x},{y})" for x, y in _spelled(a.points, a.scale))
        lines.append(f"arc {a.component} : {pts}")
    for ball in d.balls:
        x, ytop, ybot = (fmt_ratio(v, ball.scale) for v in (ball.x, ball.ytop, ball.ybot))
        lines.append(f"handle {ball.handle} : x={x} ytop={ytop} ybot={ybot}")
    for comp, s in d.orientations:
        lines.append(f"orient {comp} {'+' if s == 1 else '-'}")
    for comp, name in d.knottypes:
        lines.append(f"knottype {comp} {name}")
    return "\n".join(lines) + "\n"
