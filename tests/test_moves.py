"""Diagram-move search on shadows of front components.

The workhorse property runs 128 kink-garland unknots: k teardrop loops
strung on a closed strand, with jittered depths, spacings, and both
orientations.  Every variant must certify as an unknot in exactly k
kink-removal moves, and all variants of the same k must canonicalize to
the same code.
"""

import heapq
import itertools
import random
import re
from fractions import Fraction
from functools import cmp_to_key

import pytest

from corktwist import front, kirby, moves


def garland_text(k: int, depth: Fraction, spacing: int, orient: str) -> str:
    pts = ["(0,0)"]
    a = 1
    for _ in range(k):
        pts += [
            f"({a},1)",
            f"({a + 3},{-2 - depth})",
            f"({a + 1},{-3 - depth})",
            f"({a + 4},1)",
        ]
        a += spacing
    end_x = a - spacing + 4
    pts.append(f"({end_x + 1},0)")
    return (
        "arc G : " + " ".join(pts) + "\n"
        f"arc G : ({end_x + 1},0) ({end_x + 2},5) (-1,5) (0,0)\n"
        f"orient G {orient}\n"
    )


DEPTHS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
          Fraction(1, 5), Fraction(3, 4), Fraction(1), Fraction(5, 4)]


def test_garland_unknots_certify_in_k_kink_moves():
    codes: dict[int, set] = {}
    count = 0
    for k in (1, 2, 3, 4):
        for depth in DEPTHS:
            for spacing in (5, 6):
                for orient in ("+", "-"):
                    d = front.parse_front(garland_text(k, depth, spacing, orient))
                    shadow = moves.shadow_of_component(d, "G")
                    assert shadow.crossing_count() == k
                    codes.setdefault(k, set()).add(shadow.canonical_code())
                    count += 1
                    cert = moves.unknot_certificate(d, "G")
                    assert cert["verdict"] == "unknot"
                    assert len(cert["moves"]) == k
                    assert all(m.startswith("remove kink") for m in cert["moves"])
    assert count == 128
    # geometry varies, topology does not
    for k, seen in codes.items():
        assert len(seen) == 1, f"garland with {k} kinks canonicalized {len(seen)} ways"


def test_shadow_euler_count(load):
    d = front.parse_front(load("trefoil.front"))
    s = moves.shadow_of_component(d, "K")
    assert s.crossing_count() == 3
    assert len(s._faces) == s.crossing_count() + 2


def test_trefoil_fixture_inconclusive(load):
    d = front.parse_front(load("trefoil.front"))
    cert = moves.unknot_certificate(d, "K", budget=400)
    assert cert["verdict"] == "inconclusive"
    assert cert["moves"] is None
    assert cert["expanded"] > 0


def test_budget_zero_is_inconclusive(load):
    d = front.parse_front(load("trefoil.front"))
    cert = moves.unknot_certificate(d, "K", budget=0)
    assert cert["verdict"] == "inconclusive"
    assert cert["expanded"] == 0


def test_handle_passes_outside_search(load):
    d = front.parse_front(load("trefoil_handle.front"))
    cert = moves.unknot_certificate(d, "K")
    assert cert["verdict"] == "inconclusive"
    assert "1-handle" in cert["note"]


def test_search_start_above_the_limit_is_inconclusive(load, monkeypatch):
    """A component with more self-crossings than MAX_SEARCH_CROSSINGS is not
    searched: it stays inconclusive, with the reason in the note, and is never
    called knotted.  The limit is lowered to the garland's 4 crossings, which
    are searched, and then to 3, so nothing large is built; past the limit
    the component's crossings are counted and no map is built."""
    assert moves.MAX_SEARCH_CROSSINGS >= 16  # every pinned search still runs
    d, comp = _search_case(load, "garland4")
    monkeypatch.setattr(moves, "MAX_SEARCH_CROSSINGS", 4)
    assert moves.unknot_certificate(d, comp)["verdict"] == "unknot"

    def refuse(*_):
        raise AssertionError("called past the limit")

    monkeypatch.setattr(moves, "MAX_SEARCH_CROSSINGS", 3)
    monkeypatch.setattr(moves, "search_unknot", refuse)
    monkeypatch.setattr(moves, "shadow_of_component", refuse)
    cert = moves.unknot_certificate(d, comp)
    assert (cert["verdict"], cert["moves"], cert["expanded"], cert["self_crossings"]) == (
        "inconclusive", None, 0, 4
    )
    assert cert["note"] == "self-crossing count 4 exceeds the 3 a search may start from"


def test_crossingless_component_is_trivially_unknotted(load):
    d = front.parse_front(load("lens.front"))
    cert = moves.unknot_certificate(d, "U")
    assert cert["verdict"] == "unknot"
    assert cert["moves"] == []


# two clasped strands forming a bigon on an unknot
CLASPED_BIGON = (
    "arc B : (0,0) (3,2) (6,-2) (9,2) (12,0)\n"
    "arc B : (12,0) (9,-2) (6,2) (3,-2) (0,0)\n"
    "orient B +\n"
)


def test_search_removes_bigons():
    d = front.parse_front(CLASPED_BIGON)
    shadow = moves.shadow_of_component(d, "B")
    if shadow.crossing_count() == 0:
        pytest.skip("geometry collapsed to no crossings")
    cert = moves.unknot_certificate(d, "B")
    assert cert["verdict"] == "unknot"


def test_removals_check_their_sites(load):
    """remove_kink and remove_bigon refuse a site the shadow does not carry;
    the search applies the sites it reads off a state without this check.
    Removing a finger move's bigon gives back the shadow it was pushed on."""
    garland = moves.shadow_of_component(*_search_case(load, "garland2"))
    v, w = garland.kink_sites()
    assert garland.remove_kink(v).crossing_count() == 1
    with pytest.raises(moves.ShadowError, match="carries no kink"):
        garland.remove_kink(max(garland.vertices) + 1)
    with pytest.raises(moves.ShadowError, match="bound no removable bigon"):
        garland.remove_bigon(v, w)
    trefoil = moves.shadow_of_component(*_search_case(load, "trefoil"))
    pv = max(trefoil.vertices) + 1
    child = trefoil.push_finger(*trefoil.finger_moves()[0])[0]
    assert child.remove_bigon(pv, pv + 1).canonical_code() == trefoil.canonical_code()
    with pytest.raises(moves.ShadowError, match="carries no kink"):
        child.remove_kink(pv)


EXHAUSTED = "move set exhausted below the crossing cap without reduction"


def _kinks(k):
    return ["remove kink at crossing 0"] * k


# (case, budget, (verdict, expanded, moves, note))
SEARCH_OUTCOMES = [
    ("garland1", 2000, ("unknot", 1, _kinks(1), None)),
    ("garland2", 2000, ("unknot", 2, _kinks(2), None)),
    ("garland3", 2000, ("unknot", 3, _kinks(3), None)),
    ("garland4", 2000, ("unknot", 4, _kinks(4), None)),
    ("garland4", 10, ("unknot", 4, _kinks(4), None)),
    ("garland10", 2000, ("unknot", 10, _kinks(10), None)),
    ("garland16", 2000, ("unknot", 16, _kinks(16), None)),
    ("bigon", 2000, ("unknot", 2, _kinks(2), None)),
    ("trefoil", 2000, ("inconclusive", 4, None, EXHAUSTED)),
    ("knotted:K1", 2000, ("inconclusive", 4, None, EXHAUSTED)),
    ("knotted:K2", 2000, ("inconclusive", 4, None, EXHAUSTED)),
    # budgets at the edges of the lazy search: a stop needs an unseen popped state,
    # so a garland of k kinks is certified on a budget of k and not of k - 1
    ("garland5", 2000, ("unknot", 5, _kinks(5), None)),
    ("garland5", 64, ("unknot", 5, _kinks(5), None)),
    ("garland5", 63, ("unknot", 5, _kinks(5), None)),
    ("garland5", 5, ("unknot", 5, _kinks(5), None)),
    ("garland5", 4, ("inconclusive", 4, None, "search budget exhausted")),
    ("garland4", 34, ("unknot", 4, _kinks(4), None)),
    ("garland4", 4, ("unknot", 4, _kinks(4), None)),
    ("garland4", 3, ("inconclusive", 3, None, "search budget exhausted")),
    ("garland3", 13, ("unknot", 3, _kinks(3), None)),
    ("garland3", 3, ("unknot", 3, _kinks(3), None)),
    ("garland3", 2, ("inconclusive", 2, None, "search budget exhausted")),
    ("trefoil", 4, ("inconclusive", 4, None, EXHAUSTED)),
    ("trefoil", 3, ("inconclusive", 3, None, "search budget exhausted")),
    ("knotted:K1", 3, ("inconclusive", 3, None, "search budget exhausted")),
    ("bigon", 1, ("inconclusive", 1, None, "search budget exhausted")),
]


def _search_case(load, case):
    """The front and component a pinned search case names."""
    if case.startswith("garland"):
        return front.parse_front(garland_text(int(case[7:]), Fraction(1, 2), 5, "+")), "G"
    if case == "bigon":
        return front.parse_front(CLASPED_BIGON), "B"
    if case == "trefoil":
        return front.parse_front(load("trefoil.front")), "K"
    return kirby.parse_kirby(load("knotted.kirby")).front, case.split(":")[1]


@pytest.mark.parametrize(
    "case,budget,outcome", SEARCH_OUTCOMES, ids=[f"{c}-{b}" for c, b, _ in SEARCH_OUTCOMES]
)
def test_search_outcome_is_pinned(load, case, budget, outcome):
    """Verdict, states expanded, move strings and stop note of fixed searches."""
    d, comp = _search_case(load, case)
    cert = moves.unknot_certificate(d, comp, budget=budget)
    assert (cert["verdict"], cert["expanded"], cert["moves"], cert["note"]) == outcome


def test_search_is_deterministic(load, monkeypatch):
    """Two searches from equal shadows expand the same states in the same order
    and return the same outcome.  The start, a finger child of the trefoil,
    has many queue entries of equal crossing count and depth, so the heap
    orders them by their places alone; comparing two Shadows, which define
    no order, would raise."""
    popped = []
    kink_sites = moves.Shadow.kink_sites

    def recorded(self):
        popped.append(self.canonical_code())
        return kink_sites(self)

    monkeypatch.setattr(moves.Shadow, "kink_sites", recorded)
    runs = []
    for _ in range(2):
        trefoil = moves.shadow_of_component(*_search_case(load, "trefoil"))
        start = next(c for move in trefoil.finger_moves() for c in trefoil.push_finger(*move))
        popped.clear()
        runs.append((moves.search_unknot(start, 200), list(popped)))
    assert runs[0] == runs[1]
    assert runs[0][0]["expanded"] == 200


@pytest.mark.parametrize("k,budget,most", [(3, 2000, 250), (5, 1, 20), ("trefoil", 2000, 8)])
def test_search_builds_only_the_states_it_pops(load, monkeypatch, k, budget, most):
    """Finger and removal children are built when popped, not when generated;
    both constructors are counted, the full walk and the derivation from a
    parent, and the start is not.  The exhausted trefoil search lists one
    finger move per orbit of the shadow's six symmetries, builds a mirrored
    splice only where it is planar, and never queues the removal that undoes
    a finger move: it builds 8 Shadows, all planar.  Listing all 36 finger
    moves of the start built 77; building both splices of each listed move
    and every removal built 17, 6 of them rejected as not planar."""
    start = moves.shadow_of_component(
        *_search_case(load, k if k == "trefoil" else f"garland{k}")
    )
    built = []
    init, derive = moves.Shadow.__init__, moves.Shadow._derive

    def counted_init(self, vertices, theta):
        built.append(len(vertices))
        init(self, vertices, theta)

    def counted_derive(self, theta, *args, **kwargs):
        built.append(len(theta) // 4)
        return derive(self, theta, *args, **kwargs)

    monkeypatch.setattr(moves.Shadow, "__init__", counted_init)
    monkeypatch.setattr(moves.Shadow, "_derive", counted_derive)
    moves.search_unknot(start, budget)
    assert len(built) <= most


# -- the shadow of a front, against the comparator sorts it replaced -----------


def _angle_cmp(v1, v2) -> int:
    """Counterclockwise order of direction vectors, starting at east."""

    def quadrant(v) -> int:
        dx, dy = v
        if dx > 0 and dy >= 0:
            return 0
        if dx <= 0 and dy > 0:
            return 1
        if dx < 0 and dy <= 0:
            return 2
        return 3

    q1, q2 = quadrant(v1), quadrant(v2)
    if q1 != q2:
        return -1 if q1 < q2 else 1
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _strand_order(v, w) -> int:
    """Order two visits by segment index, then by parameter t/den, cross-multiplied."""
    (i, t, d), (j, u, e) = v[0], w[0]
    if i != j:
        return -1 if i < j else 1
    return (t * e > u * d) - (t * e < u * d)


def _reference_shadow(d, comp):
    """The vertices and theta of a component's shadow, with each crossing's
    four ends sorted by angle and the strand's visits by parameter."""
    crossings = [
        c for c in d.crossings() if c.over_component == comp and c.under_component == comp
    ]
    # each visit's place along the strand is (segment index, t, den): parameter t/den
    visits = []
    for i, c in enumerate(crossings):
        visits.append((c.over_at[1:], i, "over"))
        visits.append((c.under_at[1:], i, "under"))
    visits.sort(key=cmp_to_key(_strand_order))
    vertices = {}
    dart_ids = {}
    for i, c in enumerate(crossings):
        u, v = c.over_dir, c.under_dir
        labelled = [
            ((-u[0], -u[1]), (i, "over", "in")),
            (u, (i, "over", "out")),
            ((-v[0], -v[1]), (i, "under", "in")),
            (v, (i, "under", "out")),
        ]
        labelled.sort(key=cmp_to_key(lambda a, b: _angle_cmp(a[0], b[0])))
        ends = []
        over_parity = None
        for k, (_, tag) in enumerate(labelled):
            dart = 4 * i + k
            dart_ids[tag] = dart
            ends.append(dart)
            if tag[1] == "over":
                over_parity = k % 2
        vertices[i] = moves._Vertex(tuple(ends), over_parity)
    theta = {}
    for k, (_, ci, role) in enumerate(visits):
        _, cj, role_next = visits[(k + 1) % len(visits)]
        a = dart_ids[(ci, role, "out")]
        b = dart_ids[(cj, role_next, "in")]
        theta[a] = b
        theta[b] = a
    return vertices, theta


def _redrawn(text, sx, sy, dx, dy, orient):
    """text with each point (x,y) moved to (sx x + dx, sy y + dy) and every
    component oriented `orient`: the same front, stretched, mirrored or moved."""
    text = re.sub(
        r"\(([^,()]+),([^,()]+)\)",
        lambda m: f"({sx * Fraction(m[1]) + dx},{sy * Fraction(m[2]) + dy})",
        text,
    )
    return re.sub(r"^orient (\S+) [+-]$", rf"orient \1 {orient}", text, flags=re.M)


def _random_polygon(rng):
    """A closed polygon of 4 to 8 points on a small grid, no edge vertical;
    on a grid of 5 rows, many edges are horizontal."""
    while True:
        pts = [(rng.randint(0, 8), rng.randint(0, 4)) for _ in range(rng.randint(4, 8))]
        if all(p[0] != q[0] for p, q in zip(pts, pts[1:] + pts[:1])):
            spelled = " ".join(f"({x},{y})" for x, y in pts + pts[:1])
            return f"arc P : {spelled}\norient P {rng.choice('+-')}\n"


def test_shadow_of_component_matches_the_comparator_sorts(load):
    """Each crossing's rotation, read off its sign, and the strand order, read
    off integer keys, give the vertices and theta of the comparator sorts on
    every fixture component, on stretched, mirrored and moved garlands,
    bigons and trefoils in both orientations, on LHP(n), and on random
    polygons, many with a horizontal strand at a crossing.  The sign read
    off each vertex, +1 when the next counterclockwise end after its over
    arrival is its under arrival, is its crossing's sign."""
    rng = random.Random(20110411)
    fronts = []
    for name in ("lens.front", "trefoil.front", "trefoil_handle.front"):
        fronts.append(front.parse_front(load(name)))
    for name in ("hopf.kirby", "knotted.kirby", "mazur.kirby"):
        d = kirby.parse_kirby(load(name))
        fronts += [d.front, d.stein_front]
    shapes = [garland_text(k, rng.choice(DEPTHS), rng.choice((5, 6)), "+") for k in range(1, 7)]
    shapes += [CLASPED_BIGON, load("trefoil.front")]
    for text in shapes:
        for orient in "+-":
            for _ in range(2):
                sx, sy = rng.choice((1, 2, 3, -1)), rng.choice((1, Fraction(1, 3), -2))
                dx, dy = rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7)))
                fronts.append(front.parse_front(_redrawn(text, sx, sy, dx, dy, orient)))
    fronts += [kirby.linked_handle_pair(n).front for n in (2, 3, 8, 17)]
    random_crossings = horizontal = 0
    while random_crossings < 1500:
        try:
            d = front.parse_front(_random_polygon(rng))
            d.crossings()
        except front.FrontGeometryError:
            continue  # touching or overlapping edges, or a triple point
        fronts.append(d)
        random_crossings += len(d.crossings())
        horizontal += sum(0 in (c.over_dir[1], c.under_dir[1]) for c in d.crossings())
    assert horizontal > 150, horizontal
    compared = 0
    for d in fronts:
        for comp in d.components():
            got = moves.shadow_of_component(d, comp)
            assert (got.vertices, got.theta) == _reference_shadow(d, comp), front.front_to_text(d)
            own = [c for c in d.crossings() if c.over_component == comp == c.under_component]
            arrival = {(got._vertex[e], got._over[e]): e for e in got._arrivals}
            assert [
                1 if got._ccw[arrival[i, True]] == arrival[i, False] else -1
                for i in range(len(own))
            ] == [c.sign for c in own], front.front_to_text(d)
            compared += got.crossing_count()
    assert compared > 1600, compared


def _all_eight_splices(s, x, y, over):
    """The enumeration `Shadow.push_finger` replaced, kept as its oracle: codes of
    the distinct valid splices over both rotations of each new crossing and
    both orders in which the finger meets the crossed edge."""
    xp, yp = s.theta[x], s.theta[y]
    fresh = max(s.theta) + 1
    b_y, f_a, b_q, f_t, c_p, g_t, c_y2, g_a = range(fresh, fresh + 8)
    pv = max(s.vertices) + 1
    qv = pv + 1
    codes = []
    for p_ends in ((b_y, f_a, b_q, f_t), (b_y, f_t, b_q, f_a)):
        for q_ends in ((c_p, g_t, c_y2, g_a), (c_p, g_a, c_y2, g_t)):
            for chain in (((x, f_a), (f_t, g_t), (g_a, xp)), ((x, g_a), (g_t, f_t), (f_a, xp))):
                vertices = dict(s.vertices)
                vertices[pv] = moves._Vertex(p_ends, 1 if over else 0)
                vertices[qv] = moves._Vertex(q_ends, 1 if over else 0)
                theta = dict(s.theta)
                for a, b in chain + ((y, b_y), (b_q, c_p), (c_y2, yp)):
                    theta[a], theta[b] = b, a
                try:
                    cand = moves.Shadow(vertices, theta)
                except moves.ShadowError:
                    continue
                if (pv, qv) in cand.bigon_sites() and cand.canonical_code() not in codes:
                    codes.append(cand.canonical_code())
    return codes


ORACLE_CASES = ["garland1", "garland2", "garland3", "trefoil", "bigon", "knotted:K1", "knotted:K2"]


def _oracle_states(load, monkeypatch):
    """A set of states that does not depend on the search order, by code: those
    the exhausted searches expand (a search that empties its queue expands
    every state below its cap, whatever the order), each case's start, and
    every state one finger move from a start."""
    expanded = []
    kink_sites = moves.Shadow.kink_sites

    def recorded(self):  # the search asks each state it expands for its kinks
        expanded.append(self)
        return kink_sites(self)

    monkeypatch.setattr(moves.Shadow, "kink_sites", recorded)
    for case in ("trefoil", "knotted:K1", "knotted:K2"):
        outcome = moves.search_unknot(moves.shadow_of_component(*_search_case(load, case)), 2000)
        assert outcome["queue_emptied"]
    monkeypatch.undo()
    near = []  # each start and every state one finger move from it
    for case in ORACLE_CASES:
        start = moves.shadow_of_component(*_search_case(load, case))
        near += [start] + [c for move in start.finger_moves() for c in start.push_finger(*move)]
    return {s.canonical_code(): s for s in expanded + near}


def test_two_splice_finger_matches_eight_splice_oracle(load, monkeypatch):
    """Every finger move on the oracle states, and on 40 seeded picks among
    their finger children, gives the same children in the same order as the
    eight-splice enumeration."""
    states = _oracle_states(load, monkeypatch)
    children = {}
    tested = doubles = 0

    def check(s):
        nonlocal tested, doubles
        for move in s.finger_moves():
            got = s.push_finger(*move)
            assert [c.canonical_code() for c in got] == _all_eight_splices(s, *move)
            tested += 1
            doubles += len(got) == 2
            children.update((c.canonical_code(), c) for c in got)

    for s in states.values():
        check(s)
    for code in random.Random(20110411).sample(sorted(children.keys() - states.keys()), 40):
        check(children[code])
    assert tested > 8000 and doubles > 0, (tested, doubles)


def _spliced_theta(s, dead):
    """The edge pairing once the vertices `dead` are removed, spliced along the
    full strand orbit: the construction the derived removal replaced."""
    kept = [(e, s._opp[e]) for e in s.strand_orbit(min(s.theta))
            if s._vertex[e] not in dead]
    theta = {}
    for (_, exit_dart), (arrival, _) in zip(kept, kept[1:] + kept[:1]):
        theta[exit_dart], theta[arrival] = arrival, exit_dart
    return theta


def test_derived_shadows_match_the_full_walk(load, monkeypatch):
    """A finger splice or a removal derives its result from its parent.  On
    every oracle state, each splice and each removal result equals the shadow
    that `Shadow(vertices, theta)` builds with the full walk: the same
    orientation, the same faces in the same order and the same per-dart
    tables.  A splice that the full walk rejects is rejected or never
    built, and the rule push_finger builds by holds: the first splice is always
    planar, and the mirrored one exactly when the mates of x and y share a face."""
    states = _oracle_states(load, monkeypatch)
    splices = removals = mirrored = 0
    for s in states.values():
        face_of = {d: face for face in s._faces for d in face}
        for x, y, over in s.finger_moves():
            xp, yp = s.theta[x], s.theta[y]
            fresh = max(s.theta) + 1
            b_y, f_a, b_q, f_t, c_p, g_t, c_y2, g_a = range(fresh, fresh + 8)
            pv = max(s.vertices) + 1
            theta = dict(s.theta)
            for a, b in ((x, g_a), (g_t, f_t), (f_a, xp), (y, b_y), (b_q, c_p), (c_y2, yp)):
                theta[a], theta[b] = b, a
            derived = {c.vertices[pv].ends: c for c in s._finger_splices(x, y, over)}
            rotations = (((b_y, f_a, b_q, f_t), (c_p, g_a, c_y2, g_t)),
                         ((b_y, f_t, b_q, f_a), (c_p, g_t, c_y2, g_a)))
            full = {}
            for p_ends, q_ends in rotations:
                vertices = dict(s.vertices)
                vertices[pv] = moves._Vertex(p_ends, 1 if over else 0)
                vertices[pv + 1] = moves._Vertex(q_ends, 1 if over else 0)
                try:
                    full[p_ends] = moves.Shadow(vertices, theta)
                except moves.ShadowError:
                    assert p_ends not in derived
            assert list(full) == [p for p, _ in rotations][: 2 if yp in face_of[xp] else 1]
            assert list(derived) == list(full)
            assert [vars(c) for c in derived.values()] == [vars(c) for c in full.values()]
            splices += len(full)
            mirrored += len(full) == 2
        sites = [{v} for v in s.kink_sites()] + [set(pair) for pair in s.bigon_sites()]
        for dead in sites:
            got = s._without(dead)
            assert got.theta == _spliced_theta(s, dead)
            assert vars(got) == vars(moves.Shadow(got.vertices, got.theta))
            removals += 1
    assert splices > 3000 and mirrored > 400 and removals > 80, (splices, mirrored, removals)


# -- automorphisms and the search once per orbit ------------------------------


def _rotations(s):
    return {v.ends[i:] + v.ends[:i] for v in s.vertices.values() for i in range(4)}


def _keeps_over_bits(s, sigma):
    return all(s._over[d] == s._over[sigma[d]] for d in sigma)


def _respects_the_map(s, sigma):
    """sigma is a bijection of the darts that commutes with theta, keeps over
    bits and carries each vertex's ends to a vertex's ends counterclockwise."""
    assert sorted(sigma) == sorted(sigma.values()) == sorted(s.theta)
    assert all(sigma[s.theta[d]] == s.theta[sigma[d]] for d in sigma)
    assert _keeps_over_bits(s, sigma)
    assert _turns(s, sigma, clockwise=False)


def _walk_map(s, base, start):
    """The dart map sending the strand walk from `base` onto the walk from `start`."""
    sigma = {}
    for a, b in zip(s.strand_orbit(base), s.strand_orbit(start)):
        sigma[a], sigma[s._opp[a]] = b, s._opp[b]
    return sigma


def _turns(s, sigma, clockwise):
    """sigma carries each vertex's ends to a vertex's ends, in clockwise or
    counterclockwise order."""
    return all(tuple(sigma[e] for e in (v.ends[::-1] if clockwise else v.ends)) in _rotations(s)
               for v in s.vertices.values())


def test_trefoil_automorphisms_form_its_symmetry_group(load):
    s = moves.shadow_of_component(*_search_case(load, "trefoil"))
    maps = s.automorphisms()
    assert len(maps) == 5
    identity = {d: d for d in s.theta}
    for sigma in maps:
        _respects_the_map(s, sigma)
        assert sigma != identity
    group = {tuple(sorted(m.items())) for m in [identity] + maps}
    assert len(group) == 6
    for f in group:
        for g in group:
            f_of_g = {d: dict(f)[e] for d, e in g}
            assert tuple(sorted(f_of_g.items())) in group


@pytest.mark.parametrize("case", ["garland2", "garland3", "garland4", "garland5", "bigon"])
def test_garland_automorphisms_respect_the_map(load, case):
    s = moves.shadow_of_component(*_search_case(load, case))
    for sigma in s.automorphisms():
        _respects_the_map(s, sigma)
    # a garland of k kinks on the sphere turns onto itself k ways
    assert len(s.automorphisms()) == (int(case[7:]) - 1 if case != "bigon" else 1)


@pytest.mark.parametrize("case,flip,clockwise,keeps_over_bits", [
    ("trefoil", None, True, False),
    ("garland2", 1, True, True),
    ("trefoil", 1, False, False),
], ids=["mirror", "mirror-keeping-over-bits", "rotation-flipping-over-bits"])
def test_forged_tie_is_rejected(load, case, flip, clockwise, keeps_over_bits):
    """A start recorded as a tie whose walk map is not an automorphism is never
    used.  The stand-in is a shadow of `case`, with the crossing `flip` given
    the other over bit, whose ties are forged to every start that gives a map
    of the asked kind: each is rejected by a different part of the check.  The
    trefoil's mirror both turns clockwise and flips over bits; the flipped
    garland's mirror keeps theta and the over bits, so only the rotations tell;
    the flipped trefoil's turns keep the rotations, so only the over bits tell."""
    s = moves.shadow_of_component(*_search_case(load, case))
    if flip is not None:
        vertices = dict(s.vertices)
        vertices[flip] = moves._Vertex(s.vertices[flip].ends, 1 - s.vertices[flip].over_parity)
        s = moves.Shadow(vertices, s.theta)
    s.canonical_code()
    base = min(s.theta)
    forged = []
    for start in sorted(s.theta):
        sigma = _walk_map(s, base, start)
        if _turns(s, sigma, clockwise) and _keeps_over_bits(s, sigma) == keeps_over_bits:
            forged.append(start)
    assert forged
    s._ties = (base, *forged)
    assert s.automorphisms() == []
    assert len(s.finger_orbits()) == len(s.finger_moves())


def test_check_rejects_a_map_that_breaks_theta(load):
    """A walk map always commutes with theta; this map keeps the rotations and
    the over bits but turns one kink's vertex half round, so its loop edge
    goes to a pair of ends that no edge joins."""
    s = moves.shadow_of_component(*_search_case(load, "garland2"))
    sigma = {d: d for d in s.theta}
    ends = s.vertices[1].ends
    sigma.update((e, ends[(i + 2) % 4]) for i, e in enumerate(ends))
    assert _turns(s, sigma, clockwise=False) and _keeps_over_bits(s, sigma)
    assert not s._is_automorphism(sigma)


def _unpruned_search(start, budget):
    """search_unknot as it was before finger moves were listed once per
    orbit and before a finger move's undoing was left out, kept as the
    oracle: the ("fingers",) entry lists every finger move, and every
    removal is queued.  Like the search, it applies a removal without
    asking the state for its sites again, so each state asked for its kinks
    is a state expanded."""
    if start.crossing_count() == 0:
        return {"found": True, "moves": [], "expanded": 0, "queue_emptied": False}
    cap = start.crossing_count() + 2
    seen = set()
    heap = [(start.crossing_count(), 0, (0,), start, (), None)]
    order = itertools.count(1)
    expanded = 0
    while heap:
        crossings, depth, place, state, path, move = heapq.heappop(heap)
        if move is not None:
            kind, *sites = move
            if kind in ("fingers", "finger"):
                if kind == "fingers":
                    stand_ins = [(state, path, ("finger", *f)) for f in state.finger_moves()]
                else:
                    n, over = state.crossing_count(), sites[2]
                    child_path = path + (
                        f"push {'over' if over else 'under'} finger, {n} to {n + 2} crossings",
                    )
                    stand_ins = [(child, child_path, None) for child in state.push_finger(*sites)]
                for j, entry in enumerate(stand_ins):
                    heapq.heappush(heap, (crossings, depth, place + (j,), *entry))
                continue
            state = state._without(set(sites))
        code = state.canonical_code()
        if code in seen:
            continue
        seen.add(code)
        if expanded >= budget:
            return {"found": False, "moves": None, "expanded": expanded, "queue_emptied": False}
        expanded += 1
        removals = [
            (f"remove kink at crossing {state.vertex_label(vid)}", ("kink", vid))
            for vid in state.kink_sites()
        ] + [
            (
                f"remove bigon between crossings {state.vertex_label(v1)} and {state.vertex_label(v2)}",
                ("bigon", v1, v2),
            )
            for v1, v2 in state.bigon_sites()
        ]
        for describe, removal in removals:
            if len(removal) - 1 == crossings:
                return {"found": True, "moves": list(path) + [describe],
                        "expanded": expanded, "queue_emptied": False}
            heapq.heappush(heap, (
                crossings - (len(removal) - 1), depth + 1, (next(order),),
                state, path + (describe,), removal,
            ))
        if crossings + 2 <= cap:
            heapq.heappush(heap, (crossings + 2, depth + 1, (next(order),), state, path, ("fingers",)))
    return {"found": False, "moves": None, "expanded": expanded, "queue_emptied": True}


def _oracle_starts(load):
    starts = [
        (case, moves.shadow_of_component(*_search_case(load, case)))
        for case in ("trefoil", "knotted:K1", "knotted:K2",
                     "garland3", "garland4", "garland5", "bigon")
    ]
    trefoil = starts[0][1]
    children = [c for move in trefoil.finger_moves() for c in trefoil.push_finger(*move)]
    # every sixth child covers all three of their canonical codes
    return starts + [(f"trefoil-child{i}", c) for i, c in enumerate(children[::6])]


def test_search_once_per_orbit_matches_unpruned_oracle(load, monkeypatch):
    """Skipping the finger moves that an automorphism carries from an earlier
    one changes nothing the search does: the outcome and the sequence of
    expanded codes equal those of the search that lists every finger move."""
    popped = []
    kink_sites = moves.Shadow.kink_sites

    def recorded(self):  # the search asks each state it expands for its kinks
        popped.append(self.canonical_code())
        return kink_sites(self)

    monkeypatch.setattr(moves.Shadow, "kink_sites", recorded)
    starts = _oracle_starts(load)
    assert len(starts) >= 13
    for name, start in starts:
        for budget in (3, 10, 200, 2000):
            runs = []
            for search in (moves.search_unknot, _unpruned_search):
                popped.clear()
                runs.append((search(start, budget), list(popped)))
            assert runs[0] == runs[1], (name, budget)


# -- the canonical code, against the pruned walk it replaced -------------------


def _signs(
    arrivals, vertex: dict[int, int], over: dict[int, bool], ccw: dict[int, int]
) -> dict[int, int]:
    """Crossing sign of each vertex that the strand reaches at `arrivals`,
    orientation independent: +1 when the under strand arrives at the slot
    after the over strand's, counterclockwise."""
    over_in, under_in = {}, {}
    for e in arrivals:
        (over_in if over[e] else under_in)[vertex[e]] = e
    return {vid: 1 if ccw[e] == under_in[vid] else -1 for vid, e in over_in.items()}


def _pruned_walk_code(self) -> tuple[tuple, dict[int, int], tuple[int, ...]]:
    """Minimal signed over/under code over all starts, with its vertex
    labels and the starts that give it.

    Each entry (label, over, sign) is packed as 4 * label + 2 * over +
    (sign > 0), which orders like the triple.  A start is abandoned as
    soon as its prefix exceeds the best code so far, and a tie keeps the
    earlier start, so the labels are those of the full comparison; the
    starts that tie it are recorded after it, and none when it has no tie.
    Every code opens with 4 * 0 + the low bits of its first step, so only
    the starts whose first step has the least low bits are walked.
    """
    theta, vertex, over = self.theta, self._vertex, self._over
    signs = _signs(self._arrivals, vertex, over, self._ccw)
    positive = {vid: sign > 0 for vid, sign in signs.items()}
    step = {  # dart -> (vertex, low bits, next dart)
        e: (vertex[e], 2 * over[e] + positive[vertex[e]], theta[self._opp[e]]) for e in theta
    }
    best: list[int] = []
    best_labels: dict[int, int] = {}
    ties: list[int] = []
    # each vertex has two under ends, whose low bits are its sign bit
    low = min(positive.values())
    for start in sorted(e for e in theta if not over[e] and positive[vertex[e]] == low):
        labels: dict[int, int] = {}
        code: list[int] = []
        tied = bool(best)  # prefix equal to the best code so far
        cur = start
        while True:
            vid, bits, cur = step[cur]
            entry = 4 * labels.setdefault(vid, len(labels)) + bits
            if tied and entry != best[len(code)]:
                if entry > best[len(code)]:
                    break
                tied = False
            code.append(entry)
            if cur == start:
                if tied:
                    ties.append(start)
                else:
                    best, best_labels, ties = code, labels, [start]
                break
    code = tuple((v >> 2, (v >> 1) & 1, 1 if v & 1 else -1) for v in best)
    return code, best_labels, tuple(ties) if len(ties) > 1 else ()


def _moved(s):
    """Every shadow one kink, bigon or finger move from s."""
    return (
        [s.remove_kink(v) for v in s.kink_sites()]
        + [s.remove_bigon(*pair) for pair in s.bigon_sites()]
        + [c for move in s.finger_moves() for c in s.push_finger(*move)]
    )


def _moved_twice(load, picks):
    """Fixture, garland, bigon, trefoil and random-polygon shadows, every
    shadow one kink, bigon or finger move from one of them, and every shadow
    one move from `picks` seeded picks among those."""
    rng = random.Random(20110411)
    fronts = [front.parse_front(load("trefoil.front"))]
    for name in ("hopf.kirby", "knotted.kirby", "mazur.kirby"):
        d = kirby.parse_kirby(load(name))
        fronts += [d.front, d.stein_front]
    fronts += [front.parse_front(garland_text(k, Fraction(1, 2), 5, "+")) for k in (1, 2, 3)]
    fronts.append(front.parse_front(CLASPED_BIGON))
    while len(fronts) < 20:
        try:
            d = front.parse_front(_random_polygon(rng))
        except front.FrontGeometryError:
            continue
        if 2 <= len(d.crossings()) <= 3:
            fronts.append(d)
    starts = [moves.shadow_of_component(d, comp) for d in fronts for comp in d.components()]
    starts = [s for s in starts if s.crossing_count()]
    once = [c for s in starts for c in _moved(s) if c.crossing_count()]
    twice = [c for s in rng.sample(once, picks) for c in _moved(s) if c.crossing_count()]
    return starts + once + twice


def test_least_rotation_keeps_the_pruned_walk_classes(load):
    """The least partner-gap word splits and merges no class of the pruned
    walk's code it replaced, and each shadow has one checked automorphism
    fewer than the pruned walk found starts that tie its code."""
    sample = _moved_twice(load, 40)
    pairs = set()
    for s in sample:
        old, _, ties = _pruned_walk_code(s)
        pairs.add((s.canonical_code(), old))
        assert len(s.automorphisms()) == max(len(ties), 1) - 1
    assert len({new for new, _ in pairs}) == len({old for _, old in pairs}) == len(pairs)
    assert len(sample) > 4500 and len(pairs) > 750, (len(sample), len(pairs))
