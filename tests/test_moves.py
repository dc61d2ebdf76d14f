"""Diagram-move search on shadows of front components.

The workhorse property runs 128 kink-garland unknots: k teardrop loops
strung on a closed strand, with jittered depths, spacings, and both
orientations.  Every variant must certify as an unknot in exactly k
kink-removal moves, and all variants of the same k must canonicalize to
the same code.
"""

import random
from fractions import Fraction

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
    assert len(s.faces()) == s.crossing_count() + 2


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


@pytest.mark.parametrize("k,budget,most", [(3, 2000, 250), (5, 1, 20)])
def test_search_builds_only_the_states_it_pops(monkeypatch, k, budget, most):
    """Finger and removal children are built when popped, not when generated."""
    start = moves.shadow_of_component(
        front.parse_front(garland_text(k, Fraction(1, 2), 5, "+")), "G"
    )
    built = []
    init = moves.Shadow.__init__

    def counted_init(self, vertices, theta):
        built.append(len(vertices))
        init(self, vertices, theta)

    monkeypatch.setattr(moves.Shadow, "__init__", counted_init)
    moves.search_unknot(start, budget)
    assert len(built) <= most


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


def test_two_splice_finger_matches_eight_splice_oracle(load, monkeypatch):
    """Every finger move on a set of states that does not depend on the search
    order, and on 40 seeded picks among their finger children, gives the same
    children in the same order as the eight-splice enumeration.  The states are
    those the exhausted searches expand (a search that empties its queue expands
    every state below its cap, whatever the order), each case's start, and every
    state one finger move from a start."""
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
    states = {s.canonical_code(): s for s in expanded + near}
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
