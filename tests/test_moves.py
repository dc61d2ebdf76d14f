"""Diagram-move search on shadows of front components.

The workhorse property runs 128 kink-garland unknots: k teardrop loops
strung on a closed strand, with jittered depths, spacings, and both
orientations.  Every variant must certify as an unknot in exactly k
kink-removal moves, and all variants of the same k must canonicalize to
the same code.
"""

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
    ("garland3", 2000, ("unknot", 14, _kinks(3), None)),
    ("garland4", 2000, ("unknot", 35, _kinks(4), None)),
    ("garland4", 10, ("inconclusive", 10, None, "search budget exhausted")),
    ("bigon", 2000, ("unknot", 2, _kinks(2), None)),
    ("trefoil", 2000, ("inconclusive", 4, None, EXHAUSTED)),
    ("knotted:K1", 2000, ("inconclusive", 4, None, EXHAUSTED)),
    ("knotted:K2", 2000, ("inconclusive", 4, None, EXHAUSTED)),
]


@pytest.mark.parametrize(
    "case,budget,outcome", SEARCH_OUTCOMES, ids=[f"{c}-{b}" for c, b, _ in SEARCH_OUTCOMES]
)
def test_search_outcome_is_pinned(load, case, budget, outcome):
    """Verdict, states expanded, move strings and stop note of fixed searches."""
    if case.startswith("garland"):
        d, comp = front.parse_front(garland_text(int(case[-1]), Fraction(1, 2), 5, "+")), "G"
    elif case == "bigon":
        d, comp = front.parse_front(CLASPED_BIGON), "B"
    elif case == "trefoil":
        d, comp = front.parse_front(load("trefoil.front")), "K"
    else:
        d, comp = kirby.parse_kirby(load("knotted.kirby")).front, case.split(":")[1]
    cert = moves.unknot_certificate(d, comp, budget=budget)
    assert (cert["verdict"], cert["expanded"], cert["moves"], cert["note"]) == outcome
