"""Diagram-level checks: parsing, involution, homology, admissibility,
the twist move, and the Stein framing rule."""

import copy
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corktwist import front, intmat, kirby
from corktwist.base import InputError


# independent Smith oracle: invariant factors from determinantal divisors
def oracle_factors(a):
    def perm_det(m):
        n = len(m)
        if n == 0:
            return 1
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [False] * n
            for i in range(n):
                if seen[i]:
                    continue
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            term = sign
            for i in range(n):
                term *= m[i][perm[i]]
            total += term
        return total

    rows, cols = len(a), len(a[0]) if a else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                g = math.gcd(g, abs(perm_det([[a[r][c] for c in csel] for r in rsel])))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_mazur_fixture_parses_and_roundtrips(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    assert d.dots == ("K1",)
    assert d.frames == (("K2", 0),)
    assert d.involution is not None
    text = kirby.kirby_to_text(d)
    again = kirby.parse_kirby(text)
    assert kirby.kirby_to_text(again) == text


def test_mazur_involution_verified(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    ok, detail = kirby.involution_verified(d)
    assert ok, detail


def test_involution_detects_asymmetry(load):
    text = load("mazur.kirby").replace("(8,3)", "(8,7/2)", 1)
    d = kirby.parse_kirby(text)
    ok, detail = kirby.involution_verified(d)
    assert not ok


def _fraction_involution_verified(d):
    """The Fraction check that `kirby.involution_verified` replaced, kept as its oracle."""
    if d.involution is None:
        return False, "no involution declared"
    iv = d.involution
    cx, cy = Fraction(iv.cx, iv.scale), Fraction(iv.cy, iv.scale)

    def apply(p):
        return (2 * cx - p[0], 2 * cy - p[1])

    def segment_set(comp):
        segs = set()
        for arc in d.front.arcs:
            if arc.component != comp:
                continue
            pts = [(Fraction(x, arc.scale), Fraction(y, arc.scale)) for x, y in arc.points]
            for a, b in zip(pts, pts[1:]):
                segs.add(frozenset((a, b)))
        return segs

    s1 = segment_set(iv.comp1)
    s2 = segment_set(iv.comp2)
    mapped = {frozenset(apply(p) for p in seg) for seg in s1}
    if mapped != s2:
        return False, (
            f"half-turn about ({cx}, {cy}) does not carry {iv.comp1!r} "
            f"onto {iv.comp2!r}"
        )
    balls = {tuple(Fraction(v, b.scale) for v in (b.x, b.ytop, b.ybot)) for b in d.front.balls}
    mapped_balls = set()
    for x, ytop, ybot in balls:
        nx, nyb = apply((x, ytop))
        _, nyt = apply((x, ybot))
        mapped_balls.add((nx, nyt, nyb))
    if mapped_balls != balls:
        return False, "half-turn does not preserve the handle balls"
    return True, f"half-turn about ({cx}, {cy}) exchanges the two components"


def _over_lcm(values):
    """Fractions as integers over their lcm, and the lcm."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    return [int(v * scale) for v in values], scale


def _with_centre(d, cx, cy):
    iv = d.involution
    (x, y), scale = _over_lcm([cx, cy])
    return kirby.KirbyDiagram(d.front, d.dots, d.frames,
                              kirby.Involution(iv.comp1, iv.comp2, x, y, scale),
                              d.stein_front, d.stein_component)


def _translated(d, ox, oy):
    """d with its main front and its involution centre moved by (ox, oy)."""
    def arc(a):
        pts, scale = _over_lcm([Fraction(v, a.scale) + o for p in a.points
                                for v, o in zip(p, (ox, oy))])
        return front.Arc(a.component, tuple(zip(pts[::2], pts[1::2])), scale)

    def ball(b):
        vals, scale = _over_lcm([Fraction(v, b.scale) + o
                                 for v, o in ((b.x, ox), (b.ytop, oy), (b.ybot, oy))])
        return front.HandleBall(b.handle, *vals, scale)

    moved = front.FrontDiagram(tuple(arc(a) for a in d.front.arcs),
                               tuple(ball(b) for b in d.front.balls),
                               d.front.orientations, d.front.knottypes)
    iv = d.involution
    return _with_centre(kirby.KirbyDiagram(moved, d.dots, d.frames, d.involution,
                                           d.stein_front, d.stein_component),
                        Fraction(iv.cx, iv.scale) + ox, Fraction(iv.cy, iv.scale) + oy)


# two lenses exchanged by the half-turn about (6, 0), and a ball pair off to
# the side that the half-turn maps onto itself, or not
SYMMETRIC_BALLS = """
arc A : (0,0) (4,2) (8,0)
arc A : (8,0) (4,-2) (0,0)
arc B : (12,0) (8,-2) (4,0)
arc B : (4,0) (8,2) (12,0)
handle h : x=-10 ytop=2 ybot=-1
handle h : x=22 ytop=1 ybot=-2
dot A
frame B 0
involution A B : rot180 6 0
"""


def _involution_cases(load):
    fixtures = {name: kirby.parse_kirby(load(name))
                for name in ("mazur.kirby", "knotted.kirby", "hopf.kirby")}
    balls = kirby.parse_kirby(SYMMETRIC_BALLS)
    cases = dict(fixtures)
    cases["symmetric balls"] = balls
    cases["balls not preserved"] = kirby.parse_kirby(
        SYMMETRIC_BALLS.replace("x=22 ytop=1 ybot=-2", "x=22 ytop=2 ybot=-1"))
    for name, d in [*fixtures.items(), ("symmetric balls", balls)]:
        cases[f"{name} translated"] = _translated(d, Fraction(1, 10007), Fraction(3, 65537))
    mazur = fixtures["mazur.kirby"]
    for cx, cy in ((7, 0), (6, Fraction(1, 2)), (Fraction(19, 3), 0), (Fraction(13, 2), 0)):
        cases[f"mazur about ({cx}, {cy})"] = _with_centre(mazur, cx, cy)
    cases["balls about (6, 1/3)"] = _with_centre(balls, 6, Fraction(1, 3))
    return cases


def test_integer_involution_check_matches_fraction_oracle(load):
    verdicts = {}
    for name, d in _involution_cases(load).items():
        got = kirby.involution_verified(d)
        assert got == _fraction_involution_verified(d), name
        verdicts[name] = got[0]
    assert verdicts["mazur.kirby translated"] and verdicts["symmetric balls translated"]
    assert not verdicts["balls not preserved"] and not verdicts["mazur about (7, 0)"]
    assert sum(verdicts.values()) == 8, verdicts


def test_linking_matrix_symmetry(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    comps, m = kirby.linking_matrix(d)
    assert sorted(comps) == ["K1", "K2"]
    assert m[0][1] == m[1][0]
    assert abs(m[0][1]) == 1


def test_homology_of_linked_pairs_against_oracle():
    for n in range(6):
        d = kirby.linked_handle_pair(n)
        comps, link = kirby.linking_matrix(d)
        assert abs(link[0][1]) == n
        rep = kirby.homology(d)
        # oracle: H1 of the boundary is the cokernel of the linking matrix
        factors = [f for f in oracle_factors([list(r) for r in link]) if f != 1]
        got = rep["h_of_boundary"][1]
        if n == 0:
            assert got["rank"] == 2 and not got["torsion"]
        elif n == 1:
            assert got["pretty"] == "0"
        else:
            assert got["rank"] == 0
            assert sorted(got["torsion"]) == sorted(factors), (n, got)
            assert got["torsion"] == [n, n]


def test_homology_runs_one_smith_form_per_matrix(load, monkeypatch):
    # one for the 2-handle boundary map, one for the linking matrix
    calls = []
    smith = intmat.smith_normal_form

    def counted(a):
        calls.append(a)
        return smith(a)

    monkeypatch.setattr(intmat, "smith_normal_form", counted)
    rep = kirby.homology(kirby.parse_kirby(load("mazur.kirby")))
    assert len(calls) == 2
    assert rep["is_contractible"]


def test_second_homology_is_the_boundary_maps_kernel():
    # one dotted and one framed handle: H2(W) is Z exactly when they do
    # not link, since then the boundary map is zero
    for n in range(4):
        h2 = kirby.homology(kirby.linked_handle_pair(n))["h_of_W"][2]
        assert (h2["rank"], h2["torsion"]) == ((1 if n == 0 else 0), [])


def test_linked_pair_one_is_homology_sphere():
    d = kirby.linked_handle_pair(1)
    rep = kirby.homology(d)
    assert rep["is_homology_sphere"]
    assert rep["is_contractible"]
    assert all(g["pretty"] == "0" for g in rep["h_of_W"][1:])


def test_homology_unchanged_by_cork_twist(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    t = kirby.cork_twist(d)
    assert kirby.homology(t) == kirby.homology(d)


def test_cork_twist_is_an_involution(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    back = kirby.cork_twist(kirby.cork_twist(d))
    assert back.dots == d.dots
    assert back.frames == d.frames


def test_cork_twist_requires_involution():
    d = kirby.linked_handle_pair(1)
    with pytest.raises(kirby.KirbyError):
        kirby.cork_twist(d)


def test_mazur_admissible(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    rep = kirby.check_admissible(d)
    assert rep["verdict"] == "admissible"
    assert all(s == "verified" for s in rep["cond1"].values())
    assert rep["cond2"] == "verified"
    assert rep["cond3"]["status"] == "holds" and abs(rep["cond3"]["value"]) == 1
    assert rep["cond4prime"]["status"] == "certified"
    assert rep["cond4prime"]["tb"] >= 1


def test_hopf_not_admissible(load):
    rep = kirby.check_admissible(kirby.parse_kirby(load("hopf.kirby")))
    assert rep["verdict"] == "not admissible"
    assert rep["cond4prime"]["status"] == "not-certified"


def test_knotted_components_inconclusive(load):
    rep = kirby.check_admissible(kirby.parse_kirby(load("knotted.kirby")))
    assert rep["verdict"] == "inconclusive"
    assert any(s == "inconclusive" for s in rep["cond1"].values())
    # the definite conditions still hold
    assert rep["cond2"] == "verified"
    assert rep["cond3"]["status"] == "holds"


@pytest.mark.parametrize("searches,involution_ok,lk,tb", list(itertools.product(
    itertools.product(["unknot", "inconclusive"], repeat=2),
    [True, False],
    [1, -1, 2],
    [None, 0, 2],
)))
def test_verdict_rule_table(searches, involution_ok, lk, tb):
    doc = kirby.admissibility(
        cond1_evidence={c: {"verdict": v} for c, v in zip(("K1", "K2"), searches)},
        involution_ok=involution_ok,
        cond2_detail="detail",
        cond3_value=lk,
        cond4prime_tb=tb,
    )
    cond1 = {
        c: "verified" if v == "unknot" else "inconclusive"
        for c, v in zip(("K1", "K2"), searches)
    }
    cond2 = "verified" if involution_ok else "absent"
    cond3 = "holds" if lk in (1, -1) else "fails"
    cond4 = "certified" if tb == 2 else "not-certified"
    detail = {
        None: "no Stein section exhibits the 2-handle curve over the 1-handle",
        0: "exhibited Thurston-Bennequin number 0 is below +1",
        2: "exhibited Thurston-Bennequin number 2 over the 1-handle is at least +1",
    }[tb]
    definite_failure = not involution_ok or lk == 2 or tb != 2
    unsettled = "inconclusive" in searches
    # a definite failure decides the verdict even while cond1 is unsettled;
    # an unsettled cond1 alone is never a "no"
    if definite_failure:
        verdict = "not admissible"
    elif unsettled:
        verdict = "inconclusive"
    else:
        verdict = "admissible"

    assert (doc["cond1"], doc["cond2"], doc["cond3"]["status"]) == (cond1, cond2, cond3)
    assert (doc["cond4prime"]["status"], doc["cond4prime"]["detail"]) == (cond4, detail)
    assert list(doc["cond1"]) == ["K1", "K2"]
    assert doc["cond2_detail"] == "detail"
    assert doc["cond3"] == {"status": cond3, "value": lk}
    assert doc["cond4prime"] == {"status": cond4, "tb": tb, "detail": detail}
    assert doc["verdict"] == verdict
    assert doc["note"] == "condition (4) checked via its exhibited form (4')"


@pytest.mark.parametrize("name", ["mazur.kirby", "knotted.kirby", "hopf.kirby"])
def test_reports_share_nothing_between_calls(load, mark_everywhere, name):
    """Editing a returned admissibility or homology document reaches no later one."""
    d = kirby.parse_kirby(load(name))
    adm, hom = kirby.check_admissible(d), kirby.homology(d)
    pristine = copy.deepcopy((adm, hom))
    mark_everywhere(adm)
    mark_everywhere(hom)
    assert "marked" in adm["cond1_evidence"]["K1"]
    assert hom["h_of_W"][1]["torsion"] == ["marked"]
    assert (kirby.check_admissible(d), kirby.homology(d)) == pristine


def test_stein_exhibit_tb(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    assert d.stein_front.tb(d.stein_component) == 2
    assert d.stein_front.handle_passes(d.stein_component) == 2
    assert kirby.check_admissible(d)["cond4prime"]["tb"] == 2


def test_stein_side_status_branches():
    exact = kirby.stein_side_status(1, 2, 2, "right_trefoil")
    assert exact["status"] == "exact"
    low = kirby.stein_side_status(0, 2, 2, "right_trefoil")
    assert low["status"] == "realizable"
    blocked = kirby.stein_side_status(1, 1, 0, "right_trefoil")
    assert blocked["status"] == "obstructed"
    assert blocked["reason"] == "framing 1 ≠ tb − 1 for exhibited tb ≤ 1"
    unknown = kirby.stein_side_status(5, 1, 3, None)
    assert unknown["status"] == "unknown"


def test_inflate_untwisted_passes_twisted_fails(load, fixtures):
    over_handle = front.parse_front(load("trefoil_handle.front"))
    planar = front.parse_front(load("trefoil.front"))

    untw = kirby.inflate(over_handle, 1)
    assert untw.stein["status"] == "exact"
    assert untw.exhibited_tb == 2

    twisted = kirby.inflate(planar, 1)
    assert twisted.stein["status"] == "obstructed"
    assert twisted.stein["reason"] == "framing 1 ≠ tb − 1 for exhibited tb ≤ 1"


def test_inflate_rejects_unregistered_knottype(load):
    text = "arc K : (0,0) (4,2) (8,0)\narc K : (8,0) (4,-2) (0,0)\norient K +\nknottype K cinquefoil\n"
    with pytest.raises(kirby.KirbyError):
        kirby.inflate(front.parse_front(text), 1)


def test_inflation_spec_fixture(load, fixtures):
    spec = kirby.parse_inflation_spec(load("trefoil_inflation.spec"), fixtures)
    assert spec.knot == "right_trefoil"
    assert spec.framing == 1
    assert spec.untwisted_front.tb(spec.untwisted_component) == 2
    assert spec.twisted_front.tb(spec.twisted_component) == 1


# lines spelled from the diagram grammar's own tokens, and from some it refuses
_KIRBY_HEADS = ("arc K1 :", "arc K2 :", "handle h :", "orient", "knottype", "dot", "frame",
                "involution", "stein", "stein arc K2 :", "#", "K1")
_KIRBY_ARGS = (
    "(0,0)", "(4,2)", "(8,0)", "(4,-2)", "(12,0)", "(16,2)", "(20,0)", "(16,-2)", "(1/2,3)",
    "(1/0,1)", "(\u0663,1)", "(", "x=0", "ytop=2", "ybot=-2", "K1", "K2", "K3", "0", "-1",
    "1/2", "10", "1.5", "99999999999999999999", "\u0663", "+", ":", "rot180", "stein",
    "component", "arc", "\0", "# comment",
)


def test_parse_kirby_is_total(spelled):
    """Text of diagram tokens parses, or raises an InputError and nothing else."""

    @settings(max_examples=150)
    @given(st.binary(max_size=40))
    # a dotted lens and a 0-framed lens, exchanged by the half-turn about (10,0)
    @example(bytes([0, 1, 5, 9, 0, 9, 13, 1, 4, 17, 21, 25, 4, 25, 29, 17,
                    20, 61, 24, 65, 73, 28, 61, 65, 105, 109, 85, 73]))
    def parsed(data):
        try:
            kirby.parse_kirby(spelled(data, _KIRBY_HEADS, _KIRBY_ARGS))
        except InputError:
            pass

    parsed()


def test_abelian_group_describe():
    assert kirby.AbelianGroup(0).describe() == "0"
    assert kirby.AbelianGroup(1).describe() == "Z"
    assert kirby.AbelianGroup(0, (2, 4)).describe() == "Z/2 + Z/4"
    assert kirby.AbelianGroup(2, (3,)).describe() == "Z^2 + Z/3"


# lines spelled from the inflation spec grammar's own tokens, fixture front
# names among them, and from some it refuses
_SPEC_HEADS = ("knot", "framing", "untwisted", "twisted", "twisted", "#", "K")
_SPEC_ARGS = (
    "right_trefoil", "unknot", "figure_eight", "1", "-1", "0x1", "\u0663",
    "trefoil.front", "trefoil_handle.front", "lens.front", "mazur.kirby", "missing.front",
    ".", "nul\0.front", "K", "L", "\0", "# comment",
)


def test_parse_inflation_spec_is_total(fixtures, spelled):
    """Text of spec tokens, read beside the fixture fronts, parses or raises an
    InputError and nothing else."""

    @settings(max_examples=150)
    @given(st.binary(max_size=30))
    # the shipped trefoil_inflation.spec
    @example(bytes([0, 1, 4, 13, 8, 33, 57, 12, 29, 57]))
    def parsed(data):
        try:
            kirby.parse_inflation_spec(spelled(data, _SPEC_HEADS, _SPEC_ARGS), fixtures)
        except InputError:
            pass

    parsed()
