"""Diagram-level checks: parsing, involution, homology, admissibility,
the twist move, and the Stein framing rule."""

import itertools
import math

import pytest

from corktwist import front, kirby


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
        got = rep.h_of_boundary[1]
        if n == 0:
            assert got.rank == 2 and not got.torsion
        elif n == 1:
            assert got.is_trivial
        else:
            assert got.rank == 0
            assert sorted(got.torsion) == sorted(factors), (n, got)
            assert list(got.torsion) == [n, n]


def test_linked_pair_one_is_homology_sphere():
    d = kirby.linked_handle_pair(1)
    rep = kirby.homology(d)
    assert rep.is_homology_sphere
    assert rep.is_contractible
    assert all(g.is_trivial for g in rep.h_of_W[1:])


def test_homology_unchanged_by_cork_twist(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    t = kirby.cork_twist(d)
    assert kirby.homology(t).to_doc() == kirby.homology(d).to_doc()


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
    assert rep.verdict == "admissible"
    assert all(s == "verified" for _, s in rep.cond1)
    assert rep.cond2 == "verified"
    assert rep.cond3_status == "holds" and abs(rep.cond3_value) == 1
    assert rep.cond4prime_status == "certified"
    assert rep.cond4prime_tb >= 1


def test_hopf_not_admissible(load):
    rep = kirby.check_admissible(kirby.parse_kirby(load("hopf.kirby")))
    assert rep.verdict == "not admissible"
    assert rep.cond4prime_status == "not-certified"


def test_knotted_components_inconclusive(load):
    rep = kirby.check_admissible(kirby.parse_kirby(load("knotted.kirby")))
    assert rep.verdict == "inconclusive"
    assert any(s == "inconclusive" for _, s in rep.cond1)
    # the definite conditions still hold
    assert rep.cond2 == "verified"
    assert rep.cond3_status == "holds"


def test_stein_exhibit_tb(load):
    d = kirby.parse_kirby(load("mazur.kirby"))
    rep = kirby.stein_exhibit_report(d)
    assert rep["tb"] == 2
    assert rep["handle_passes"] == 2


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
    cork = kirby.parse_kirby(load("mazur.kirby"))
    over_handle = front.parse_front(load("trefoil_handle.front"))
    planar = front.parse_front(load("trefoil.front"))

    untw = kirby.inflate(cork, over_handle, 1)
    assert untw.stein["status"] == "exact"
    assert untw.exhibited_tb == 2

    twisted = kirby.inflate(kirby.cork_twist(cork), planar, 1)
    assert twisted.stein["status"] == "obstructed"
    assert twisted.stein["reason"] == "framing 1 ≠ tb − 1 for exhibited tb ≤ 1"


def test_inflate_rejects_unregistered_knottype(load):
    cork = kirby.parse_kirby(load("mazur.kirby"))
    text = "arc K : (0,0) (4,2) (8,0)\narc K : (8,0) (4,-2) (0,0)\norient K +\nknottype K cinquefoil\n"
    with pytest.raises(kirby.KirbyError):
        kirby.inflate(cork, front.parse_front(text), 1)


def test_inflation_spec_fixture(load, fixtures):
    spec = kirby.parse_inflation_spec(load("trefoil_inflation.spec"), fixtures)
    assert spec.knot == "right_trefoil"
    assert spec.framing == 1
    assert spec.untwisted_front.tb(spec.untwisted_component) == 2
    assert spec.twisted_front.tb(spec.twisted_component) == 1


def test_abelian_group_describe():
    assert kirby.AbelianGroup(0).describe() == "0"
    assert kirby.AbelianGroup(1).describe() == "Z"
    assert kirby.AbelianGroup(0, (2, 4)).describe() == "Z/2 + Z/4"
    assert kirby.AbelianGroup(2, (3,)).describe() == "Z^2 + Z/3"
