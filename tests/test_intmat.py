"""Exact linear algebra against independent oracles.

The Smith form is cross-checked with the determinantal-divisor
description (k-th invariant factor = gcd of k x k minors divided by the
gcd of (k-1) x (k-1) minors), each minor by brute-force permutation
expansion.  The oracle is written here from scratch so a bug in the
module cannot hide in its own test.
"""

import itertools
import math
import random

from corktwist import intmat, mcg


def perm_det(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def minors_gcd(a, k):
    rows, cols = len(a), len(a[0])
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            sub = [[a[r][c] for c in csel] for r in rsel]
            g = math.gcd(g, abs(perm_det(sub)))
    return g


def divisor_factors(a):
    """Invariant factors straight from determinantal divisors."""
    rows, cols = len(a), len(a[0])
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        dk = minors_gcd(a, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def test_smith_form_factorization_and_divisibility():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        d = intmat.smith_normal_form(a)
        # diagonal with divisibility chain
        factors = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [f for f in factors if f]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0


def test_invariant_factors_match_determinantal_divisors():
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        got = [abs(f) for f in intmat.invariant_factors(a) if f]
        want = [f for f in divisor_factors(a) if f]
        assert got == want, (a, got, want)


def test_is_primitive():
    assert intmat.is_primitive([1, 0, 0])
    assert intmat.is_primitive([2, 3])
    assert not intmat.is_primitive([2, 4])
    assert not intmat.is_primitive([0, 0])


def test_mat_pow():
    a = [[1, 1], [0, 1]]
    assert intmat.mat_pow(a, 0) == intmat.identity(2)
    assert intmat.mat_pow(a, 5) == [[1, 5], [0, 1]]
    for g in (1, 2, 3):
        block = mcg.h1_action(tuple(mcg.chain_curves(g)))
        for k in (1, 2, 4 * g + 2):
            want = block
            for _ in range(k - 1):
                want = intmat.mat_mul(want, block)
            assert intmat.mat_pow(block, k) == want, (g, k)
    once = intmat.mat_pow(a, 1)
    once[0][1] = 7
    assert a == [[1, 1], [0, 1]]
    try:
        intmat.mat_pow(a, -1)
        assert False, "negative power must raise"
    except ValueError:
        pass
