"""Exact linear algebra over the integers.

Matrices are plain lists of lists of Python ints, so arbitrary precision
comes for free.  Everything here is small (a few dozen rows at most) and
favours clarity over asymptotics: twist words of a couple hundred letters
already produce entries far beyond 64 bits, which is why none of this
goes through numpy.
"""

from __future__ import annotations

from math import gcd

Matrix = list[list[int]]
Vector = list[int]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def clone(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Matrix) -> Matrix:
    rows, cols = shape(a)
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b[k]
            for j in range(cb):
                orow[j] += aik * brow[j]
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(a[i] == b[i] for i in range(len(a)))


def is_identity(a: Matrix) -> bool:
    rows, cols = shape(a)
    return rows == cols and all(
        a[i][j] == (1 if i == j else 0) for i in range(rows) for j in range(cols)
    )


def mat_pow(a: Matrix, k: int) -> Matrix:
    """a**k by repeated squaring, k >= 0, as a new matrix.

    The result starts as the power of a at the lowest set bit of k, and the
    base is not squared past the top bit, so no product is spent on the
    identity or thrown away: k = 2^t takes t products.
    """
    n, m = shape(a)
    if n != m:
        raise ValueError("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative power")
    if k == 0:
        return identity(n)
    result, base = None, a
    while True:
        if k & 1:
            result = base if result is None else mat_mul(result, base)
        k >>= 1
        if not k:
            return clone(a) if result is a else result
        base = mat_mul(base, base)


def _swap_rows(a: Matrix, i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: Matrix, i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a: Matrix, src: int, dst: int, mult: int) -> None:
    a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]


def _add_col(a: Matrix, src: int, dst: int, mult: int) -> None:
    for row in a:
        row[dst] += mult * row[src]


def _negate_row(a: Matrix, i: int) -> None:
    a[i] = [-x for x in a[i]]


def smith_normal_form(a: Matrix) -> Matrix:
    """The diagonal d = u*a*v for some unimodular u and v, which are not formed.

    Diagonal entries are non-negative and satisfy the divisibility chain
    d[0] | d[1] | ... .  The usual pivot-and-reduce loop.
    """
    rows, cols = shape(a)
    d = clone(a)

    def pivot_at(t: int) -> bool:
        # move a minimal-magnitude nonzero entry of d[t:, t:] to (t, t)
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            return False
        bi, bj = best
        if bi != t:
            _swap_rows(d, t, bi)
        if bj != t:
            _swap_cols(d, t, bj)
        return True

    t = 0
    while t < min(rows, cols):
        if not pivot_at(t):
            break
        # clear row and column t; pivoting keeps shrinking |d[t][t]|, so this terminates
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    _add_row(d, t, i, -(d[i][t] // d[t][t]))
                    if d[i][t] != 0:
                        _swap_rows(d, t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    _add_col(d, t, j, -(d[t][j] // d[t][t]))
                    if d[t][j] != 0:
                        _swap_cols(d, t, j)
                        dirty = True
        # enforce divisibility: d[t][t] must divide everything below-right
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            _add_row(d, offender[0], t, 1)
            continue  # redo this pivot
        t += 1

    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            _negate_row(d, i)
    return d


def invariant_factors(a: Matrix) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    d = smith_normal_form(a)
    return [d[i][i] for i in range(min(shape(a))) if d[i][i] != 0]


def is_primitive(v: Vector) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1
