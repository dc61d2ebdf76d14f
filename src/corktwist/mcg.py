"""Homological Dehn-twist calculus on a genus-g surface.

Simple closed curves are tracked through their first-homology classes in
the standard symplectic basis (a1, b1, ..., ag, bg), and a right-handed
twist about c acts by x -> x + <x, c> c.  Identities produced here
(chain relation, positive inversions, monodromy trivialisations) are
certified at this homological level only; that shadow is exactly what
the filling planner consumes.

A twist word is a tuple of curves, one right-handed twist per letter:
the monodromy of a positive fibration and the relators that close it
are products of right-handed twists, so a letter is just its curve.

Composition convention: the leftmost letter of a word acts first, so as
matrices on column vectors  action(u v) = action(v) * action(u).
"""

from __future__ import annotations

from functools import lru_cache

from . import intmat
from .base import Record
from .intmat import Matrix

MAX_GENUS = 64  # chain curves take O(g^2) ints, so larger pages are refused


class Curve(Record):
    """A simple closed curve known only through its homology class."""

    __slots__ = _fields = ("name", "h1_class")
    name: str
    h1_class: tuple[int, ...]

    def __init__(self, name: str, h1_class: tuple[int, ...]) -> None:
        if len(h1_class) == 0 or len(h1_class) % 2 != 0:
            raise ValueError(f"h1 class of {name!r} must have even positive length")
        if not intmat.is_primitive(list(h1_class)):
            raise ValueError(
                f"curve {name!r} has imprimitive class {h1_class}; "
                "simple closed curves are primitive or zero, and zero classes "
                "(separating curves) are not twistable here"
            )
        self._assign(name, h1_class)

    @property
    def genus(self) -> int:
        return len(self.h1_class) // 2


def j_matrix(g: int) -> Matrix:
    """Matrix of the intersection form in the (a1, b1, ..., ag, bg) basis."""
    j = intmat.zeros(2 * g, 2 * g)
    for i in range(g):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


def h1_action(word: tuple[Curve, ...]) -> Matrix:
    """Matrix of the word on H_1, leftmost letter applied first.

    A letter c acts by x -> x + <x, c> c, i.e. by I + c (Jc)^T, so it is
    applied to the running product R as a rank-1 row update:
    w = (Jc)^T R, then row i of R gains c_i w.  That is O(n^2) per
    letter on n = 2g rows and builds no per-letter matrix.  The letters
    share one genus g, read off the first (fillings.OpenBook checks it).
    """
    if not word:
        raise ValueError("empty word has no well-defined surface; pass at least one letter")
    n = 2 * word[0].genus
    result = intmat.identity(n)
    for curve in word:
        c = curve.h1_class
        w = [0] * n
        for k in range(n):
            jc_k = c[k + 1] if k % 2 == 0 else -c[k - 1]  # (Jc)_k
            if jc_k:
                row = result[k]
                for j in range(n):
                    w[j] += jc_k * row[j]
        for i in range(n):
            coef = c[i]
            if coef:
                row = result[i]
                for j in range(n):
                    row[j] += coef * w[j]
    return result


def is_symplectic(m: Matrix, g: int) -> bool:
    j = j_matrix(g)
    return intmat.mat_eq(intmat.mat_mul(intmat.transpose(m), intmat.mat_mul(j, m)), j)


# -- chain curves and the chain relation --------------------------------------

def chain_curve(g: int, k: int) -> Curve:
    """The chain curve c_k of genus g, for 1 <= k <= 2g.

    Consecutive chain curves pair to +-1, all other pairs to 0, mirroring
    a chain of curves c1, ..., c2g where only neighbours meet once.
    Concretely: c1 = a1, c_{2i} = b_i, c_{2i+1} = a_i + a_{i+1}.
    """
    vec = [0] * (2 * g)
    if k == 1:
        vec[0] = 1  # a1
    elif k % 2 == 0:
        vec[k - 1] = 1  # b_{k/2}
    else:
        i = k // 2  # c_{2i+1} = a_i + a_{i+1}
        vec[2 * (i - 1)] = vec[2 * i] = 1
    return Curve(f"c{k}", tuple(vec))


def chain_curves(g: int) -> list[Curve]:
    """The 2g twistable classes c1, ..., c2g of the chain pattern (chain_curve)."""
    if g < 1:
        raise ValueError("chain needs genus >= 1")
    return [chain_curve(g, k) for k in range(1, 2 * g + 1)]


@lru_cache(maxsize=MAX_GENUS)
def verify_chain_relation(g: int) -> bool:
    """True iff (t_{c1} ... t_{c2g})^(4g+2) acts as the identity on H_1.

    Checked once per process and genus: the first call at g computes the
    power from the chain curves, and later calls at g read that verdict.
    The memo is sound because the verdict depends on g alone; no input
    file reaches it.  Callers bound g to 1..MAX_GENUS, so it holds at
    most MAX_GENUS booleans.
    """
    block = h1_action(tuple(chain_curves(g)))
    return intmat.is_identity(intmat.mat_pow(block, 4 * g + 2))


# -- positive inversion -------------------------------------------------------

def symplectic_frame(c: Curve) -> Matrix:
    """A symplectic matrix S whose first column is the class of c.

    This is the change of basis identifying c with the first chain curve:
    S e_1 = [c] and S^T J S = J.  It is built by integer symplectic
    reduction: elementary moves of Sp(2g, Z) carry [c] to e_1 (Euclid with
    SL_2 shears inside each (a_i, b_i) pair, then Euclid across pairs with
    a_i += k a_j, b_j -= k b_i), and S, the product of their inverses, is
    accumulated by column operations.  For c = a_1 no move is made and S
    is the identity.
    """
    g = c.genus
    x = list(c.h1_class)
    s = intmat.identity(2 * g)

    def shear(p: int, q: int, k: int) -> None:  # x_p += k x_q inside a pair
        x[p] += k * x[q]
        for row in s:
            row[q] -= k * row[p]

    def across(p: int, q: int, k: int) -> None:  # x_{a_i} += k x_{a_j}, x_{b_j} -= k x_{b_i}
        x[p] += k * x[q]
        x[q + 1] -= k * x[p + 1]
        for row in s:
            row[q] -= k * row[p]
            row[p + 1] += k * row[q + 1]

    def euclid(p: int, q: int, move) -> None:
        """Clear x_q into x_p, leaving their gcd (up to sign) in x_p."""
        first = p
        while x[q]:
            move(p, q, -(x[p] // x[q]))
            p, q = q, p
        if p != first:  # (0, d) -> (d, d) -> (d, 0)
            move(q, p, 1)
            move(p, q, -1)

    for i in range(g):
        euclid(2 * i, 2 * i + 1, shear)
    for i in range(1, g):
        euclid(0, 2 * i, across)  # x has no b entries left, so only its a entries move
    if x[0] == -1:  # -I on the first pair lies in SL_2
        x[0] = 1
        for row in s:
            row[0], row[1] = -row[0], -row[1]
    if x[0] != 1:
        raise ValueError(f"class {c.h1_class} is not primitive")
    assert is_symplectic(s, g), "reduction lost the symplectic form"
    assert [row[0] for row in s] == list(c.h1_class), "frame does not start at [c]"
    return s


def _chain_images(s: Matrix) -> tuple[tuple[int, ...], ...]:
    """The classes S c_1, ..., S c_2g, read off the columns of s.

    S a_1 is column 0, S b_i is column 2i - 1, and S(a_i + a_{i+1}) is the
    sum of columns 2i - 2 and 2i.
    """
    cols = list(zip(*s))
    images = [cols[0]]
    for k in range(2, len(cols) + 1):
        if k % 2 == 0:
            images.append(cols[k - 1])
        else:
            images.append(tuple(x + y for x, y in zip(cols[k - 3], cols[k - 1])))
    return tuple(images)


# The chain relator that cancels one letter, as a pattern over the chain c1, ..., c2g.
RELATOR = "c2 ... c2g (c1 ... c2g)^(4g+1)"


def relator_letters(g: int) -> int:
    """Letters in one RELATOR block at genus g: 2g - 1, then 2g letters 4g + 1 times."""
    return 2 * g * (4 * g + 2) - 1


def trivialize(word: tuple[Curve, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Relator blocks whose letters, read in order after word, act as the identity on H_1.

    One block per letter c of word, last letter first: RELATOR conjugated
    by the frame S of c, given as its chain images S c_1, ..., S c_2g.  By
    the chain relation the standard block acts as T_{c1}^-1, and since
    T_{Sd} = S T_d S^-1 the conjugated block acts as T_c^-1.  So once the
    chain relation is checked at g, the blocks act as the inverse word,
    whatever the letters of word are; no product of actions is needed to
    know that they cancel.  The frame depends on the class alone, so one
    frame is built per distinct class and its images are shared, read-only,
    by every block of that class.  Only `fill --format doc` prints the
    images (fillings.build_concave); the counts need none of them.
    """
    if not word:
        raise ValueError("empty word has no well-defined surface; pass at least one letter")
    g = word[0].genus
    if not verify_chain_relation(g):
        raise ArithmeticError(f"the chain relation fails at genus {g}")
    by_class = {curve.h1_class: curve for curve in word}
    images = {cls: _chain_images(symplectic_frame(curve)) for cls, curve in by_class.items()}
    return tuple(images[curve.h1_class] for curve in reversed(word))
