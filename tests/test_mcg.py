"""Twist words acting on H1 of a one-boundary surface."""

import random
import time
from types import SimpleNamespace

import pytest

from corktwist import fillings, intmat, mcg
from corktwist.mcg import Curve


def random_primitive_curve(rng, g, name="c"):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if any(v) and intmat.is_primitive(list(v)):
            return Curve(name, v)


def mat_vec(a, v):
    """The matrix a applied to the column vector v."""
    return [sum(x * y for x, y in zip(row, v, strict=True)) for row in a]


def pairing(u, v):
    """Algebraic intersection number <u, v>; <a_i, b_i> = +1."""
    if len(u) != len(v) or len(u) % 2 != 0:
        raise ValueError("classes must share an even length")
    total = 0
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


def transvection(c):
    """Reference homological action of the right-handed twist about c: I + c (Jc)^T."""
    n = 2 * c.genus
    jc = mat_vec(mcg.j_matrix(c.genus), list(c.h1_class))
    return [[int(i == j) + c.h1_class[i] * jc[j] for j in range(n)] for i in range(n)]


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve("bad", (2, 4))          # imprimitive
    with pytest.raises(ValueError):
        Curve("zero", (0, 0))         # null class is not embeddable-essential
    with pytest.raises(ValueError):
        Curve("odd", (1, 0, 0))       # class length must be even


def test_twist_word_basics():
    with pytest.raises(ValueError):
        mcg.h1_action(())


def test_transvection_formula_small_cases():
    # T_c(x) = x + <x, c> c: the twist fixes its own class, and with
    # <a1, b1> = +1 it sends b1 to b1 - a1
    a = Curve("a1", (1, 0))
    m = transvection(a)
    assert mat_vec(m, [1, 0]) == [1, 0]
    assert mat_vec(m, [0, 1]) == [-1, 1]
    x = [3, 5]
    shifted = mat_vec(m, x)
    assert shifted == [x[0] + pairing(x, a.h1_class) * 1, x[1]]


def test_h1_action_leftmost_letter_first():
    a = Curve("a1", (1, 0))
    b = Curve("b1", (0, 1))
    ab = mcg.h1_action((a, b))
    manual = intmat.mat_mul(transvection(b), transvection(a))
    assert ab == manual


def test_h1_action_matches_transvection_product():
    # oracle: multiply I + c (Jc)^T per letter, leftmost letter first
    rng = random.Random(61)
    for g in range(1, 9):
        n = 2 * g
        for _ in range(4):
            letters = tuple(
                random_primitive_curve(rng, g, f"c{i}") for i in range(rng.randint(1, 40))
            )
            want = intmat.identity(n)
            for curve in letters:
                c = list(curve.h1_class)
                jc = mat_vec(mcg.j_matrix(g), c)
                m = [[int(i == j) + c[i] * jc[j] for j in range(n)] for i in range(n)]
                want = intmat.mat_mul(m, want)
            assert mcg.h1_action(letters) == want


def test_h1_action_is_symplectic():
    rng = random.Random(17)
    for g in (1, 2, 3):
        for _ in range(8):
            letters = tuple(
                random_primitive_curve(rng, g, f"c{i}") for i in range(rng.randint(1, 5))
            )
            m = mcg.h1_action(letters)
            assert mcg.is_symplectic(m, g)


def test_chain_curves_shape():
    for g in (1, 2, 3):
        chain = mcg.chain_curves(g)
        assert len(chain) == 2 * g
        # consecutive chain curves meet once, distant ones not at all
        for i, c in enumerate(chain):
            for j, d in enumerate(chain):
                want = 1 if abs(i - j) == 1 else 0
                assert abs(pairing(c.h1_class, d.h1_class)) == want


def test_chain_relation_identity():
    start = time.time()
    for g in (1, 2, 3, 4):
        assert mcg.verify_chain_relation(g)
    assert time.time() - start < 1.0


def test_chain_relation_sharp_at_genus_one():
    w = tuple(mcg.chain_curves(1))
    g = 1
    power = 4 * g + 1
    m = intmat.mat_pow(mcg.h1_action(w), power)
    assert not intmat.is_identity(m)


def expand(blocks, word):
    """The positive word the relator blocks of word stand for, letter for letter.

    Block j belongs to the j-th letter of word from the end, lists the chain
    images S c_1, ..., S c_2g, and reads mcg.RELATOR,
    c2 ... c2g (c1 ... c2g)^(4g+1), with c_k replaced by S c_k.
    """
    letters = []
    for block, letter in zip(blocks, reversed(word), strict=True):
        conj = [Curve(f"{letter.name}~c{k + 1}", tuple(v)) for k, v in enumerate(block)]
        g = len(conj) // 2
        letters.extend(conj[1:] + conj * (4 * g + 1))
    return tuple(letters)


def plan_blocks(plan):
    """The closed word a plan document's blocks undo, and the blocks' chain images.

    The blocks run last letter first, so the closed word is their letters
    read backwards.
    """
    blocks = plan["trivializing_handles"]["blocks"]
    closed = tuple(Curve(b["letter"]["curve"], tuple(b["letter"]["class"]))
                   for b in reversed(blocks))
    return closed, [b["chain_images"] for b in blocks]


def letter_by_letter_trivialization(word):
    """The positive inverse word built letter by letter, last letter first.

    Per letter c, conj lists the classes S c_1, ..., S c_2g for the frame S
    of c, each a matrix-vector product, and the word gains
    conj[1:] + conj * (4g + 1).
    """
    g = word[0].genus
    letters = []
    for curve in reversed(word):
        s = mcg.symplectic_frame(curve)
        conj = [Curve(f"{curve.name}~{d.name}", tuple(mat_vec(s, list(d.h1_class))))
                for d in mcg.chain_curves(g)]
        letters.extend(conj[1:] + conj * (4 * g + 1))
    return tuple(letters)


def test_blocks_expand_to_the_letter_by_letter_trivialization():
    # the plan keeps one block per letter and a count; expanded, the
    # blocks give the word built letter by letter, and the count its length
    start = time.time()
    rng = random.Random(83)
    for g in range(1, 9):
        chain = mcg.chain_curves(g)
        for _ in range(2):
            word = tuple(rng.choice(chain) for _ in range(rng.randint(1, 3)))
            blocks = mcg.trivialize(word)
            assert len(blocks) == len(word)
            assert expand(blocks, word) == letter_by_letter_trivialization(word)
            book = fillings.OpenBook(g, word)
            plan = fillings.build_concave(book)
            closed, plan_images = plan_blocks(plan)
            assert plan["stabilizations"] == (1 if g == 1 else 0)  # genus 1 is stabilized
            assert closed == (fillings.stabilize_openbook(book).monodromy if g == 1 else word)
            assert expand(plan_images, closed) == letter_by_letter_trivialization(closed)
            assert plan["trivializing_handles"]["count"] == len(expand(plan_images, closed))
            assert plan["relator_blocks"] == len(closed)
    assert time.time() - start < 1.0


def test_positive_inverse_length_and_identity():
    start = time.time()
    rng = random.Random(41)
    for g in (1, 2):
        want_len = 2 * g * (4 * g + 2) - 1
        for i in range(10):
            c = random_primitive_curve(rng, g, f"r{i}")
            word = (c,)
            (block,) = mcg.trivialize(word)
            assert mcg.relator_letters(g) == want_len
            w = expand([block], word)
            assert len(w) == want_len
            assert intmat.is_identity(mcg.h1_action(word + w))
    assert time.time() - start < 1.0


def test_trivialize_length_and_action():
    chain = mcg.chain_curves(2)
    word = tuple(chain[:3])
    per_letter = 2 * 2 * (4 * 2 + 2) - 1
    t = expand(mcg.trivialize(word), word)
    assert len(t) == len(word) * per_letter
    assert intmat.is_identity(mcg.h1_action(word + t))


def inverse_action(word):
    """Reference action of the inverse of word: I - c (Jc)^T per letter, last letter first."""
    n = 2 * word[0].genus
    result = intmat.identity(n)
    for c in reversed(word):
        inverse = [[2 * int(i == j) - x for j, x in enumerate(row)]
                   for i, row in enumerate(transvection(c))]
        result = intmat.mat_mul(inverse, result)
    return result


def test_trivialize_action_matches_letter_by_letter_oracle():
    # the runtime relies on the chain relation alone: the recorded letters,
    # applied one by one, must act as the inverse word and cancel the word
    rng = random.Random(71)
    e = Curve("e", (0, 1, 0, 1))  # mazur_inflated.palf's non-chain curve
    for g in range(1, 6):
        for _ in range(4):
            pool = mcg.chain_curves(g) + [random_primitive_curve(rng, g, f"r{i}") for i in range(3)]
            if g == 2:
                pool.append(e)
            word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            t = expand(mcg.trivialize(word), word)
            assert mcg.h1_action(t) == inverse_action(word)
            assert intmat.is_identity(mcg.h1_action(word + t))


def test_block_letters_are_the_frame_images_of_the_chain():
    rng = random.Random(73)
    for g in (1, 2, 3):
        c = random_primitive_curve(rng, g)
        s = mcg.symplectic_frame(c)
        images = [tuple(mat_vec(s, list(d.h1_class))) for d in mcg.chain_curves(g)]
        word = (c,)
        (block,) = mcg.trivialize(word)
        assert block == tuple(images)
        want = images[1:] + images * (4 * g + 1)
        assert [d.h1_class for d in expand([block], word)] == want


def test_trivialize_rejects_the_empty_word():
    with pytest.raises(ValueError):
        mcg.trivialize(())


def frame_test_classes(rng, g):
    """Primitive classes with negative entries, entries above 100 and zero pairs."""
    yield (1,) + (0,) * (2 * g - 1)
    yield (0,) * (2 * g - 1) + (-1,)
    for _ in range(6):
        while True:
            bound = rng.choice((3, 150, 10**6))
            v = [rng.randint(-bound, bound) for _ in range(2 * g)]
            for i in range(g):
                if rng.random() < 0.4:
                    v[2 * i] = v[2 * i + 1] = 0
            if any(v) and intmat.is_primitive(v):
                yield tuple(v)
                break


def test_symplectic_frame_first_column():
    rng = random.Random(53)
    seen = []
    for g in range(1, 9):
        for cls in frame_test_classes(rng, g):
            s = mcg.symplectic_frame(Curve("c", cls))
            first_col = [s[i][0] for i in range(2 * g)]
            assert first_col == list(cls)
            assert mcg.is_symplectic(s, g)
            seen.append(cls)
    assert any(max(map(abs, cls)) > 100 for cls in seen)
    assert any(min(cls) < 0 for cls in seen)
    assert any(cls[i] == cls[i + 1] == 0 for cls in seen for i in range(0, len(cls), 2))
    for g in range(1, 9):
        e1 = (1,) + (0,) * (2 * g - 1)
        assert mcg.symplectic_frame(Curve("a1", e1)) == intmat.identity(2 * g)


def test_symplectic_frame_rejects_imprimitive_classes():
    with pytest.raises(ValueError):
        Curve("twice", (2, 0, 0, 4))
    for cls in ((2, 0, 0, 4), (0, 0, 3, -6), (0, 0, 0, 0)):
        # a stand-in for a Curve, which would refuse the class itself
        with pytest.raises(ValueError):
            mcg.symplectic_frame(SimpleNamespace(genus=2, h1_class=cls))
