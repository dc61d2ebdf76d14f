"""Open books, fibration words, and concave filling plans."""

import random

import pytest

from corktwist import front, intmat, kirby, mcg
from corktwist.fillings import (
    FillingError,
    OpenBook,
    build_concave,
    extend_with_cobordism,
    palf_to_openbook,
    parse_palf,
    stabilize_openbook,
)
from corktwist.mcg import Surface, TwistWord


def chain_positive_word(g, letters):
    chain = mcg.chain_curves(g)
    return TwistWord(tuple((chain[i], 1) for i in letters))


def test_flagship_tally_genus_two_three_letters():
    word = chain_positive_word(2, (0, 1, 2))
    plan = build_concave(OpenBook(Surface(2, 1), word))
    per_letter = 2 * 2 * (4 * 2 + 2) - 1
    assert per_letter == 39
    # length formula vs direct enumeration
    assert len(plan.trivializing_handles) == 117
    assert len(plan.trivializing_handles.letters) == len(word) * per_letter
    assert plan.relator_blocks == 3
    # euler characteristic two ways
    assert plan.euler_char == 116
    assert plan.euler_char == 1 + 117 + (2 - 2 * 2)
    # the trivialized word really closes the fibration
    total = word.concat(plan.trivializing_handles)
    assert intmat.is_identity(mcg.h1_action(total))


def test_plan_euler_invariant_random_words():
    rng = random.Random(97)
    for g in (2, 3):
        chain = mcg.chain_curves(g)
        for _ in range(4):
            letters = tuple(
                (chain[rng.randrange(len(chain))], 1)
                for _ in range(rng.randint(1, 4))
            )
            plan = build_concave(OpenBook(Surface(g, 1), TwistWord(letters)))
            assert plan.euler_char == 1 + len(plan.trivializing_handles) + (2 - 2 * g)
            assert plan.fiber_genus == g
            assert plan.stabilizations == 0


def test_low_genus_pages_get_stabilized():
    word = chain_positive_word(1, (0, 1))
    plan = build_concave(OpenBook(Surface(1, 1), word))
    assert plan.fiber_genus == 2
    assert plan.stabilizations == 1
    assert plan.relator_blocks == len(word) + 1  # the extender letter joins the word
    per_letter = 2 * 2 * (4 * 2 + 2) - 1
    assert len(plan.trivializing_handles) == 3 * per_letter


def test_stabilization_extender_class():
    book = OpenBook(Surface(1, 1), chain_positive_word(1, (0,)))
    up = stabilize_openbook(book)
    assert up.page.genus == 2
    last_curve, exp = up.monodromy.letters[-1]
    assert exp == 1
    assert list(last_curve.h1_class) == [1, 0, 1, 0]


def test_open_book_validation():
    word = chain_positive_word(2, (0,))
    with pytest.raises(FillingError):
        OpenBook(Surface(1, 1), word)  # genus mismatch
    neg = TwistWord(((mcg.chain_curves(2)[0], -1),))
    with pytest.raises(FillingError):
        OpenBook(Surface(2, 1), neg)  # not positive


def test_multi_boundary_page_cannot_be_planned():
    # the binding must be connected: one boundary circle, no more, no less
    word = chain_positive_word(2, (0,))
    for boundary in (0, 2, 3):
        with pytest.raises(FillingError) as info:
            OpenBook(Surface(2, boundary), word)
        assert "boundary circles" in str(info.value)


def test_palf_fixture_parses(load):
    p = parse_palf(load("mazur.palf"))
    assert p.page_genus == 2
    assert len(p.open_book.monodromy) == 4
    assert p.source == {"one_handles": 1, "two_handles": 1}


def test_inflated_palf_fixture(load):
    p = parse_palf(load("mazur_inflated.palf"))
    assert len(p.open_book.monodromy) == 5
    assert p.source == {"one_handles": 1, "two_handles": 2}


def test_palf_grammar_rejections():
    with pytest.raises(FillingError):
        parse_palf("word T(c1)\n")  # missing genus
    with pytest.raises(FillingError):
        parse_palf("genus 2\n")  # missing word
    with pytest.raises(FillingError):
        parse_palf("genus 2\nword T'(c1)\n")  # negative letter
    with pytest.raises(FillingError):
        parse_palf("genus 2\nword T(zz)\n")  # unknown curve
    with pytest.raises(FillingError):
        parse_palf("genus 2\ncurve e = [2,0,2,0]\nword T(e)\n")  # imprimitive
    with pytest.raises(FillingError):
        parse_palf("genus 2\ncurve e = [1,0]\nword T(e)\n")  # wrong length
    with pytest.raises(FillingError):
        parse_palf("genus 2\nhandles 1 2\nword T(c1)\n")  # 2 != (1 - 4) + 1
    with pytest.raises(FillingError):
        parse_palf("genus 2\nhandles -1 -1\nword T(c1) T(c2) T(c3) T(c4)\n")  # negative


def test_extend_absorbs_stein_cobordism(load):
    cork = kirby.parse_kirby(load("mazur.kirby"))
    over_handle = front.parse_front(load("trefoil_handle.front"))
    record = kirby.inflate(cork, over_handle, 1)
    p = parse_palf(load("mazur_inflated.palf"))
    plan = extend_with_cobordism(record, p)
    assert plan.extension_absorbed
    assert plan.relator_blocks == 5
    assert len(plan.trivializing_handles) == 5 * 39


def test_extend_rejects_non_stein_attachment(load):
    cork = kirby.parse_kirby(load("mazur.kirby"))
    over_handle = front.parse_front(load("trefoil_handle.front"))
    record = kirby.inflate(cork, over_handle, 0)  # realizable, not exact
    p = parse_palf(load("mazur_inflated.palf"))
    with pytest.raises(FillingError) as info:
        extend_with_cobordism(record, p)
    assert "not Stein" in str(info.value)


def test_plan_doc_serializes(load):
    p = parse_palf(load("mazur.palf"))
    plan = build_concave(palf_to_openbook(p))
    import json
    doc = plan.to_doc()
    json.dumps(doc)
    assert doc["trivializing_handles"]["framing_per_letter"] == -1
    assert doc["trivializing_handles"]["count"] == len(plan.trivializing_handles)
    assert {a["name"] for a in doc["assumptions"]} >= {
        "symplectic-structure", "b2plus-at-least-2",
    }
    assert all(a["status"] == "declared-unverified" for a in doc["assumptions"])


def test_empty_word_plan():
    book = OpenBook(Surface(2, 1), TwistWord(()))
    plan = build_concave(book)
    assert len(plan.trivializing_handles) == 0
    assert plan.euler_char == 1 + 0 + (2 - 2 * 2)
