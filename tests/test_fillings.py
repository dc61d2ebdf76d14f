"""Open books, fibration words, and concave filling plans."""

import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corktwist import intmat, mcg
from corktwist.base import InputError
from corktwist.fillings import (
    FillingError,
    OpenBook,
    build_concave,
    palf_to_openbook,
    parse_palf,
    plan_concave,
    stabilize_openbook,
)

from test_mcg import expand, plan_blocks


def chain_positive_word(g, letters):
    chain = mcg.chain_curves(g)
    return tuple(chain[i] for i in letters)


def test_flagship_tally_genus_two_three_letters():
    word = chain_positive_word(2, (0, 1, 2))
    plan = build_concave(OpenBook(2, word))
    per_letter = 2 * 2 * (4 * 2 + 2) - 1
    assert per_letter == 39
    # length formula vs direct enumeration
    assert plan["trivializing_handles"]["count"] == 117
    closed, images = plan_blocks(plan)
    assert closed == word
    trivializing = expand(images, closed)
    assert len(trivializing) == len(word) * per_letter
    assert plan["relator_blocks"] == 3
    # euler characteristic two ways
    assert plan["euler_char"] == 116
    assert plan["euler_char"] == 1 + 117 + (2 - 2 * 2)
    # the trivialized word really closes the fibration
    assert intmat.is_identity(mcg.h1_action(word + trivializing))


def test_plan_euler_invariant_random_words():
    rng = random.Random(97)
    for g in (2, 3, 1):
        chain = mcg.chain_curves(g)
        for _ in range(4):
            letters = tuple(chain[rng.randrange(len(chain))] for _ in range(rng.randint(1, 4)))
            plan = build_concave(OpenBook(g, letters))
            # a genus-1 page is stabilized once to genus 2, which adds one
            # extender letter to the word the relator blocks undo
            stabilized = 1 if g == 1 else 0
            fiber_genus = g + stabilized
            assert plan["stabilizations"] == stabilized
            assert plan["fiber_genus"] == fiber_genus
            assert plan["relator_blocks"] == len(letters) + stabilized
            per_letter = 2 * fiber_genus * (4 * fiber_genus + 2) - 1
            handles = plan["trivializing_handles"]["count"]
            assert handles == plan["relator_blocks"] * per_letter
            assert plan["euler_char"] == 1 + handles + (2 - 2 * fiber_genus)


def test_empty_monodromy_needs_no_trivializing_handles():
    plan = build_concave(OpenBook(3, ()))
    assert plan["trivializing_handles"]["blocks"] == []
    assert plan["trivializing_handles"]["count"] == 0
    assert plan["relator_blocks"] == 0


def test_plan_shares_nothing_between_calls(mark_everywhere):
    """Editing a returned plan document reaches no later one."""
    book = OpenBook(1, chain_positive_word(1, (0, 1)))
    plan = build_concave(book)
    pristine = copy.deepcopy(plan)
    mark_everywhere(plan)
    assert "marked" in plan["trivializing_handles"]["blocks"][0]["chain_images"][0]
    assert build_concave(book) == pristine


@pytest.mark.parametrize("genus, classes", [
    (1, [(1, 0), (0, 1), (1, 0), (1, 0), (0, 1)]),
    (3, [(1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 1, 0), (0, 0, 1, 0, 1, 0),
         (1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]),
], ids=["genus-1-stabilized", "genus-3"])
def test_repeated_letters_get_the_per_letter_chain_images(genus, classes):
    """A frame built once per class gives every block of that class its own images."""
    book = OpenBook(genus, tuple(mcg.Curve(f"x{i}", cls) for i, cls in enumerate(classes)))
    closed = stabilize_openbook(book) if genus < 2 else book
    letters = list(reversed(closed.monodromy))
    doc = build_concave(book)
    blocks = doc["trivializing_handles"]["blocks"]
    assert [b["chain_images"] for b in blocks] == [
        [list(v) for v in mcg._chain_images(mcg.symplectic_frame(c))] for c in letters
    ]
    # no two blocks share a list, though repeated letters share a frame
    lists = [id(v) for b in blocks for v in [b["chain_images"], *b["chain_images"]]]
    assert len(set(lists)) == len(lists)
    # the count-level plan is the document without its chain images
    for b in blocks:
        del b["chain_images"]
    assert plan_concave(book) == doc


def test_low_genus_pages_get_stabilized():
    word = chain_positive_word(1, (0, 1))
    plan = build_concave(OpenBook(1, word))
    assert plan["fiber_genus"] == 2
    assert plan["stabilizations"] == 1
    assert plan["relator_blocks"] == len(word) + 1  # the extender letter joins the word
    stabilized = stabilize_openbook(OpenBook(1, word)).monodromy
    assert plan_blocks(plan)[0] == stabilized
    per_letter = 2 * 2 * (4 * 2 + 2) - 1
    assert plan["trivializing_handles"]["count"] == 3 * per_letter


def test_stabilization_extender_class():
    book = OpenBook(1, chain_positive_word(1, (0,)))
    up = stabilize_openbook(book)
    assert up.genus == 2
    assert list(up.monodromy[-1].h1_class) == [1, 0, 1, 0]


def test_open_book_validation():
    word = chain_positive_word(2, (0,))
    with pytest.raises(FillingError, match="^curve 'c1' lives on genus 2, page has genus 1$"):
        OpenBook(1, word)  # genus mismatch
    mixed = (mcg.chain_curves(3)[0], mcg.chain_curves(2)[1])
    with pytest.raises(FillingError, match="^curve 'c2' lives on genus 2, page has genus 3$"):
        OpenBook(3, mixed)  # one curve of another genus
    with pytest.raises(FillingError):
        OpenBook(-1, ())  # negative genus


def test_palf_fixture_parses(load):
    p = parse_palf(load("mazur.palf"))
    assert p.open_book.genus == 2
    assert len(p.open_book.monodromy) == 4


def test_inflated_palf_fixture(load):
    p = parse_palf(load("mazur_inflated.palf"))
    assert len(p.open_book.monodromy) == 5


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
    # an error in the word, or a handles count the word contradicts, names its line
    for text, message in [
        ("genus 2\n\nword T(c1) T'(c1)\n", "line 3: negative letter \"T'(c1)\": "),
        ("genus 2\nword T(c1) X\n", "line 2: bad word letter 'X'; expected T(<curve>)"),
        ("# c9 is past genus 2\ngenus 2\nword T(c9)\n", "line 3: unknown curve 'c9' in word"),
        ("genus 2\nhandles 1 3\nword T(c1) T(c2) T(c3) T(c4)\n",
         "line 2: handles 1 3 give euler characteristic 3 but "),
        # genus 1 is stabilized to genus 2, which adds the chain curve c3
        ("genus 1\ncurve c3 = [1,1]\nword T(c3)\n",
         "line 2: 'c3' is the chain curve that stabilizing to genus 2 adds; "),
    ]:
        with pytest.raises(FillingError) as info:
            parse_palf(text)
        assert str(info.value).startswith(message), info.value


def test_inflated_palf_plan_tallies(load):
    plan = build_concave(palf_to_openbook(parse_palf(load("mazur_inflated.palf"))))
    assert plan["relator_blocks"] == 5
    assert plan["trivializing_handles"]["count"] == 5 * 39


def test_plan_doc_serializes(load):
    p = parse_palf(load("mazur.palf"))
    import json
    doc = build_concave(palf_to_openbook(p))
    json.dumps(doc)
    handles = doc["trivializing_handles"]
    assert handles["framing_per_letter"] == -1
    assert handles["count"] == 4 * 39
    assert handles["relator"] == mcg.RELATOR
    # one block per letter, last letter first, each with its 2g chain images;
    # a genus-2 page is not stabilized, so the closed word is the source word
    letters = list(reversed(palf_to_openbook(p).monodromy))
    assert [b["letter"] for b in handles["blocks"]] == [
        {"curve": c.name, "class": list(c.h1_class)} for c in letters
    ]
    assert [b["chain_images"] for b in handles["blocks"]] == [
        [list(v) for v in mcg._chain_images(mcg.symplectic_frame(c))] for c in letters
    ]
    assert {a["name"] for a in doc["assumptions"]} >= {
        "symplectic-structure", "b2plus-at-least-2",
    }
    assert all(a["status"] == "declared-unverified" for a in doc["assumptions"])


def test_empty_word_plan():
    book = OpenBook(2, ())
    plan = build_concave(book)
    assert plan["trivializing_handles"]["count"] == 0
    assert plan["euler_char"] == 1 + 0 + (2 - 2 * 2)


# lines spelled from the PALF grammar's own tokens, and from some it refuses
_PALF_HEADS = ("genus", "handles", "curve", "word", "word", "#", "T(c1)")
_PALF_ARGS = (
    "0", "1", "2", "-1", "64", "65", "99999999999999999999", "1.5", "\u0663", "=",
    "e", "c1", "c5", "T(c1)", "T(c2)", "T(c4)", "T(e)", "T(c99)", "T'(c1)", "T(", ")",
    "[0, 1, 0, 1]", "[0, 1]", "[0, 2, 0, 0]", "[0, 0, 0, 0]", "[true, 0, 0, 0]", "[[[[",
    "\0", "# comment",
)


def test_parse_palf_is_total(spelled):
    """Text of PALF tokens parses, or raises an InputError and nothing else."""

    @settings(max_examples=150)
    @given(st.binary(max_size=40))
    @example(bytes([0, 9, 12, 53]))  # genus 2, word T(c1): a fibration word
    def parsed(data):
        try:
            parse_palf(spelled(data, _PALF_HEADS, _PALF_ARGS))
        except InputError:
            pass

    parsed()
