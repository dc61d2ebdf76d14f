"""The one JSON writer: dump_json spells what json.dumps spells."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corktwist.base import dump_json


def reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)


# documents come from flat bytes read by _document, with strings from a drawn
# pool: hypothesis draws and shrinks these several times faster than a
# recursive strategy.  The fixed atoms hold quotes, backslashes, control
# characters, the line separators JSON leaves alone, non-ASCII and astral
# text, ints past 64 bits, bools, null and floats.
_ATOMS = (None, True, False, 0, -1, 7, 2**64, -(2**64) - 1, 10**30, 1.5, -0.0,
          float("inf"), float("nan"), "", '"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f",
          "\u2028\u2029", "Θ+(0)", "τ*c+(ξ) ≠ ±1", "\U0001f600", 'a "b" \\c')


def _document(data: bytes, pool: list[str], at: int = 0) -> tuple[object, int]:
    """The document that data spells from index at, and the index past it.

    A byte b opens a list (b % 8 == 0), a tuple (1) or an object (2) of
    b // 8 % 4 members, each object member led by a byte naming its key in
    the atoms' strings and pool; b % 8 == 3 is a string of pool, any other
    byte an atom, and past the end every value is null.
    """
    if at >= len(data):
        return None, at
    b, at = data[at], at + 1
    texts = [a for a in _ATOMS if isinstance(a, str)] + pool
    kind = b % 8
    if kind == 3:
        return texts[b // 8 % len(texts)], at
    if kind > 3:
        return _ATOMS[b // 8 % len(_ATOMS)], at
    members = []
    for _ in range(b // 8 % 4):
        key = ""
        if kind == 2:
            key = texts[data[at] % len(texts)] if at < len(data) else ""
            at += 1
        value, at = _document(data, pool, at)
        members.append((key, value))
    if kind == 2:
        return dict(members), at
    values = [value for _, value in members]
    return (values if kind == 0 else tuple(values)), at


def _documents(data: bytes, pool: list[str]) -> list:
    """The list of the documents that data spells one after another."""
    docs, at = [], 0
    while at < len(data):
        doc, at = _document(data, pool, at)
        docs.append(doc)
    return docs


JSON_DOCS = st.builds(_documents, st.binary(max_size=64), st.lists(st.text(max_size=6), max_size=4))


@settings(max_examples=150)
@given(JSON_DOCS)
def test_dump_json_spells_what_json_dumps_spells(doc):
    assert dump_json(doc) == reference(doc)


def test_dump_json_on_empty_containers_at_every_depth():
    doc = {"": {}, "a": [], "b": [[], {}, [[]], ({},)], "c": {"d": {"e": {}}}, "f": ()}
    assert dump_json(doc) == reference(doc)
    for empty in ({}, [], ()):
        assert dump_json(empty) == reference(empty)


def test_dump_json_on_leaves():
    doc = [2**64, -(2**70) - 1, 0, True, False, None, 1.5, float("inf"),
           'say "Θ+(0)" \\ \x01  τ*c+(ξ)']
    assert dump_json(doc) == reference(doc)
    for leaf in doc:
        assert dump_json(leaf) == reference(leaf)


@pytest.mark.parametrize("doc", [{1: "a"}, {None: 0}, {"a": [{(1, 2): 0}]}, {True: 1}],
                         ids=["int", "none", "nested-tuple", "bool"])
def test_dump_json_refuses_a_key_that_is_not_a_string(doc):
    # json.dumps would convert the key; no document the command line emits has one
    with pytest.raises(TypeError):
        dump_json(doc)
