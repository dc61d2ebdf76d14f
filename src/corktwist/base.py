"""What every reader of the package shares: the input-error type, input
files read as UTF-8, paths spelled for messages, immutable records,
numbered lines, plain integers, JSON read with unique keys, and the one
writer of indented JSON.

This module imports nothing of the package, so that a module needing a
record or a reader does not load the front parser with it.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Callable, Iterator
from pathlib import Path


class InputError(ValueError):
    """Input that cannot be read; a given line number prefixes the text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def spell_path(path: str | Path) -> str:
    """path as a message spells it: a byte that is not UTF-8, which a str path
    holds as a lone surrogate, as \\xNN, whatever the stream's encoding."""
    text = os.fspath(path)
    try:
        raw = text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # a surrogate that stands for no byte
        raw = text.encode("utf-8", "backslashreplace")
    return raw.decode("utf-8", "backslashreplace")


def read_text(path: str | Path, line: int | None = None, shown: str | None = None) -> str:
    """The text of the file at path, read as UTF-8.

    A file that cannot be opened or decoded, or a path that no file can
    have, raises InputError, at the given line of the file naming path;
    the message spells the path as `shown` when one is given.
    """
    name = spell_path(path) if shown is None else shown
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc.strerror}", line) from None
    except ValueError as exc:  # undecodable, or a NUL in the path
        raise InputError(f"cannot read {name}: {exc}", line) from None


class Record:
    """An immutable record: equality, hashing and repr over the fields it names.

    A subclass lists its fields in `__slots__` and `_fields`, checks its
    arguments in `__init__` and stores them with `_assign`; assigning a
    field afterwards raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


def _plain(tok: str) -> bool:
    """ASCII and no `_`: int() and Fraction() also take digit separators and
    non-ASCII digits, which no input may spell a number with."""
    return tok.isascii() and "_" not in tok


def parse_int(tok: str) -> int:
    """int(tok) for a plain ASCII spelling; anything else raises ValueError."""
    if not _plain(tok):
        raise ValueError(f"invalid integer {tok!r}: ASCII digits only, no '_'")
    return int(tok)


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line number from 1, line) with `#` comments and blank lines dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, for json.loads' object_pairs_hook.

    A repeated key raises ValueError: a document must not say one thing
    twice and let the last spelling win.
    """
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return doc


_SURROGATE = re.compile("[\ud800-\udfff]")


def load_json(text: str, error: Callable[[str], Exception], where: str = "",
              **options) -> object:
    """json.loads with unique_keys; JSON that is malformed, holds an integer too
    long to convert, is nested too deeply or spells a lone surrogate, which no
    UTF-8 output can write, raises error, prefixed with where."""
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys, **options)
    except ValueError as exc:
        raise error(f"{where}not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{where}JSON document is nested too deeply") from None
    # text read as UTF-8 holds no surrogate, so only a \u escape spells one;
    # the walk keeps its own stack, as a document json.loads took may be deep
    stack = [doc] if "\\u" in text else []
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            stack += [*v, *v.values()]
        elif isinstance(v, list):
            stack += v
        elif isinstance(v, str) and _SURROGATE.search(v):
            raise error(f"{where}not valid JSON: a string spells a lone surrogate")
    return doc


_quote = json.encoder.encode_basestring


def dump_json(doc: object) -> str:
    """json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False), built faster.

    The standard library writes indented JSON with its pure-Python
    generator encoder.  This writer appends the same pieces to one list
    and joins it once: strings and keys through the C escaper, ints through
    int.__repr__, and any other leaf (a float) through json.dumps, so the
    two agree on every JSON value whose keys are strings.  A key that is
    not a string raises TypeError, where json.dumps would convert it.
    """
    pieces: list[str] = []
    _write(doc, "\n", pieces.append)
    return "".join(pieces)


def _write(v: object, indent: str, put: Callable[[str], None]) -> None:
    """Put the pieces of v at the given newline-and-indent.

    A module function, not a closure: a closure that calls itself is a
    reference cycle, which would keep every call's pieces alive until the
    cyclic collector runs.
    """
    if isinstance(v, str):
        put(_quote(v))
    elif v is None:
        put("null")
    elif v is True:
        put("true")
    elif v is False:
        put("false")
    elif isinstance(v, int):
        put(int.__repr__(v))
    elif isinstance(v, dict):
        if not v:
            put("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(v):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + _quote(key) + ": ")
            _write(v[key], inner, put)
            sep = "," + inner
        put(indent + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            put("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in v:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(indent + "]")
    else:
        put(json.dumps(v))
