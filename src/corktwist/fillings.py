"""Concave-filling planner over the homological twist calculus.

A Stein domain is presented here by a positive fibration word: a genus-g
page with one boundary circle and an ordered tuple of non-separating
curves, one right-handed twist along each.  Only one-boundary pages are
accepted, so the binding is always connected.  The planner runs the
standard closing pipeline on the boundary fibration:

* cap the binding with a single 0-framed 2-handle (the piece called v0),
* undo the monodromy with one chain-relator block per letter, each block
  realized by -1-framed handles along its twist curves,
* glue a trivial surface bundle over the disk as the closing piece.

Everything is tallied at the level of handle counts and the homological
monodromy action; facts the construction borrows from the literature
(existence of the symplectic structure, b2+ >= 2, relative minimality,
a section) are emitted as declared-unverified assumptions instead of
being silently used, their texts read from the one table in base.
plan_concave gives that count-level plan, which human `fill` and
`certify` read; build_concave adds each block's chain images (the
symplectic frame of its letter applied to the chain) and gives the JSON
document that `fill --format doc` prints, the one output that shows them.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from . import mcg
from .base import (PLAN_ASSUMPTIONS, InputError, Record, declared, load_json,
                   numbered_lines, parse_int)
from .mcg import Curve


class FillingError(InputError):
    """A planning input violates the fibration contracts."""


# the document of `fill --format doc` holds (2 max(g, 2))^2 chain-image
# integers per letter, and builds them in about linear time: a word is
# refused past this many, as it is read, whatever the command
MAX_PLAN_ENTRIES = 2**20


# -- fibration data types -----------------------------------------------------

class OpenBook(Record):
    """Boundary fibration: a genus-g page with one boundary circle and a positive word.

    The monodromy is the tuple of curves twisted along, in order, each on
    the page.  Only one-boundary pages are accepted, so the binding is
    connected and a single 2-handle caps it.
    """

    __slots__ = _fields = ("genus", "monodromy")
    genus: int
    monodromy: tuple[Curve, ...]

    def __init__(self, genus: int, monodromy: tuple[Curve, ...]) -> None:
        if genus < 0:
            raise FillingError(f"page genus must not be negative, got {genus}")
        for c in monodromy:
            if c.genus != genus:
                raise FillingError(
                    f"curve {c.name!r} lives on genus {c.genus}, page has genus {genus}")
        self._assign(genus, monodromy)

    def to_doc(self) -> dict:
        # each letter is one right-handed twist: the constant 1 keeps the document's fields
        return {
            "page": {"genus": self.genus, "boundary": 1},
            "monodromy": [{"curve": c.name, "class": list(c.h1_class), "exponent": 1}
                          for c in self.monodromy],
            "binding_components": 1,
        }


class PALF(NamedTuple):
    """Positive allowable fibration data for a Stein domain over the disk.

    The vanishing cycles are the monodromy letters in attaching order;
    the Curve constructor already refuses imprimitive classes, which is
    the allowability condition (no separating cycles).
    """

    open_book: OpenBook


# -- operations ---------------------------------------------------------------

def palf_to_openbook(p: PALF) -> OpenBook:
    """Read the boundary open book off the fibration data."""
    return p.open_book


def _pad_curve(c: Curve, new_genus: int) -> Curve:
    pad = 2 * new_genus - len(c.h1_class)
    return Curve(c.name, c.h1_class + (0,) * pad)


def stabilize_openbook(ob: OpenBook) -> OpenBook:
    """Add a handle to the page and one positive twist over it.

    The new twist runs along the curve extending the chain pattern to the
    new handle (class a_g + a_{g+1} on the enlarged surface); existing
    letters keep their classes, extended by zeros.
    """
    g = ob.genus
    new_g = g + 1
    extender = mcg.chain_curve(new_g, 2 * g + 1)  # class a_g + a_{g+1}
    letters = tuple(_pad_curve(c, new_g) for c in ob.monodromy) + (extender,)
    return OpenBook(new_g, letters)


def _plan(ob: OpenBook) -> tuple[tuple[Curve, ...], dict]:
    """The closed word and the count-level plan of ob (plan_concave)."""
    closed = ob
    while closed.genus < 2:
        closed = stabilize_openbook(closed)
    g, letters = closed.genus, closed.monodromy
    if letters and not mcg.verify_chain_relation(g):
        raise ArithmeticError(f"the chain relation fails at genus {g}")
    handles = len(letters) * mcg.relator_letters(g)
    return letters, {
        "v0": {"two_handles": 1, "framing_rel_page": 0, "euler_char": 1, "along": "binding"},
        "trivializing_handles": {
            "framing_per_letter": -1,
            "count": handles,
            "relator": mcg.RELATOR,
            "blocks": [{"letter": {"curve": c.name, "class": list(c.h1_class)}}
                       for c in reversed(letters)],
        },
        "closing_piece": {"fiber_genus": g, "euler_char": 2 - 2 * g,
                          "bundle": "closed fiber x disk"},
        "euler_char": 1 + handles + (2 - 2 * g),
        "fiber_genus": g,
        "relator_blocks": len(letters),
        "assumptions": declared(*PLAN_ASSUMPTIONS),
        "stabilizations": g - ob.genus,
        "source_open_book": ob.to_doc(),
    }


def plan_concave(ob: OpenBook) -> dict:
    """Plan the concave filling of the fibered boundary, at the level of counts.

    Pages of genus below 2 are stabilized first, so the closed fibration
    has fiber genus at least 2.  Capping the binding keeps the twist word
    letter for letter on the closed fiber, and one relator block per
    letter closes it, last letter first; the empty word needs none.  Each
    block's mcg.RELATOR letters stand for -1-framed 2-handles along curves
    sitting in a fiber, and they cancel the letter because the chain
    relation holds at the fiber genus, which is checked here.  The cap v0
    is one 0-framed 2-handle along the binding and the closing piece is
    the closed fiber times a disk.  A block names only its letter, so no
    symplectic frame is built; human `fill` and `certify` read this plan.
    Each call builds a fresh document.
    """
    return _plan(ob)[1]


def build_concave(ob: OpenBook) -> dict:
    """The plan document `fill --format doc` prints: plan_concave with chain images.

    Each block gains the chain images mcg.trivialize gives its letter,
    the classes its relator runs along.  Every block gets lists of its
    own, so editing one block of the document reaches no other.
    """
    word, plan = _plan(ob)
    if word:
        blocks = plan["trivializing_handles"]["blocks"]
        for block, images in zip(blocks, mcg.trivialize(word)):
            block["chain_images"] = [list(v) for v in images]
    return plan


# -- fixture text grammar -----------------------------------------------------

def parse_palf(text: str) -> PALF:
    """Parse the small fixture grammar for fibration words.

    Lines: one `genus G`, an optional `handles <one> <two>`, optional
    `curve <name> = [..]` declarations (one per name), and one
    `word T(x) T(y) ...` line.
    Chain curves c1..c2g are available without declaration, each built
    when the word first names it, and a curve line may not redefine one,
    nor at genus 1 the c3 that stabilizing adds; negative letters T'(x)
    are rejected since the word must stay positive.  A handles line must
    give the fibration's Euler characteristic:
    1 - one + two == (1 - 2G) + letters.  A word may have at most
    MAX_PLAN_ENTRIES // (2 max(G, 2))^2 letters.
    """
    genus: int | None = None
    chain: dict[str, int] = {}  # chain curve names of the genus, built on first use
    handles: tuple[int, int] | None = None
    handles_at = 0
    named: dict[str, Curve] = {}
    word_line: str | None = None
    word_at = 0
    for lineno, line in numbered_lines(text):
        head, _, rest = line.partition(" ")
        if head == "genus":
            if genus is not None:
                raise FillingError("second genus line", lineno)
            try:
                genus = parse_int(rest.strip())
            except ValueError:
                raise FillingError(f"bad genus {rest.strip()!r}", lineno)
            if not 1 <= genus <= mcg.MAX_GENUS:
                raise FillingError(
                    f"genus must be between 1 and {mcg.MAX_GENUS}, got {genus}", lineno
                )
            chain = {f"c{k}": k for k in range(1, 2 * genus + 1)}
        elif head == "handles":
            if handles is not None:
                raise FillingError("second handles line", lineno)
            parts = rest.split()
            if len(parts) != 2:
                raise FillingError("usage: handles <one> <two>", lineno)
            try:
                handles = (parse_int(parts[0]), parse_int(parts[1]))
            except ValueError:
                raise FillingError(f"bad handle counts {rest!r}", lineno)
            if min(handles) < 0:
                raise FillingError(f"negative handle count {rest!r}", lineno)
            handles_at = lineno
        elif head == "curve":
            if genus is None:
                raise FillingError("genus must come before curves", lineno)
            name, eq, vec = rest.partition("=")
            name = name.strip()
            if not eq or not name:
                raise FillingError("usage: curve <name> = [..]", lineno)
            if name in named:
                raise FillingError(f"second curve line for {name!r}", lineno)
            if name in chain:
                raise FillingError(
                    f"{name!r} is a chain curve of genus {genus}; "
                    "a curve line would give it a second class", lineno
                )
            if genus == 1 and name == "c3":  # the extender stabilize_openbook adds
                raise FillingError(
                    "'c3' is the chain curve that stabilizing to genus 2 adds; "
                    "a curve line would give it a second class", lineno
                )
            cls = load_json(vec.strip(), partial(FillingError, line=lineno), "class vector: ")
            if (not isinstance(cls, list)
                    or len(cls) != 2 * genus
                    or not all(type(v) is int for v in cls)):  # JSON integers, not booleans
                raise FillingError(f"class must be a list of {2 * genus} integers", lineno)
            try:
                named[name] = Curve(name, tuple(cls))
            except ValueError as exc:
                raise FillingError(str(exc), lineno)
        elif head == "word":
            if word_line is not None:
                raise FillingError("second word line", lineno)
            word_line, word_at = rest.strip(), lineno
        else:
            raise FillingError(f"unknown statement {head!r}", lineno)
    if genus is None:
        raise FillingError("missing genus line")
    if word_line is None:
        raise FillingError("missing word line")
    tokens = word_line.split()
    most = MAX_PLAN_ENTRIES // (2 * max(genus, 2)) ** 2
    if len(tokens) > most:
        raise FillingError(
            f"too many letters: a genus-{genus} word has at most {most} letters", word_at)
    letters: list[Curve] = []
    for tok in tokens:
        if tok.startswith("T'("):
            raise FillingError(
                f"negative letter {tok!r}: fibration words must be positive", word_at
            )
        if not (tok.startswith("T(") and tok.endswith(")")):
            raise FillingError(f"bad word letter {tok!r}; expected T(<curve>)", word_at)
        name = tok[2:-1]
        curve = named.get(name)
        if curve is None:
            if name not in chain:
                raise FillingError(f"unknown curve {name!r} in word", word_at)
            curve = named[name] = mcg.chain_curve(genus, chain[name])
        letters.append(curve)
    if handles is not None:
        one, two = handles
        by_handles = 1 - one + two
        by_fibration = 1 - 2 * genus + len(letters)
        if by_handles != by_fibration:
            raise FillingError(
                f"handles {one} {two} give euler characteristic {by_handles} but "
                f"a genus-{genus} page with {len(letters)} letters gives {by_fibration}",
                handles_at,
            )
    return PALF(OpenBook(genus, tuple(letters)))
