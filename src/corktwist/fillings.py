"""Concave-filling planner over the homological twist calculus.

A Stein domain is presented here by a positive fibration word: a genus-g
page with one boundary circle and an ordered list of right-handed twists
along non-separating curves.  Only one-boundary pages are accepted, so
the binding is always connected.  The planner runs the standard closing
pipeline on the boundary fibration:

* cap the binding with a single 0-framed 2-handle (the piece called v0),
* undo the monodromy with one chain-relator block per letter, each block
  realized by -1-framed handles along its twist curves,
* glue a trivial surface bundle over the disk as the closing piece.

Everything is tallied at the level of handle counts and the homological
monodromy action; facts the construction borrows from the literature
(existence of the symplectic structure, b2+ >= 2, relative minimality,
a section) are emitted as declared-unverified assumptions instead of
being silently used.  Plans are immutable and safe to share.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from . import mcg
from .base import InputError, Record, load_json, numbered_lines, parse_int
from .mcg import Curve, RelatorBlock, TwistWord


class FillingError(InputError):
    """A planning input violates the fibration contracts."""


# -- assumptions able to be cited by certificate rules ------------------------

# facts the plan uses but does not verify, as documents; each use copies them
STANDARD_ASSUMPTIONS: tuple[dict, ...] = (
    {
        "name": "symplectic-structure",
        "statement": (
            "a Lefschetz fibration whose fiber class is homologically essential "
            "carries a symplectic form making the fibers symplectic"
        ),
        "status": "declared-unverified",
    },
    {
        "name": "b2plus-at-least-2",
        "statement": (
            "the closing piece can be arranged so that the concave filling has "
            "b2+ at least 2"
        ),
        "status": "declared-unverified",
    },
    {
        "name": "relative-minimality",
        "statement": (
            "a fibration whose vanishing cycles are all non-separating contains "
            "no sphere of self-intersection -1 in a fiber"
        ),
        "status": "declared-unverified",
    },
    {
        "name": "section-exists",
        "statement": (
            "the closed fibration admits a section, so the fiber class pairs "
            "with a dual section class"
        ),
        "status": "declared-unverified",
    },
)


# -- fibration data types -----------------------------------------------------

class OpenBook(Record):
    """Boundary fibration: a genus-g page with one boundary circle and a positive word.

    Only one-boundary pages are accepted, so the binding is connected and
    a single 2-handle caps it.
    """

    __slots__ = _fields = ("genus", "monodromy")
    genus: int
    monodromy: TwistWord

    def __init__(self, genus: int, monodromy: TwistWord) -> None:
        if genus < 0:
            raise FillingError(f"page genus must not be negative, got {genus}")
        if not monodromy.is_positive:
            raise FillingError("open-book monodromy here must be a positive word")
        wg = monodromy.genus()
        if wg is not None and wg != genus:
            raise FillingError(f"twist word lives on genus {wg}, page has genus {genus}")
        self._assign(genus, monodromy)

    def to_doc(self) -> dict:
        return {
            "page": {"genus": self.genus, "boundary": 1},
            "monodromy": [{"curve": c.name, "class": list(c.h1_class), "exponent": e}
                          for c, e in self.monodromy.letters],
            "binding_components": 1,
        }


class PALF(NamedTuple):
    """Positive allowable fibration data for a Stein domain over the disk.

    The vanishing cycles are the monodromy letters in attaching order;
    the Curve constructor already refuses imprimitive classes, which is
    the allowability condition (no separating cycles).
    """

    open_book: OpenBook

    @property
    def page_genus(self) -> int:
        return self.open_book.genus


# -- the plan -----------------------------------------------------------------

class FillingPlan(NamedTuple):
    """Assembly instructions for the concave side of a closed fibration.

    closed is the source open book stabilized to page genus at least 2;
    its page is the closed fiber and its word the monodromy that blocks
    undo, one relator block per letter, last letter first.  The cap v0 is
    one 0-framed 2-handle along the binding and the closing piece is the
    closed fiber times a disk, so both are fixed by the fiber genus and
    are written out only by to_doc.  Each letter of a block stands for one
    -1-framed 2-handle along a curve sitting in a fiber.
    """

    source_open_book: OpenBook
    closed: OpenBook
    blocks: tuple[RelatorBlock, ...]

    @property
    def fiber_genus(self) -> int:
        return self.closed.genus

    @property
    def relator_blocks(self) -> int:
        return len(self.blocks)

    @property
    def trivializing_handles(self) -> int:
        """One 2-handle per letter of each relator block."""
        return sum(len(b) for b in self.blocks)

    @property
    def stabilizations(self) -> int:
        return self.closed.genus - self.source_open_book.genus

    @property
    def closed_monodromy(self) -> TwistWord:
        """The word the trivializing handles undo: the source word, stabilized."""
        return self.closed.monodromy

    @property
    def euler_char(self) -> int:
        """Cap, one 2-handle per trivializing letter, and the closing piece."""
        return 1 + self.trivializing_handles + (2 - 2 * self.fiber_genus)

    def to_doc(self) -> dict:
        return {
            "v0": {
                "two_handles": 1,
                "framing_rel_page": 0,
                "euler_char": 1,
                "along": "binding",
            },
            "trivializing_handles": {
                "framing_per_letter": -1,
                "count": self.trivializing_handles,
                "relator": mcg.RELATOR,
                "blocks": [
                    {"letter": {"curve": c.name, "class": list(c.h1_class)},
                     "chain_images": [list(v) for v in b.chain_images]}
                    for b, (c, _) in zip(self.blocks, reversed(self.closed.monodromy.letters))
                ],
            },
            "closing_piece": {
                "fiber_genus": self.fiber_genus,
                "euler_char": 2 - 2 * self.fiber_genus,
                "bundle": "closed fiber x disk",
            },
            "euler_char": self.euler_char,
            "fiber_genus": self.fiber_genus,
            "relator_blocks": self.relator_blocks,
            "assumptions": [dict(a) for a in STANDARD_ASSUMPTIONS],
            "stabilizations": self.stabilizations,
            "source_open_book": self.source_open_book.to_doc(),
        }


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
    extender = mcg.chain_curves(new_g)[2 * g]  # class a_g + a_{g+1}
    letters = tuple(
        (_pad_curve(c, new_g), e) for c, e in ob.monodromy.letters
    ) + ((extender, 1),)
    return OpenBook(new_g, TwistWord(letters))


def build_concave(ob: OpenBook) -> FillingPlan:
    """Plan the concave filling of the fibered boundary.

    Pages of genus below 2 are stabilized first, so the closed fibration
    has fiber genus at least 2; the plan keeps the stabilized book as
    closed.  Capping the binding keeps the twist word letter for letter
    on the closed fiber, and mcg.trivialize closes it with one relator
    block per letter; the empty word needs none.
    """
    closed = ob
    while closed.genus < 2:
        closed = stabilize_openbook(closed)
    m = closed.monodromy
    return FillingPlan(ob, closed, mcg.trivialize(m) if m.letters else ())


# -- fixture text grammar -----------------------------------------------------

def parse_palf(text: str) -> PALF:
    """Parse the small fixture grammar for fibration words.

    Lines: one `genus G`, an optional `handles <one> <two>`, optional
    `curve <name> = [..]` declarations (one per name), and one
    `word T(x) T(y) ...` line.
    Chain curves c1..c2g are available without declaration, and a curve
    line may not redefine one; negative letters T'(x) are rejected since
    the word must stay positive.  A handles line must give the
    fibration's Euler characteristic:
    1 - one + two == (1 - 2G) + letters.
    """
    genus: int | None = None
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
            if name in {f"c{k}" for k in range(1, 2 * genus + 1)}:
                raise FillingError(
                    f"{name!r} is a chain curve of genus {genus}; "
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
    chain = {c.name: c for c in mcg.chain_curves(genus)}
    letters: list[tuple[Curve, int]] = []
    for tok in word_line.split():
        if tok.startswith("T'("):
            raise FillingError(
                f"negative letter {tok!r}: fibration words must be positive", word_at
            )
        if not (tok.startswith("T(") and tok.endswith(")")):
            raise FillingError(f"bad word letter {tok!r}; expected T(<curve>)", word_at)
        name = tok[2:-1]
        curve = named.get(name) or chain.get(name)
        if curve is None:
            raise FillingError(f"unknown curve {name!r} in word", word_at)
        letters.append((curve, 1))
    word = TwistWord(tuple(letters))
    if handles is not None:
        one, two = handles
        by_handles = 1 - one + two
        by_fibration = 1 - 2 * genus + len(word)
        if by_handles != by_fibration:
            raise FillingError(
                f"handles {one} {two} give euler characteristic {by_handles} but "
                f"a genus-{genus} page with {len(word)} letters gives {by_fibration}",
                handles_at,
            )
    return PALF(OpenBook(genus, word))
