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

import json
from dataclasses import dataclass, replace

from . import intmat, mcg
from .front import numbered_lines
from .kirby import CobordismRecord
from .mcg import Curve, Surface, TwistWord


class FillingError(ValueError):
    """A planning input violates the fibration contracts."""


# -- assumptions able to be cited by certificate rules ------------------------

@dataclass(frozen=True)
class Assumption:
    """A fact the plan uses but does not verify."""

    name: str
    statement: str
    status: str = "declared-unverified"

    def to_doc(self) -> dict:
        return {"name": self.name, "statement": self.statement, "status": self.status}


STANDARD_ASSUMPTIONS: tuple[Assumption, ...] = (
    Assumption(
        "symplectic-structure",
        "a Lefschetz fibration whose fiber class is homologically essential "
        "carries a symplectic form making the fibers symplectic",
    ),
    Assumption(
        "b2plus-at-least-2",
        "the closing piece can be arranged so that the concave filling has "
        "b2+ at least 2",
    ),
    Assumption(
        "relative-minimality",
        "a fibration whose vanishing cycles are all non-separating contains "
        "no sphere of self-intersection -1 in a fiber",
    ),
    Assumption(
        "section-exists",
        "the closed fibration admits a section, so the fiber class pairs "
        "with a dual section class",
    ),
)


def _word_doc(word: TwistWord) -> list[dict]:
    return [
        {"curve": c.name, "class": list(c.h1_class), "exponent": e}
        for c, e in word.letters
    ]


# -- fibration data types -----------------------------------------------------

@dataclass(frozen=True)
class OpenBook:
    """Boundary fibration: a page with one boundary circle and a positive word.

    Only one-boundary pages are accepted, so the binding is connected and
    a single 2-handle caps it.
    """

    page: Surface
    monodromy: TwistWord

    def __post_init__(self) -> None:
        if self.page.boundary != 1:
            raise FillingError(
                f"the page has {self.page.boundary} boundary circles; an open "
                "book here needs exactly one, a connected binding"
            )
        if not self.monodromy.is_positive:
            raise FillingError("open-book monodromy here must be a positive word")
        wg = self.monodromy.genus()
        if wg is not None and wg != self.page.genus:
            raise FillingError(
                f"twist word lives on genus {wg}, page has genus {self.page.genus}"
            )

    def to_doc(self) -> dict:
        return {
            "page": {"genus": self.page.genus, "boundary": self.page.boundary},
            "monodromy": _word_doc(self.monodromy),
            "binding_components": 1,
        }


@dataclass(frozen=True)
class PALF:
    """Positive allowable fibration data for a Stein domain over the disk.

    The vanishing cycles are the monodromy letters in attaching order;
    the Curve constructor already refuses imprimitive classes, which is
    the allowability condition (no separating cycles).  source holds the
    counts of a fixture's `handles` line, checked against the word.
    """

    open_book: OpenBook
    source: dict | None = None

    @property
    def page_genus(self) -> int:
        return self.open_book.page.genus


# -- the plan -----------------------------------------------------------------

@dataclass(frozen=True)
class FillingPlan:
    """Assembly instructions for the concave side of a closed fibration.

    The cap v0 is one 0-framed 2-handle along the binding and the closing
    piece is the closed fiber times a disk, so both are fixed by
    fiber_genus and are written out only by to_doc.
    trivializing_handles is a positive word; each letter stands for one
    -1-framed 2-handle along the named curve sitting in a fiber.
    composite_action is the H1 action of the stabilized monodromy followed
    by the trivializing handles, as checked when the plan was built; it is
    evidence for certificates and stays out of to_doc.
    """

    trivializing_handles: TwistWord
    fiber_genus: int
    relator_blocks: int
    assumptions: tuple[Assumption, ...]
    composite_action: tuple[tuple[int, ...], ...]
    stabilizations: int = 0
    extension_absorbed: bool = False
    source_open_book: OpenBook | None = None

    def __post_init__(self) -> None:
        if not self.trivializing_handles.is_positive:
            raise FillingError("trivializing handles must form a positive word")

    @property
    def euler_char(self) -> int:
        """Cap, one 2-handle per trivializing letter, and the closing piece."""
        return 1 + len(self.trivializing_handles) + (2 - 2 * self.fiber_genus)

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
                "count": len(self.trivializing_handles),
                "letters": _word_doc(self.trivializing_handles),
            },
            "closing_piece": {
                "fiber_genus": self.fiber_genus,
                "euler_char": 2 - 2 * self.fiber_genus,
                "bundle": "closed fiber x disk",
            },
            "euler_char": self.euler_char,
            "fiber_genus": self.fiber_genus,
            "relator_blocks": self.relator_blocks,
            "assumptions": [a.to_doc() for a in self.assumptions],
            "stabilizations": self.stabilizations,
            "extension_absorbed": self.extension_absorbed,
            "source_open_book": (
                None if self.source_open_book is None
                else self.source_open_book.to_doc()
            ),
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
    g = ob.page.genus
    new_g = g + 1
    extender = mcg.chain_curves(new_g)[2 * g]  # class a_g + a_{g+1}
    letters = tuple(
        (_pad_curve(c, new_g), e) for c, e in ob.monodromy.letters
    ) + ((extender, 1),)
    return OpenBook(Surface(new_g, 1), TwistWord(letters))


def build_concave(ob: OpenBook) -> FillingPlan:
    """Plan the concave filling of the fibered boundary.

    Pages of genus below 2 are stabilized first (the count is recorded on
    the plan) so the closed fibration has fiber genus at least 2.  Capping
    the binding keeps the twist word letter for letter on the closed fiber.
    """
    book = ob
    stabs = 0
    while book.page.genus < 2:
        book = stabilize_openbook(book)
        stabs += 1
    genus_hat = book.page.genus
    trivializing = mcg.trivialize(book.monodromy)
    composite = book.monodromy.concat(trivializing)
    action = mcg.h1_action(composite) if len(composite) else intmat.identity(2 * genus_hat)
    if not intmat.is_identity(action):
        raise FillingError("trivialization failed to cancel the monodromy action")
    return FillingPlan(
        trivializing_handles=trivializing,
        fiber_genus=genus_hat,
        relator_blocks=len(book.monodromy),
        assumptions=STANDARD_ASSUMPTIONS,
        composite_action=tuple(tuple(row) for row in action),
        stabilizations=stabs,
        source_open_book=ob,
    )


def extend_with_cobordism(m: CobordismRecord, p: PALF) -> FillingPlan:
    """Plan the concave filling after an extra Stein 2-handle is attached.

    p is fibration data for the extended domain.  The extra handle is
    absorbed into the closing piece by reordering it after the cap, which
    keeps the concave filling's contact-level conclusion available; the
    plan records that this reordering was used.
    """
    status = m.stein.get("status") if isinstance(m.stein, dict) else None
    if status != "exact":
        raise FillingError(
            f"cobordism attachment is not Stein (status {status!r}); "
            "the absorbed handles must satisfy framing = tb - 1"
        )
    plan = build_concave(palf_to_openbook(p))
    return replace(plan, extension_absorbed=True)


# -- fixture text grammar -----------------------------------------------------

def parse_palf(text: str) -> PALF:
    """Parse the small fixture grammar for fibration words.

    Lines: `genus G`, optional `handles <one> <two>`, optional
    `curve <name> = [..]` declarations, and one `word T(x) T(y) ...` line.
    Chain curves c1..c2g are available without declaration; negative
    letters T'(x) are rejected since the word must stay positive.  A
    handles line must give the fibration's Euler characteristic:
    1 - one + two == (1 - 2G) + letters.
    """
    genus: int | None = None
    handles: tuple[int, int] | None = None
    named: dict[str, Curve] = {}
    word_line: str | None = None
    for lineno, line in numbered_lines(text):
        head, _, rest = line.partition(" ")
        if head == "genus":
            try:
                genus = int(rest.strip())
            except ValueError:
                raise FillingError(f"line {lineno}: bad genus {rest.strip()!r}")
            if genus < 1:
                raise FillingError(f"line {lineno}: genus must be at least 1")
        elif head == "handles":
            parts = rest.split()
            if len(parts) != 2:
                raise FillingError(f"line {lineno}: usage: handles <one> <two>")
            try:
                handles = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise FillingError(f"line {lineno}: bad handle counts {rest!r}")
            if min(handles) < 0:
                raise FillingError(f"line {lineno}: negative handle count {rest!r}")
        elif head == "curve":
            if genus is None:
                raise FillingError(f"line {lineno}: genus must come before curves")
            name, eq, vec = rest.partition("=")
            name = name.strip()
            if not eq or not name:
                raise FillingError(f"line {lineno}: usage: curve <name> = [..]")
            try:
                cls = json.loads(vec.strip())
            except json.JSONDecodeError as exc:
                raise FillingError(f"line {lineno}: bad class vector: {exc}")
            if (not isinstance(cls, list)
                    or len(cls) != 2 * genus
                    or not all(isinstance(v, int) for v in cls)):
                raise FillingError(
                    f"line {lineno}: class must be a list of {2 * genus} integers"
                )
            try:
                named[name] = Curve(name, tuple(cls))
            except ValueError as exc:
                raise FillingError(f"line {lineno}: {exc}")
        elif head == "word":
            if word_line is not None:
                raise FillingError(f"line {lineno}: second word line")
            word_line = rest.strip()
        else:
            raise FillingError(f"line {lineno}: unknown statement {head!r}")
    if genus is None:
        raise FillingError("missing genus line")
    if word_line is None:
        raise FillingError("missing word line")
    chain = {c.name: c for c in mcg.chain_curves(genus)}
    letters: list[tuple[Curve, int]] = []
    for tok in word_line.split():
        if tok.startswith("T'("):
            raise FillingError(
                f"negative letter {tok!r}: fibration words must be positive"
            )
        if not (tok.startswith("T(") and tok.endswith(")")):
            raise FillingError(f"bad word letter {tok!r}; expected T(<curve>)")
        name = tok[2:-1]
        curve = named.get(name) or chain.get(name)
        if curve is None:
            raise FillingError(f"unknown curve {name!r} in word")
        letters.append((curve, 1))
    word = TwistWord(tuple(letters))
    source = None
    if handles is not None:
        one, two = handles
        by_handles = 1 - one + two
        by_fibration = 1 - 2 * genus + len(word)
        if by_handles != by_fibration:
            raise FillingError(
                f"handles {one} {two} give euler characteristic {by_handles} but "
                f"a genus-{genus} page with {len(word)} letters gives {by_fibration}"
            )
        source = {"one_handles": one, "two_handles": two}
    return PALF(OpenBook(Surface(genus, 1), word), source)
