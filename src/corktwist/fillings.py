"""Concave-filling planner over the homological twist calculus.

A Stein domain is presented here by a positive fibration word: a genus-g
page with one boundary circle and an ordered list of right-handed twists
along non-separating curves.  The planner runs the standard closing
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
    """Boundary fibration: a page with boundary and a positive twist word.

    Pages with several boundary circles can be represented, but every
    consumer in the pipeline insists on a connected binding, so a
    multi-boundary page must be traded for a one-boundary one before a
    plan can be built.
    """

    page: Surface
    monodromy: TwistWord
    binding_components: int = 1

    def __post_init__(self) -> None:
        if self.page.boundary < 1:
            raise FillingError("an open-book page needs boundary")
        if self.binding_components != self.page.boundary:
            raise FillingError(
                f"binding has {self.binding_components} components but the "
                f"page has {self.page.boundary} boundary circles"
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
            "binding_components": self.binding_components,
        }


@dataclass(frozen=True)
class PALF:
    """Positive allowable fibration data for a Stein domain over the disk.

    vanishing_cycles repeats the monodromy letters in attaching order;
    the Curve constructor already refuses imprimitive classes, which is
    the allowability condition (no separating cycles).
    """

    open_book: OpenBook
    vanishing_cycles: tuple[Curve, ...]
    source: dict | None = None

    def __post_init__(self) -> None:
        letters = tuple(c for c, _ in self.open_book.monodromy.letters)
        if self.vanishing_cycles != letters:
            raise FillingError("vanishing cycles must list the monodromy letters")
        for c in self.vanishing_cycles:
            if not intmat.is_primitive(list(c.h1_class)):
                raise FillingError(f"separating vanishing cycle {c.name!r}")

    @property
    def page_genus(self) -> int:
        return self.open_book.page.genus

    def to_doc(self) -> dict:
        return {
            "open_book": self.open_book.to_doc(),
            "vanishing_cycles": [c.name for c in self.vanishing_cycles],
            "source": self.source,
        }


def make_palf(genus: int, word: TwistWord, source: dict | None = None,
              boundary: int = 1) -> PALF:
    """Wrap a positive word on a genus-g one-boundary page as a PALF."""
    book = OpenBook(Surface(genus, boundary), word, binding_components=boundary)
    return PALF(book, tuple(c for c, _ in word.letters), source)


@dataclass(frozen=True)
class SteinHandlebody:
    """Handle counts of a Stein domain tied to its fibration data.

    The two Euler-characteristic computations must agree:
    1 - one_handles + two_handles and (1 - 2 * genus) + letters.
    """

    name: str
    one_handles: int
    two_handles: int
    palf: PALF

    def __post_init__(self) -> None:
        if self.one_handles < 0 or self.two_handles < 0:
            raise FillingError("negative handle count")
        by_handles = 1 - self.one_handles + self.two_handles
        by_fibration = (1 - 2 * self.palf.page_genus) + len(
            self.palf.open_book.monodromy
        )
        if by_handles != by_fibration:
            raise FillingError(
                f"handle counts give euler characteristic {by_handles} but the "
                f"fibration gives {by_fibration}"
            )

    @property
    def euler_char(self) -> int:
        return 1 - self.one_handles + self.two_handles

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "one_handles": self.one_handles,
            "two_handles": self.two_handles,
            "euler_char": self.euler_char,
            "palf": self.palf.to_doc(),
        }


# -- plan pieces --------------------------------------------------------------

@dataclass(frozen=True)
class V0Record:
    """The cap: one 2-handle along the binding, 0-framed against the page."""

    two_handles: int = 1
    framing_rel_page: int = 0
    euler_char: int = 1

    def to_doc(self) -> dict:
        return {
            "two_handles": self.two_handles,
            "framing_rel_page": self.framing_rel_page,
            "euler_char": self.euler_char,
            "along": "binding",
        }


@dataclass(frozen=True)
class ClosedFiberBundle:
    """Monodromy data pushed to the capped-off (closed) fiber."""

    fiber_genus: int
    monodromy: TwistWord

    def to_doc(self) -> dict:
        return {
            "fiber_genus": self.fiber_genus,
            "monodromy": _word_doc(self.monodromy),
        }


@dataclass(frozen=True)
class ClosingPiece:
    """Trivial bundle: closed fiber times disk."""

    fiber_genus: int
    euler_char: int

    def to_doc(self) -> dict:
        return {
            "fiber_genus": self.fiber_genus,
            "euler_char": self.euler_char,
            "bundle": "closed fiber x disk",
        }


@dataclass(frozen=True)
class FillingPlan:
    """Assembly instructions for the concave side of a closed fibration.

    trivializing_handles is a positive word; each letter stands for one
    -1-framed 2-handle along the named curve sitting in a fiber.
    composite_action is the H1 action of the stabilized monodromy followed
    by the trivializing handles, as checked when the plan was built; it is
    evidence for certificates and stays out of to_doc.
    """

    v0: V0Record
    trivializing_handles: TwistWord
    closing_piece: ClosingPiece
    euler_char: int
    fiber_genus: int
    relator_blocks: int
    assumptions: tuple[Assumption, ...]
    composite_action: tuple[tuple[int, ...], ...]
    stabilizations: int = 0
    extension_absorbed: bool = False
    source_open_book: OpenBook | None = None

    def __post_init__(self) -> None:
        expect = 1 + len(self.trivializing_handles) + (2 - 2 * self.fiber_genus)
        if self.euler_char != expect:
            raise FillingError(
                f"plan euler characteristic {self.euler_char} does not match "
                f"1 + {len(self.trivializing_handles)} + "
                f"(2 - 2*{self.fiber_genus}) = {expect}"
            )
        if self.closing_piece.fiber_genus != self.fiber_genus:
            raise FillingError("closing piece fiber genus disagrees with the plan")
        if not self.trivializing_handles.is_positive:
            raise FillingError("trivializing handles must form a positive word")

    def to_doc(self) -> dict:
        return {
            "v0": self.v0.to_doc(),
            "trivializing_handles": {
                "framing_per_letter": -1,
                "count": len(self.trivializing_handles),
                "letters": _word_doc(self.trivializing_handles),
            },
            "closing_piece": self.closing_piece.to_doc(),
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


@dataclass(frozen=True)
class ClosedLF:
    """The closed fibration obtained by gluing domain, cap and closing piece."""

    fiber_genus: int
    euler_char: int
    relatively_minimal: bool
    fiber_self_intersection: int
    plan: FillingPlan
    assumptions: tuple[Assumption, ...]
    canonical: object | None = None

    def to_doc(self) -> dict:
        return {
            "fiber_genus": self.fiber_genus,
            "euler_char": self.euler_char,
            "relatively_minimal": self.relatively_minimal,
            "fiber_self_intersection": self.fiber_self_intersection,
            "assumptions": [a.to_doc() for a in self.assumptions],
            "canonical": self.canonical,
        }


# -- operations ---------------------------------------------------------------

def palf_to_openbook(p: PALF) -> OpenBook:
    """Read the boundary open book off the fibration data."""
    ob = p.open_book
    if ob.binding_components != 1:
        raise FillingError(
            f"binding has {ob.binding_components} components; stabilize to a "
            "connected binding before planning"
        )
    return OpenBook(ob.page, ob.monodromy, binding_components=1)


def _pad_curve(c: Curve, new_genus: int) -> Curve:
    pad = 2 * new_genus - len(c.h1_class)
    return Curve(c.name, c.h1_class + (0,) * pad)


def stabilize_openbook(ob: OpenBook) -> OpenBook:
    """Add a handle to the page and one positive twist over it.

    The new twist runs along the curve extending the chain pattern to the
    new handle (class a_g + a_{g+1} on the enlarged surface); existing
    letters keep their classes, extended by zeros.
    """
    if ob.binding_components != 1:
        raise FillingError("only one-binding books are stabilized here")
    g = ob.page.genus
    new_g = g + 1
    extender = mcg.chain_curves(new_g)[2 * g]  # class a_g + a_{g+1}
    letters = tuple(
        (_pad_curve(c, new_g), e) for c, e in ob.monodromy.letters
    ) + ((extender, 1),)
    return OpenBook(Surface(new_g, 1), TwistWord(letters), binding_components=1)


def cap_binding(ob: OpenBook) -> tuple[V0Record, ClosedFiberBundle]:
    """Cap the binding circle; the twist word survives letter-for-letter."""
    if ob.binding_components != 1:
        raise FillingError("cannot cap a disconnected binding with one handle")
    return V0Record(), ClosedFiberBundle(ob.page.genus, ob.monodromy)


def build_concave(ob: OpenBook) -> FillingPlan:
    """Plan the concave filling of the fibered boundary.

    Pages of genus below 2 are stabilized first (the count is recorded on
    the plan) so the closed fibration has fiber genus at least 2.
    """
    if ob.binding_components != 1:
        raise FillingError("concave planning needs a connected binding")
    book = ob
    stabs = 0
    while book.page.genus < 2:
        book = stabilize_openbook(book)
        stabs += 1
    v0, capped = cap_binding(book)
    trivializing = mcg.trivialize(book.monodromy)
    composite = book.monodromy.concat(trivializing)
    genus_hat = capped.fiber_genus
    action = mcg.h1_action(composite) if len(composite) else intmat.identity(2 * genus_hat)
    if not intmat.is_identity(action):
        raise FillingError("trivialization failed to cancel the monodromy action")
    euler = 1 + len(trivializing) + (2 - 2 * genus_hat)
    return FillingPlan(
        v0=v0,
        trivializing_handles=trivializing,
        closing_piece=ClosingPiece(genus_hat, 2 - 2 * genus_hat),
        euler_char=euler,
        fiber_genus=genus_hat,
        relator_blocks=len(book.monodromy),
        assumptions=STANDARD_ASSUMPTIONS,
        composite_action=tuple(tuple(row) for row in action),
        stabilizations=stabs,
        extension_absorbed=False,
        source_open_book=ob,
    )


def extend_with_cobordism(m: CobordismRecord | None, p: PALF) -> FillingPlan:
    """Plan the concave filling after extra Stein 2-handles are attached.

    p is fibration data for the extended domain.  The extra handles are
    absorbed into the closing piece by reordering them after the cap,
    which keeps the concave filling's contact-level conclusion available;
    the plan records that this reordering was used.  With no cobordism at
    all this is exactly build_concave on p's boundary book.
    """
    if m is None:
        return build_concave(palf_to_openbook(p))
    if m.one_handles:
        raise FillingError(
            f"cobordism carries {m.one_handles} 1-handle(s); only pure "
            "2-handle attachments can be reordered past the cap"
        )
    status = m.stein.get("status") if isinstance(m.stein, dict) else None
    if status != "exact":
        raise FillingError(
            f"cobordism attachment is not Stein (status {status!r}); "
            "the absorbed handles must satisfy framing = tb - 1"
        )
    plan = build_concave(palf_to_openbook(p))
    return replace(plan, extension_absorbed=True)


def closed_total(w: SteinHandlebody, plan: FillingPlan) -> ClosedLF:
    """Glue the domain to the planned concave filling."""
    if plan.source_open_book is None:
        raise FillingError("plan does not record the open book it serves")
    if plan.source_open_book != palf_to_openbook(w.palf):
        raise FillingError(
            f"plan was built for a different boundary fibration than {w.name!r}"
        )
    minimal = all(
        intmat.is_primitive(list(c.h1_class)) for c in w.palf.vanishing_cycles
    ) and all(
        intmat.is_primitive(list(c.h1_class))
        for c, _ in plan.trivializing_handles.letters
    )
    return ClosedLF(
        fiber_genus=plan.fiber_genus,
        euler_char=w.euler_char + plan.euler_char,
        relatively_minimal=minimal,
        fiber_self_intersection=0,
        plan=plan,
        assumptions=plan.assumptions,
        canonical=None,
    )


# -- fixture text grammar -----------------------------------------------------

def parse_palf(text: str) -> PALF:
    """Parse the small fixture grammar for fibration words.

    Lines: `genus G`, optional `handles <one> <two>`, optional
    `curve <name> = [..]` declarations, and one `word T(x) T(y) ...` line.
    Chain curves c1..c2g are available without declaration; negative
    letters T'(x) are rejected since the word must stay positive.
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
    source = None
    if handles is not None:
        source = {"one_handles": handles[0], "two_handles": handles[1]}
    return make_palf(genus, TwistWord(tuple(letters)), source)


def handlebody_from_palf(name: str, p: PALF) -> SteinHandlebody:
    """Build the handle-count record from a parsed fixture's handles line."""
    if not p.source or "one_handles" not in p.source:
        raise FillingError(f"fixture for {name!r} carries no handles line")
    return SteinHandlebody(
        name, p.source["one_handles"], p.source["two_handles"], p
    )
