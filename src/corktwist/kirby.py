"""Kirby diagrams: dotted 1-handles and framed 2-handles over a front.

A diagram is a front whose components each carry exactly one decoration:
a dot (the component bounds a carved disk, a 1-handle) or an integer
framing (a 2-handle).  The document may also declare an exchanging
involution for a two-component diagram, knot types, and a Stein section:
a second front, drawn over a 1-handle ball pair, exhibiting a Legendrian
representative of the 2-handle attaching curve together with its
Thurston-Bennequin number.

Homology is computed twice.  The 4-manifold side uses the handle chain
complex, whose only interesting differential pairs framed against dotted
components by linking number.  The boundary 3-manifold uses the full
linking matrix with dotted diagonal entries replaced by 0, the usual
dot-to-zero surgery substitution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import front as front_mod
from . import intmat, moves
from .front import FrontDiagram, FrontParseError

# Facts about specific knot types used to certify Stein obstructions.
# The maximal Thurston-Bennequin numbers are classical bounds for knots
# in the standard contact 3-sphere, so they apply only to components
# presented in a plain front: no 1-handle passes.
KNOT_FACTS = {
    "unknot": {
        "max_tb": -1,
        "seifert_genus": 0,
        "statement": "the unknot has maximal Thurston-Bennequin number -1 "
        "and Seifert genus 0",
    },
    "right_trefoil": {
        "max_tb": 1,
        "seifert_genus": 1,
        "statement": "the right-handed trefoil has maximal Thurston-Bennequin "
        "number 1 and Seifert genus 1",
    },
}

CONDITION4_NOTE = "condition (4) checked via its exhibited form (4')"


class KirbyError(ValueError):
    pass


@dataclass(frozen=True)
class Involution:
    comp1: str
    comp2: str
    cx: Fraction
    cy: Fraction

    def apply(self, p: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        return (2 * self.cx - p[0], 2 * self.cy - p[1])


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion orders must form a divisibility chain")
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion orders must be at least 2")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_doc(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion), "pretty": self.describe()}


def cokernel(matrix: list[list[int]], ambient_rank: int) -> AbelianGroup:
    """Cokernel of a map into Z^ambient_rank whose image is spanned by columns."""
    if not matrix or not matrix[0]:
        return AbelianGroup(ambient_rank)
    factors = intmat.invariant_factors(matrix)
    torsion = tuple(f for f in factors if f > 1)
    return AbelianGroup(ambient_rank - len(factors), torsion)


@dataclass(frozen=True)
class KirbyDiagram:
    front: FrontDiagram
    dots: tuple[str, ...] = ()
    frames: tuple[tuple[str, int], ...] = ()
    involution: Involution | None = None
    stein_front: FrontDiagram | None = None
    stein_component: str | None = None

    def __post_init__(self) -> None:
        comps = self.front.components()
        framed = dict(self.frames)
        for c in self.dots:
            if c not in comps:
                raise KirbyError(f"dot on unknown component {c!r}")
            if c in framed:
                raise KirbyError(f"component {c!r} is both dotted and framed")
        for c in framed:
            if c not in comps:
                raise KirbyError(f"framing on unknown component {c!r}")
        undecorated = [c for c in comps if c not in self.dots and c not in framed]
        if undecorated:
            raise KirbyError(f"components without dot or framing: {undecorated}")
        if len(self.dots) != len(set(self.dots)) or len(framed) != len(self.frames):
            raise KirbyError("duplicate decoration")
        if self.involution is not None:
            for c in (self.involution.comp1, self.involution.comp2):
                if c not in comps:
                    raise KirbyError(f"involution names unknown component {c!r}")
            if self.involution.comp1 == self.involution.comp2:
                raise KirbyError("exchanging involution needs two distinct components")
        if (self.stein_front is None) != (self.stein_component is None):
            raise KirbyError("stein section needs both a front and a component choice")
        if self.stein_front is not None:
            if self.stein_component not in self.stein_front.components():
                raise KirbyError(
                    f"stein component {self.stein_component!r} is not in the stein front"
                )

    def framing(self, comp: str) -> int:
        return dict(self.frames)[comp]

    def dotted(self) -> list[str]:
        return [c for c in self.front.components() if c in self.dots]

    def framed(self) -> list[str]:
        return [c for c in self.front.components() if c in dict(self.frames)]


# -- parsing ------------------------------------------------------------------


def parse_kirby(text: str) -> KirbyDiagram:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise KirbyError(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise KirbyError("JSON document is nested too deeply") from None
        return kirby_from_doc(doc)
    builder = front_mod.FrontBuilder()
    stein_builder = front_mod.FrontBuilder()
    dots: list[str] = []
    frames: list[tuple[str, int]] = []
    involution: Involution | None = None
    stein_component: str | None = None
    saw_stein = False
    for lineno, line in front_mod.numbered_lines(text):
        head, _, rest = line.partition(" ")
        if head == "dot":
            name = rest.strip()
            if not name:
                raise FrontParseError("dot needs a component id", lineno)
            dots.append(name)
        elif head == "frame":
            parts = rest.split()
            if len(parts) != 2:
                raise FrontParseError("usage: frame <component> <integer>", lineno)
            try:
                frames.append((parts[0], int(parts[1])))
            except ValueError:
                raise FrontParseError(f"framing {parts[1]!r} is not an integer", lineno)
        elif head == "involution":
            name_part, _, script = rest.partition(":")
            names = name_part.split()
            toks = script.split()
            if len(names) != 2 or len(toks) != 3 or toks[0] != "rot180":
                raise FrontParseError(
                    "usage: involution <c1> <c2> : rot180 <cx> <cy>", lineno
                )
            involution = Involution(
                names[0],
                names[1],
                front_mod.parse_rational(toks[1], lineno),
                front_mod.parse_rational(toks[2], lineno),
            )
        elif head == "stein":
            saw_stein = True
            inner_head, _, inner_rest = rest.strip().partition(" ")
            if inner_head == "component":
                stein_component = inner_rest.strip()
                if not stein_component:
                    raise FrontParseError("stein component needs an id", lineno)
            elif not stein_builder.statement(rest.strip(), lineno):
                raise FrontParseError(f"unknown stein statement {inner_head!r}", lineno)
        elif not builder.statement(line, lineno):
            raise FrontParseError(f"unknown statement {head!r}", lineno)
    if not builder.arcs:
        raise FrontParseError("no arcs in document")
    stein_front = None
    if saw_stein:
        if stein_component is None:
            raise FrontParseError("stein section is missing a 'stein component' line")
        stein_front = stein_builder.build()
    return KirbyDiagram(
        builder.build(), tuple(dots), tuple(frames), involution, stein_front, stein_component
    )


def kirby_from_doc(doc: dict) -> KirbyDiagram:
    """Diagram from its JSON document; a missing or ill-typed field is a KirbyError."""
    try:
        involution = None
        if doc.get("involution"):
            iv = doc["involution"]
            involution = Involution(
                iv["components"][0],
                iv["components"][1],
                front_mod.parse_rational(str(iv["center"][0])),
                front_mod.parse_rational(str(iv["center"][1])),
            )
        stein_front = None
        stein_component = None
        if doc.get("stein"):
            stein_front = front_mod.front_from_doc(doc["stein"]["front"])
            stein_component = doc["stein"]["component"]
        return KirbyDiagram(
            front_mod.front_from_doc(doc["front"]),
            tuple(doc.get("dots", [])),
            tuple((c, int(k)) for c, k in doc.get("frames", {}).items()),
            involution,
            stein_front,
            stein_component,
        )
    except (front_mod.FrontError, KirbyError):
        raise
    except KeyError as exc:
        raise KirbyError(f"diagram document is missing key {exc}") from None
    except (TypeError, IndexError, AttributeError, ValueError) as exc:
        raise KirbyError(f"diagram document has an ill-typed field: {exc}") from None


def kirby_to_doc(d: KirbyDiagram) -> dict:
    doc: dict = {
        "front": front_mod.front_to_doc(d.front),
        "dots": list(d.dots),
        "frames": {c: k for c, k in d.frames},
    }
    if d.involution:
        doc["involution"] = {
            "components": [d.involution.comp1, d.involution.comp2],
            "center": [str(d.involution.cx), str(d.involution.cy)],
        }
    else:
        doc["involution"] = None
    if d.stein_front is not None:
        doc["stein"] = {
            "front": front_mod.front_to_doc(d.stein_front),
            "component": d.stein_component,
        }
    else:
        doc["stein"] = None
    return doc


def kirby_to_text(d: KirbyDiagram) -> str:
    lines = [front_mod.front_to_text(d.front).rstrip("\n")]
    for c in d.dots:
        lines.append(f"dot {c}")
    for c, k in d.frames:
        lines.append(f"frame {c} {k}")
    if d.involution:
        iv = d.involution
        lines.append(f"involution {iv.comp1} {iv.comp2} : rot180 {iv.cx} {iv.cy}")
    if d.stein_front is not None:
        for raw in front_mod.front_to_text(d.stein_front).splitlines():
            lines.append(f"stein {raw}")
        lines.append(f"stein component {d.stein_component}")
    return "\n".join(lines) + "\n"


# -- involution check ---------------------------------------------------------


def _segment_set(d: FrontDiagram, comp: str) -> set[frozenset]:
    segs = set()
    for arc in d.arcs:
        if arc.component != comp:
            continue
        for a, b in zip(arc.points, arc.points[1:]):
            segs.add(frozenset((a, b)))
    return segs


def involution_verified(d: KirbyDiagram) -> tuple[bool, str]:
    """Check that the declared half-turn exchanges the two named components.

    The check is exact set arithmetic: the point reflection must carry
    the segment multiset of one component onto the other's, both ways,
    and must preserve the handle balls.
    """
    if d.involution is None:
        return False, "no involution declared"
    iv = d.involution
    s1 = _segment_set(d.front, iv.comp1)
    s2 = _segment_set(d.front, iv.comp2)
    mapped = {frozenset(iv.apply(p) for p in seg) for seg in s1}
    if mapped != s2:
        return False, (
            f"half-turn about ({iv.cx}, {iv.cy}) does not carry {iv.comp1!r} "
            f"onto {iv.comp2!r}"
        )
    mapped_back = {frozenset(iv.apply(p) for p in seg) for seg in s2}
    if mapped_back != s1:
        return False, f"half-turn does not carry {iv.comp2!r} back onto {iv.comp1!r}"
    balls = {(b.x, b.ytop, b.ybot) for b in d.front.balls}
    mapped_balls = set()
    for x, ytop, ybot in balls:
        nx, nyb = iv.apply((x, ytop))
        _, nyt = iv.apply((x, ybot))
        mapped_balls.add((nx, nyt, nyb))
    if mapped_balls != balls:
        return False, "half-turn does not preserve the handle balls"
    return True, f"half-turn about ({iv.cx}, {iv.cy}) exchanges the two components"


# -- linking data and homology -----------------------------------------------


def linking_matrix(d: KirbyDiagram) -> tuple[list[str], list[list[int]]]:
    """Boundary surgery matrix: framings on the diagonal, dots become 0."""
    comps = d.front.components()
    framed = dict(d.frames)
    n = len(comps)
    m = [[0] * n for _ in range(n)]
    for i, ci in enumerate(comps):
        m[i][i] = framed.get(ci, 0)
        for j in range(i + 1, n):
            v = d.front.linking_number(ci, comps[j])
            m[i][j] = v
            m[j][i] = v
    return comps, m


def chain_boundary(d: KirbyDiagram) -> tuple[list[str], list[str], list[list[int]]]:
    """Two-handle boundary map; rows indexed by dotted, columns by framed."""
    dotted = d.dotted()
    framed = d.framed()
    rows = []
    for dc in dotted:
        rows.append([d.front.linking_number(fc, dc) for fc in framed])
    return dotted, framed, rows


@dataclass(frozen=True)
class HomologyReport:
    components: tuple[str, ...]
    linking_matrix: tuple[tuple[int, ...], ...]
    h_of_W: tuple[AbelianGroup, ...]       # degrees 0..4
    h_of_boundary: tuple[AbelianGroup, ...]  # degrees 0..3
    is_contractible: bool
    is_homology_sphere: bool

    def to_doc(self) -> dict:
        return {
            "components": list(self.components),
            "linking_matrix": [list(r) for r in self.linking_matrix],
            "h_of_W": [g.to_doc() for g in self.h_of_W],
            "h_of_boundary": [g.to_doc() for g in self.h_of_boundary],
            "is_contractible": self.is_contractible,
            "is_homology_sphere": self.is_homology_sphere,
        }


def homology(d: KirbyDiagram) -> HomologyReport:
    """Homology of the handlebody and of its closed boundary 3-manifold.

    The contractibility flag asserts trivial reduced homology together
    with equal 1- and 2-handle counts.  With at most one 1-handle that
    is a proof of contractibility: the fundamental group then has a
    single generator and the relator's exponent sum is a unit, which
    kills the group.  With more 1-handles the flag still only reports
    the homological criterion; callers who need genuine simple
    connectivity should stick to the one-handle case.
    """
    dotted, framed, bd2 = chain_boundary(d)
    h1_w = cokernel(bd2, len(dotted))
    if bd2 and bd2[0]:
        rank_bd2 = len(intmat.invariant_factors(bd2))
    else:
        rank_bd2 = 0
    h2_w = AbelianGroup(len(framed) - rank_bd2)
    h_of_w = (
        AbelianGroup(1),
        h1_w,
        h2_w,
        AbelianGroup(0),
        AbelianGroup(0),
    )
    comps, link = linking_matrix(d)
    h1_bd = cokernel(link, len(comps))
    h_of_boundary = (
        AbelianGroup(1),
        h1_bd,
        AbelianGroup(h1_bd.rank),
        AbelianGroup(1),
    )
    balanced = len(dotted) == len(framed)
    point_homology = h1_w.is_trivial and h2_w.is_trivial
    return HomologyReport(
        components=tuple(comps),
        linking_matrix=tuple(tuple(r) for r in link),
        h_of_W=h_of_w,
        h_of_boundary=h_of_boundary,
        is_contractible=point_homology and balanced,
        is_homology_sphere=h1_bd.is_trivial,
    )


# -- admissibility ------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    """Status of the four cork-candidate checks.

    cond1 is the per-component unknottedness certificate (one-sided:
    verified or inconclusive, never refuted).  cond2 is the exchanging
    involution.  cond3 is linking number a unit.  cond4prime is the
    exhibited Thurston-Bennequin condition: the Stein section must show
    the 2-handle curve over the 1-handle with tb at least +1; a diagram
    without a certifying exhibit is not admissible as presented.
    """

    cond1: tuple[tuple[str, str], ...]  # (component, "verified" | "inconclusive")
    cond1_evidence: tuple[tuple[str, dict], ...]
    cond2: str  # "verified" | "absent"
    cond2_detail: str
    cond3_status: str  # "holds" | "fails"
    cond3_value: int
    cond4prime_status: str  # "certified" | "not-certified"
    cond4prime_tb: int | None
    cond4prime_detail: str
    verdict: str  # "admissible" | "not admissible" | "inconclusive"
    note: str = CONDITION4_NOTE

    def to_doc(self) -> dict:
        return {
            "cond1": {c: s for c, s in self.cond1},
            "cond1_evidence": {c: e for c, e in self.cond1_evidence},
            "cond2": self.cond2,
            "cond2_detail": self.cond2_detail,
            "cond3": {"status": self.cond3_status, "value": self.cond3_value},
            "cond4prime": {
                "status": self.cond4prime_status,
                "tb": self.cond4prime_tb,
                "detail": self.cond4prime_detail,
            },
            "verdict": self.verdict,
            "note": self.note,
        }


def _verdict(report_fields: dict) -> str:
    definitive_bad = (
        report_fields["cond2"] == "absent"
        or report_fields["cond3_status"] == "fails"
        or report_fields["cond4prime_status"] == "not-certified"
    )
    if definitive_bad:
        return "not admissible"
    if any(s != "verified" for _, s in report_fields["cond1"]):
        return "inconclusive"
    return "admissible"


def check_admissible(d: KirbyDiagram, budget: int = 2000, seed: int = 0) -> AdmissibilityReport:
    comps = d.front.components()
    if len(comps) != 2:
        raise KirbyError(f"admissibility needs exactly 2 components, got {len(comps)}")
    if len(d.dots) != 1 or len(d.frames) != 1:
        raise KirbyError("admissibility needs one dotted and one framed component")
    if d.frames[0][1] != 0:
        raise KirbyError(f"the framed component must carry framing 0, got {d.frames[0][1]}")

    cond1 = []
    evidence = []
    for c in comps:
        cert = moves.unknot_certificate(d.front, c, budget=budget, seed=seed)
        cond1.append((c, "verified" if cert["verdict"] == "unknot" else "inconclusive"))
        evidence.append((c, cert))

    ok, detail = involution_verified(d)
    cond2 = "verified" if ok else "absent"

    lk = d.front.linking_number(comps[0], comps[1])
    cond3_status = "holds" if abs(lk) == 1 else "fails"

    exhibit = stein_exhibit_report(d)
    if exhibit is None:
        cond4_status = "not-certified"
        cond4_tb = None
        cond4_detail = "no Stein section exhibits the 2-handle curve over the 1-handle"
    elif exhibit["tb"] >= 1:
        cond4_status = "certified"
        cond4_tb = exhibit["tb"]
        cond4_detail = (
            f"exhibited Thurston-Bennequin number {exhibit['tb']} over the 1-handle "
            "is at least +1"
        )
    else:
        cond4_status = "not-certified"
        cond4_tb = exhibit["tb"]
        cond4_detail = (
            f"exhibited Thurston-Bennequin number {exhibit['tb']} is below +1"
        )

    fields = {
        "cond1": tuple(cond1),
        "cond2": cond2,
        "cond3_status": cond3_status,
        "cond4prime_status": cond4_status,
    }
    return AdmissibilityReport(
        cond1=tuple(cond1),
        cond1_evidence=tuple(evidence),
        cond2=cond2,
        cond2_detail=detail,
        cond3_status=cond3_status,
        cond3_value=lk,
        cond4prime_status=cond4_status,
        cond4prime_tb=cond4_tb,
        cond4prime_detail=cond4_detail,
        verdict=_verdict(fields),
    )


def stein_exhibit_report(d: KirbyDiagram) -> dict | None:
    if d.stein_front is None:
        return None
    comp = d.stein_component
    return {
        "component": comp,
        "tb": d.stein_front.tb(comp),
        "writhe": d.stein_front.writhe(comp),
        "cusps": d.stein_front.cusp_count(comp),
        "handle_passes": d.stein_front.handle_passes(comp),
        "handle_convention": front_mod.HANDLE_CONVENTION,
    }


# -- the cork twist -----------------------------------------------------------


def cork_twist(d: KirbyDiagram) -> KirbyDiagram:
    """Swap the dot and the 0-framing across the exchanging involution.

    Only defined for a verified two-component diagram with one dotted
    and one 0-framed component.  The Stein section is dropped: it
    exhibited the untwisted attaching curve and means nothing for the
    reglued diagram.
    """
    ok, detail = involution_verified(d)
    if not ok:
        raise KirbyError(f"cork twist needs a verified exchanging involution: {detail}")
    if len(d.dots) != 1 or len(d.frames) != 1:
        raise KirbyError("cork twist needs exactly one dotted and one framed component")
    old_dot = d.dots[0]
    old_framed, value = d.frames[0]
    if value != 0:
        raise KirbyError(f"cork twist needs framing 0, got {value}")
    if {old_dot, old_framed} != {d.involution.comp1, d.involution.comp2}:
        raise KirbyError("involution must exchange the dotted and framed components")
    return KirbyDiagram(
        front=d.front,
        dots=(old_framed,),
        frames=((old_dot, value),),
        involution=d.involution,
        stein_front=None,
        stein_component=None,
    )


# -- Stein realizability ------------------------------------------------------


def stein_side_status(
    framing: int,
    exhibited_tb: int | None,
    handle_passes: int | None,
    knot: str | None,
) -> dict:
    """Classify a 2-handle attachment against the Stein framing rule.

    An attachment along a Legendrian representative with framing at most
    tb - 1 is Stein; stabilization only lowers tb, so an exhibit with
    framing <= tb - 1 settles the question and equality is the exact
    contact-framing case.  A definitive obstruction needs the maximal
    Thurston-Bennequin number of the knot type, which is only applicable
    to fronts with no 1-handle passes.
    """
    out: dict = {
        "framing": framing,
        "exhibited_tb": exhibited_tb,
        "handle_passes": handle_passes,
        "knot": knot,
        "kb_fact": None,
        "status": "unknown",
        "reason": None,
    }
    if exhibited_tb is not None and framing <= exhibited_tb - 1:
        if framing == exhibited_tb - 1:
            out["status"] = "exact"
            out["reason"] = f"framing {framing} equals exhibited tb {exhibited_tb} minus 1"
        else:
            out["status"] = "realizable"
            out["reason"] = (
                f"framing {framing} is below exhibited tb {exhibited_tb} minus 1; "
                "stabilize the exhibit down to meet it exactly"
            )
        return out
    if knot is not None and knot in KNOT_FACTS and handle_passes == 0:
        fact = KNOT_FACTS[knot]
        out["kb_fact"] = fact["statement"]
        max_tb = fact["max_tb"]
        if framing > max_tb - 1:
            out["status"] = "obstructed"
            out["reason"] = f"framing {framing} ≠ tb − 1 for exhibited tb ≤ {max_tb}"
        else:
            out["status"] = "realizable"
            out["reason"] = (
                f"framing {framing} is at most maximal tb {max_tb} minus 1, which a "
                "maximal representative realizes"
            )
        return out
    if exhibited_tb is not None:
        out["reason"] = (
            f"exhibit shows tb {exhibited_tb}, too low for framing {framing}, and no "
            "maximal-tb fact applies"
        )
    else:
        out["reason"] = "no exhibit and no applicable knot fact"
    return out


# -- inflation ----------------------------------------------------------------


@dataclass(frozen=True)
class CobordismRecord:
    """One 2-handle attached to the boundary of a diagram's 4-manifold.

    The attaching knot comes as its own front, possibly drawn over a
    1-handle ball pair, and the record carries the Stein verdict of the
    attachment plus any registered facts about the knot type.
    """

    knot: str | None
    component: str
    framing: int
    exhibited_tb: int
    handle_passes: int
    stein: dict
    facts: dict | None


def inflate(
    d: KirbyDiagram,
    attaching: FrontDiagram,
    framing: int,
    component: str | None = None,
) -> CobordismRecord:
    """Attach a 2-handle to the boundary along the given front's knot."""
    comps = attaching.components()
    if component is None:
        if len(comps) != 1:
            raise KirbyError(
                f"attaching front has {len(comps)} components; name one explicitly"
            )
        component = comps[0]
    elif component not in comps:
        raise KirbyError(f"attaching front has no component {component!r}")
    knot = attaching.knottype(component)
    facts = None
    if knot is not None:
        if knot not in KNOT_FACTS:
            raise KirbyError(f"unregistered knot type {knot!r}")
        facts = KNOT_FACTS[knot]
    tb = attaching.tb(component)
    passes = attaching.handle_passes(component)
    stein = stein_side_status(framing, tb, passes, knot)
    return CobordismRecord(
        knot=knot,
        component=component,
        framing=framing,
        exhibited_tb=tb,
        handle_passes=passes,
        stein=stein,
        facts=facts,
    )


# -- inflation spec files -----------------------------------------------------


@dataclass(frozen=True)
class InflationSpec:
    """A paired attachment: the same knot seen before and after the twist."""

    knot: str
    framing: int
    untwisted_front: FrontDiagram
    untwisted_component: str
    twisted_front: FrontDiagram
    twisted_component: str


def parse_inflation_spec(text: str, base_dir: str | Path) -> InflationSpec:
    base = Path(base_dir)
    fields: dict = {}
    for lineno, line in front_mod.numbered_lines(text):
        head, _, rest = line.partition(" ")
        parts = rest.split()
        if head == "knot":
            if len(parts) != 1:
                raise FrontParseError("usage: knot <name>", lineno)
            fields["knot"] = parts[0]
        elif head == "framing":
            if len(parts) != 1:
                raise FrontParseError("usage: framing <integer>", lineno)
            try:
                fields["framing"] = int(parts[0])
            except ValueError:
                raise FrontParseError(f"framing {parts[0]!r} is not an integer", lineno)
        elif head in ("untwisted", "twisted"):
            if len(parts) != 2:
                raise FrontParseError(f"usage: {head} <front-file> <component>", lineno)
            path = base / parts[0]
            try:
                loaded = front_mod.parse_front(path.read_text())
            except OSError as exc:
                raise FrontParseError(f"cannot read {path}: {exc}", lineno)
            fields[f"{head}_front"] = loaded
            fields[f"{head}_component"] = parts[1]
        else:
            raise FrontParseError(f"unknown statement {head!r}", lineno)
    missing = {
        "knot",
        "framing",
        "untwisted_front",
        "untwisted_component",
        "twisted_front",
        "twisted_component",
    } - set(fields)
    if missing:
        raise FrontParseError(f"inflation spec is missing: {sorted(missing)}")
    spec = InflationSpec(**fields)
    for side in ("untwisted", "twisted"):
        fr: FrontDiagram = getattr(spec, f"{side}_front")
        comp = getattr(spec, f"{side}_component")
        if comp not in fr.components():
            raise FrontParseError(f"{side} exhibit has no component {comp!r}")
        declared = fr.knottype(comp)
        if declared is not None and declared != spec.knot:
            raise FrontParseError(
                f"{side} exhibit declares knot type {declared!r}, spec says {spec.knot!r}"
            )
    return spec


# -- parametrized examples ----------------------------------------------------


def linked_handle_pair(n: int) -> KirbyDiagram:
    """A dotted circle and a 0-framed circle with linking number of size n.

    The dotted component is a tall lens; the framed one weaves through
    it n times, wrapping below between passes, or sits disjoint for
    n = 0.  The closing return dives across the nested wraps, so for
    n >= 2 the framed component picks up n - 1 self-crossings; they do
    not touch linking numbers or homology.  The family's boundary
    homology is Z/n + Z/n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    big = Fraction(2 * n + 2)
    arcs: list[front_mod.Arc] = [
        front_mod.Arc(
            "K1", ((Fraction(0), -big), (Fraction(-3), Fraction(0)), (Fraction(0), big))
        ),
        front_mod.Arc(
            "K1", ((Fraction(0), big), (Fraction(3), Fraction(0)), (Fraction(0), -big))
        ),
    ]
    if n == 0:
        arcs.append(
            front_mod.Arc(
                "K2",
                (
                    (Fraction(10), Fraction(0)),
                    (Fraction(14), Fraction(2)),
                    (Fraction(18), Fraction(0)),
                ),
            )
        )
        arcs.append(
            front_mod.Arc(
                "K2",
                (
                    (Fraction(18), Fraction(0)),
                    (Fraction(14), Fraction(-2)),
                    (Fraction(10), Fraction(0)),
                ),
            )
        )
    else:
        # Horizontal passes through the lens at descending heights; the
        # wrap between pass i and pass i+1 nests under the lens, widest
        # and deepest for i = 0.  The closing return dives just right of
        # the passes, runs below everything, climbs outside every wrap,
        # and comes back level with the top pass.
        heights = [Fraction(-4 * i - 3, 2) for i in range(n)]
        points: list[tuple[Fraction, Fraction]] = []
        for i in range(n - 1):
            width = Fraction(8 + 2 * (n - 2 - i))
            depth = -big - 2 - 2 * (n - 2 - i)
            points.extend(
                [
                    (Fraction(-6), heights[i]),
                    (Fraction(6), heights[i]),
                    (width, depth),
                    (-width, depth),
                ]
            )
        deep = Fraction(-4 * n - 2)
        points.extend(
            [
                (Fraction(-6), heights[n - 1]),
                (Fraction(6), heights[n - 1]),
                (Fraction(7), deep),
                (Fraction(-2 * n - 7), deep),
                (Fraction(-2 * n - 6), heights[0]),
                (Fraction(-6), heights[0]),
            ]
        )
        arcs.append(front_mod.Arc("K2", tuple(points)))
    fr = FrontDiagram(tuple(arcs), (), (("K1", 1), ("K2", 1)), ())
    lk = fr.linking_number("K1", "K2")
    if abs(lk) != n:
        raise AssertionError(f"construction drift: linking number {lk}, wanted size {n}")
    return KirbyDiagram(fr, dots=("K1",), frames=(("K2", 0),))
