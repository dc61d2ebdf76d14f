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

import math
from pathlib import Path
from typing import NamedTuple

from . import front as front_mod
from . import intmat, moves
from .base import InputError, Record, load_json, numbered_lines, parse_int, read_text
from .front import FrontDiagram, FrontParseError, json_list, json_object

# Facts about specific knot types used to certify Stein obstructions.
# The maximal Thurston-Bennequin numbers are classical bounds for knots
# in the standard contact 3-sphere, so they apply only to components
# presented in a plain front: no 1-handle passes.
KNOT_FACTS = {
    "unknot": {"max_tb": -1, "seifert_genus": 0},
    "right_trefoil": {"max_tb": 1, "seifert_genus": 1},
}


class KirbyError(InputError):
    pass


class Involution(NamedTuple):
    """The half-turn about (cx, cy), integers over `scale`, exchanging comp1 and comp2."""

    comp1: str
    comp2: str
    cx: int
    cy: int
    scale: int = 1

    def spelled_centre(self) -> tuple[str, str]:
        return front_mod.fmt_ratio(self.cx, self.scale), front_mod.fmt_ratio(self.cy, self.scale)


class AbelianGroup(Record):
    """Finitely generated abelian group in invariant-factor form."""

    __slots__ = _fields = ("rank", "torsion")
    rank: int
    torsion: tuple[int, ...]

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()) -> None:
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion orders must form a divisibility chain")
        for t in torsion:
            if t < 2:
                raise ValueError("torsion orders must be at least 2")
        self._assign(rank, torsion)

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


class KirbyDiagram(Record):
    __slots__ = _fields = (
        "front", "dots", "frames", "involution", "stein_front", "stein_component"
    )
    front: FrontDiagram
    dots: tuple[str, ...]
    frames: tuple[tuple[str, int], ...]
    involution: Involution | None
    stein_front: FrontDiagram | None
    stein_component: str | None

    def __init__(
        self,
        front: FrontDiagram,
        dots: tuple[str, ...] = (),
        frames: tuple[tuple[str, int], ...] = (),
        involution: Involution | None = None,
        stein_front: FrontDiagram | None = None,
        stein_component: str | None = None,
    ) -> None:
        comps = front.components()
        framed = dict(frames)
        for c in dots:
            if c not in comps:
                raise KirbyError(f"dot on unknown component {c!r}")
            if c in framed:
                raise KirbyError(f"component {c!r} is both dotted and framed")
        for c in framed:
            if c not in comps:
                raise KirbyError(f"framing on unknown component {c!r}")
        undecorated = [c for c in comps if c not in dots and c not in framed]
        if undecorated:
            raise KirbyError(f"components without dot or framing: {undecorated}")
        if len(dots) != len(set(dots)) or len(framed) != len(frames):
            raise KirbyError("duplicate decoration")
        if involution is not None:
            for c in (involution.comp1, involution.comp2):
                if c not in comps:
                    raise KirbyError(f"involution names unknown component {c!r}")
            if involution.comp1 == involution.comp2:
                raise KirbyError("exchanging involution needs two distinct components")
        if (stein_front is None) != (stein_component is None):
            raise KirbyError("stein section needs both a front and a component choice")
        if stein_front is not None:
            if stein_component not in stein_front.components():
                raise KirbyError(
                    f"stein component {stein_component!r} is not in the stein front"
                )
        self._assign(front, dots, frames, involution, stein_front, stein_component)

    def dotted(self) -> list[str]:
        return [c for c in self.front.components() if c in self.dots]

    def framed(self) -> list[str]:
        return [c for c in self.front.components() if c in dict(self.frames)]


# -- parsing ------------------------------------------------------------------


class KirbyBuilder:
    """Takes one diagram statement per call, with every check on it, then builds
    the diagram; `front` and `stein` take the front statements of the diagram
    and of its Stein section.  parse_kirby's lines and kirby_from_doc's
    document only split their spelling into these calls."""

    def __init__(self) -> None:
        self.front = front_mod.FrontBuilder()
        self.stein = front_mod.FrontBuilder()
        self.stein_lines = False  # a `stein` line was read
        self.dots: list[str] = []
        self.frames: list[tuple[str, int]] = []
        self.rot180: Involution | None = None
        self.stein_name: str | None = None

    def dot(self, component: object, line: int | None = None) -> None:
        self.dots.append(front_mod.check_name(component, "component", line))

    def frame(self, component: object, framing: object, line: int | None = None) -> None:
        name = front_mod.check_name(component, "component", line)
        if type(framing) is not int:  # no floats, no booleans
            raise TypeError(f"framing {framing!r} of {name!r} is not an integer")
        self.frames.append((name, framing))

    def involution(self, comp1: object, comp2: object, cx: tuple[int, int],
                   cy: tuple[int, int], line: int | None = None) -> None:
        """The half-turn about (cx, cy), given as ratios, exchanging comp1 and comp2."""
        names = [front_mod.check_name(c, "component", line) for c in (comp1, comp2)]
        if self.rot180 is not None:
            raise FrontParseError("second involution line", line)
        scale = math.lcm(cx[1], cy[1])
        self.rot180 = Involution(*names, cx[0] * (scale // cx[1]), cy[0] * (scale // cy[1]), scale)

    def stein_component(self, component: object, line: int | None = None) -> None:
        if self.stein_name is not None:
            raise FrontParseError("second stein component line", line)
        self.stein_name = front_mod.check_name(component, "stein component", line)

    def statement(self, text: str, line: int) -> None:
        """Split one line of the .kirby grammar into its call."""
        head, _, rest = text.partition(" ")
        if head == "dot":
            self.dot(rest.strip(), line)
        elif head == "frame":
            parts = rest.split()
            if len(parts) != 2:
                raise FrontParseError("usage: frame <component> <integer>", line)
            try:
                framing = parse_int(parts[1])
            except ValueError:
                raise FrontParseError(f"framing {parts[1]!r} is not an integer", line)
            self.frame(parts[0], framing, line)
        elif head == "involution":
            name_part, _, script = rest.partition(":")
            names = name_part.split()
            toks = script.split()
            if len(names) != 2 or len(toks) != 3 or toks[0] != "rot180":
                raise FrontParseError("usage: involution <c1> <c2> : rot180 <cx> <cy>", line)
            cx, cy = (front_mod.parse_ratio(t, line) for t in toks[1:])
            self.involution(*names, cx, cy, line)
        elif head == "stein":
            self.stein_lines = True
            inner_head, _, inner_rest = rest.strip().partition(" ")
            if inner_head == "component":
                self.stein_component(inner_rest.strip(), line)
            elif not self.stein.statement(rest.strip(), line):
                raise FrontParseError(f"unknown stein statement {inner_head!r}", line)
        elif not self.front.statement(text, line):
            raise FrontParseError(f"unknown statement {head!r}", line)

    def build(self) -> KirbyDiagram:
        if self.stein_lines and self.stein_name is None:
            raise FrontParseError("stein section is missing a 'stein component' line")
        stein_front = None if self.stein_name is None else self.stein.build()
        return KirbyDiagram(self.front.build(), tuple(self.dots), tuple(self.frames),
                            self.rot180, stein_front, self.stein_name)


def parse_kirby(text: str) -> KirbyDiagram:
    """Parse the .kirby line grammar, or the JSON equivalent if text starts with '{'."""
    if text.lstrip().startswith("{"):
        # numbers with a fraction part stay strings, for parse_ratio
        return kirby_from_doc(load_json(text, KirbyError, parse_float=str))
    builder = KirbyBuilder()
    for lineno, line in numbered_lines(text):
        builder.statement(line, lineno)
    return builder.build()


def kirby_from_doc(doc: dict) -> KirbyDiagram:
    """Diagram from its JSON document; a missing or ill-typed field is a KirbyError."""
    builder = KirbyBuilder()
    with front_mod.reading_doc("diagram document", KirbyError):
        doc = json_object(doc, "diagram document",
                          ("front", "dots", "frames", "involution", "stein"))
        front_mod.front_doc_statements(doc["front"], builder.front)
        for comp in json_list(doc.get("dots", []), "dots"):
            builder.dot(comp)
        for comp, framing in doc.get("frames", {}).items():
            builder.frame(comp, framing)
        # kirby_to_doc writes null for no involution and no stein section
        if doc.get("involution") is not None:
            iv = json_object(doc["involution"], "involution", ("components", "center"))
            comp1, comp2 = json_list(iv["components"], "components")
            cx, cy = (front_mod.parse_ratio(str(v)) for v in json_list(iv["center"], "center"))
            builder.involution(comp1, comp2, cx, cy)
        if doc.get("stein") is not None:
            stein = json_object(doc["stein"], "stein section", ("front", "component"))
            front_mod.front_doc_statements(stein["front"], builder.stein)
            builder.stein_component(stein["component"])
    return builder.build()


def kirby_to_doc(d: KirbyDiagram) -> dict:
    doc: dict = {
        "front": front_mod.front_to_doc(d.front),
        "dots": list(d.dots),
        "frames": {c: k for c, k in d.frames},
    }
    if d.involution:
        doc["involution"] = {
            "components": [d.involution.comp1, d.involution.comp2],
            "center": list(d.involution.spelled_centre()),
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
        cx, cy = iv.spelled_centre()
        lines.append(f"involution {iv.comp1} {iv.comp2} : rot180 {cx} {cy}")
    if d.stein_front is not None:
        for raw in front_mod.front_to_text(d.stein_front).splitlines():
            lines.append(f"stein {raw}")
        lines.append(f"stein component {d.stein_component}")
    return "\n".join(lines) + "\n"


# -- involution check ---------------------------------------------------------


def _unordered(segs: list[front_mod.Segment]) -> set[front_mod.Segment]:
    """Each segment with its left end first (no front segment is vertical)."""
    return {(px, py, qx, qy) if px < qx else (qx, qy, px, py) for px, py, qx, qy in segs}


def involution_verified(d: KirbyDiagram) -> tuple[bool, str]:
    """Check that the declared half-turn exchanges the two named components.

    The check is exact set arithmetic on the front's frame integers: the
    point reflection p -> 2c - p must carry the segment set of one
    component onto the other's, and must preserve the handle balls.  With
    2c not a frame point it carries no frame point onto one.  A half-turn
    is its own inverse, so it then carries the second component back onto
    the first as well.
    """
    if d.involution is None:
        return False, "no involution declared"
    iv = d.involution
    cx, cy = iv.spelled_centre()
    frame = d.front.frame()
    # 2c in the frame's integers
    tx, rx = divmod(2 * iv.cx * frame.scale, iv.scale)
    ty, ry = divmod(2 * iv.cy * frame.scale, iv.scale)
    # a left-to-right segment pq turns into the left-to-right segment (2c - q)(2c - p)
    mapped = {(tx - qx, ty - qy, tx - px, ty - py)
              for px, py, qx, qy in _unordered(frame.segs[iv.comp1])}
    if rx or ry or mapped != _unordered(frame.segs[iv.comp2]):
        return False, (
            f"half-turn about ({cx}, {cy}) does not carry {iv.comp1!r} onto {iv.comp2!r}"
        )
    balls = {(x, ytop, ybot) for _, x, ytop, ybot in frame.balls}
    if {(tx - x, ty - ybot, ty - ytop) for x, ytop, ybot in balls} != balls:
        return False, "half-turn does not preserve the handle balls"
    return True, f"half-turn about ({cx}, {cy}) exchanges the two components"


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


def homology(d: KirbyDiagram) -> dict:
    """The homology document of the handlebody (degrees 0..4) and of its
    closed boundary 3-manifold (degrees 0..3).

    The contractibility flag asserts trivial reduced homology together
    with equal 1- and 2-handle counts.  With at most one 1-handle that
    is a proof of contractibility: the fundamental group then has a
    single generator and the relator's exponent sum is a unit, which
    kills the group.  With more 1-handles the flag still only reports
    the homological criterion; callers who need genuine simple
    connectivity should stick to the one-handle case.
    """
    comps, link = linking_matrix(d)
    dotted, framed = d.dotted(), d.framed()
    # the 2-handle boundary map: rows dotted, columns framed, read off link
    index = {c: i for i, c in enumerate(comps)}
    bd2 = [[link[index[dc]][index[fc]] for fc in framed] for dc in dotted]
    h1_w = cokernel(bd2, len(dotted))
    # the boundary map has rank len(dotted) minus its cokernel's free rank
    h2_w = AbelianGroup(len(framed) - (len(dotted) - h1_w.rank))
    h_of_w = (
        AbelianGroup(1),
        h1_w,
        h2_w,
        AbelianGroup(0),
        AbelianGroup(0),
    )
    h1_bd = cokernel(link, len(comps))
    h_of_boundary = (
        AbelianGroup(1),
        h1_bd,
        AbelianGroup(h1_bd.rank),
        AbelianGroup(1),
    )
    balanced = len(dotted) == len(framed)
    point_homology = h1_w.is_trivial and h2_w.is_trivial
    return {
        "components": comps,
        "linking_matrix": link,
        "h_of_W": [g.to_doc() for g in h_of_w],
        "h_of_boundary": [g.to_doc() for g in h_of_boundary],
        "is_contractible": point_homology and balanced,
        "is_homology_sphere": h1_bd.is_trivial,
    }


# -- admissibility ------------------------------------------------------------


def admissibility(
    cond1_evidence: dict[str, dict],
    involution_ok: bool,
    cond2_detail: str,
    cond3_value: int,
    cond4prime_tb: int | None,
) -> dict:
    """The admissibility document: the evidence of the four cork-candidate
    checks, and the statuses and verdict it implies.

    cond1 is the per-component unknottedness certificate, keyed by component
    (one-sided: verified or inconclusive, never refuted).  cond2 is the
    exchanging involution.  cond3 is linking number a unit; cond3_value is
    the linking number of the two components.  cond4prime is the exhibited
    Thurston-Bennequin condition: the Stein section must show the 2-handle
    curve over the 1-handle with tb at least +1; cond4prime_tb is None when
    there is no Stein section, and a diagram without a certifying exhibit is
    not admissible as presented.  A definite failure of cond2, cond3 or
    cond4prime makes the verdict "not admissible" whatever cond1 says;
    otherwise an unsettled cond1 makes it "inconclusive".
    """
    cond1 = {
        c: "verified" if cert["verdict"] == "unknot" else "inconclusive"
        for c, cert in cond1_evidence.items()
    }
    cond3 = "holds" if abs(cond3_value) == 1 else "fails"
    tb = cond4prime_tb
    if tb is None:
        cond4 = "not-certified"
        cond4_detail = "no Stein section exhibits the 2-handle curve over the 1-handle"
    elif tb >= 1:
        cond4 = "certified"
        cond4_detail = f"exhibited Thurston-Bennequin number {tb} over the 1-handle is at least +1"
    else:
        cond4 = "not-certified"
        cond4_detail = f"exhibited Thurston-Bennequin number {tb} is below +1"
    if not involution_ok or cond3 == "fails" or cond4 == "not-certified":
        verdict = "not admissible"
    elif any(s != "verified" for s in cond1.values()):
        verdict = "inconclusive"
    else:
        verdict = "admissible"
    return {
        "cond1": cond1,
        "cond1_evidence": cond1_evidence,
        "cond2": "verified" if involution_ok else "absent",
        "cond2_detail": cond2_detail,
        "cond3": {"status": cond3, "value": cond3_value},
        "cond4prime": {"status": cond4, "tb": tb, "detail": cond4_detail},
        "verdict": verdict,
        "note": "condition (4) checked via its exhibited form (4')",
    }


def check_admissible(
    d: KirbyDiagram, budget: int = moves.DEFAULT_BUDGET, seed: int = moves.DEFAULT_SEED
) -> dict:
    """Run the four cork-candidate checks on d; returns the admissibility document."""
    comps = d.front.components()
    if len(comps) != 2:
        raise KirbyError(f"admissibility needs exactly 2 components, got {len(comps)}")
    if len(d.dots) != 1 or len(d.frames) != 1:
        raise KirbyError("admissibility needs one dotted and one framed component")
    if d.frames[0][1] != 0:
        raise KirbyError(f"the framed component must carry framing 0, got {d.frames[0][1]}")
    ok, detail = involution_verified(d)
    return admissibility(
        {c: moves.unknot_certificate(d.front, c, budget=budget, seed=seed) for c in comps},
        involution_ok=ok,
        cond2_detail=detail,
        cond3_value=d.front.linking_number(comps[0], comps[1]),
        cond4prime_tb=None if d.stein_front is None else d.stein_front.tb(d.stein_component),
    )


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


# -- inflation spec files -----------------------------------------------------


class InflationSpec(NamedTuple):
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
    seen: set[str] = set()  # every statement of a spec is single-valued
    for lineno, line in numbered_lines(text):
        head, _, rest = line.partition(" ")
        parts = rest.split()
        if head in seen:
            raise FrontParseError(f"second {head} line", lineno)
        seen.add(head)
        if head == "knot":
            if len(parts) != 1:
                raise FrontParseError("usage: knot <name>", lineno)
            fields["knot"] = parts[0]
        elif head == "framing":
            if len(parts) != 1:
                raise FrontParseError("usage: framing <integer>", lineno)
            try:
                fields["framing"] = parse_int(parts[0])
            except ValueError:
                raise FrontParseError(f"framing {parts[0]!r} is not an integer", lineno)
        elif head in ("untwisted", "twisted"):
            if len(parts) != 2:
                raise FrontParseError(f"usage: {head} <front-file> <component>", lineno)
            fields[f"{head}_front"] = front_mod.parse_front(read_text(base / parts[0], lineno))
            fields[f"{head}_component"] = parts[1]
        else:
            raise FrontParseError(f"unknown statement {head!r}", lineno)
    missing = set(InflationSpec._fields) - set(fields)
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
    big = 2 * n + 2
    arcs: list[front_mod.Arc] = [
        front_mod.Arc("K1", ((0, -big), (-3, 0), (0, big))),
        front_mod.Arc("K1", ((0, big), (3, 0), (0, -big))),
    ]
    if n == 0:
        arcs.append(front_mod.Arc("K2", ((10, 0), (14, 2), (18, 0))))
        arcs.append(front_mod.Arc("K2", ((18, 0), (14, -2), (10, 0))))
    else:
        # Horizontal passes through the lens at descending heights; the
        # wrap between pass i and pass i+1 nests under the lens, widest
        # and deepest for i = 0.  The closing return dives just right of
        # the passes, runs below everything, climbs outside every wrap,
        # and comes back level with the top pass.  The heights are
        # half-integers, so K2's points are integers over 2.
        heights = [-4 * i - 3 for i in range(n)]
        points: list[tuple[int, int]] = []
        for i in range(n - 1):
            width = 2 * (8 + 2 * (n - 2 - i))
            depth = 2 * (-big - 2 - 2 * (n - 2 - i))
            points.extend([(-12, heights[i]), (12, heights[i]), (width, depth), (-width, depth)])
        deep = 2 * (-4 * n - 2)
        points.extend(
            [
                (-12, heights[n - 1]),
                (12, heights[n - 1]),
                (14, deep),
                (2 * (-2 * n - 7), deep),
                (2 * (-2 * n - 6), heights[0]),
                (-12, heights[0]),
            ]
        )
        arcs.append(front_mod.Arc("K2", tuple(points), 2))
    fr = FrontDiagram(tuple(arcs), (), (("K1", 1), ("K2", 1)), ())
    lk = fr.linking_number("K1", "K2")
    if abs(lk) != n:
        raise AssertionError(f"construction drift: linking number {lk}, wanted size {n}")
    return KirbyDiagram(fr, dots=("K1",), frames=(("K2", 0),))
