"""The certificate engine: a fixed proof scheme replayed as checkable steps.

Nothing in this module computes Floer homology.  certify_distinct replays
the fixed chain of deductions that separates the two contact classes as
a certificate: a list of steps, each citing one axiom in plain words,
naming its elements by fixed strings, and carrying arithmetic side
conditions whose recorded values can be re-evaluated from the
certificate alone.  The split is deliberate: applicability arithmetic is
checked exhaustively here (the adjunction rule and the degree shift are
the numeric rules it uses), and every imported fact is surfaced as a
declared assumption instead of being silently used.

Side-condition expressions form a tiny closed language (integers,
+ - * / %, abs, comparisons, and an is_identity predicate on an inlined
integer matrix) evaluated by a small recursive-descent parser, never by
the host language's eval.  Tampering with any recorded value breaks
either the re-evaluation or the content digest, and validation checks
both, plus the rule that every non-given input of a step must be the
output of an earlier step.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from . import intmat, kirby
from .fillings import Assumption, FillingPlan
from .kirby import AbelianGroup, AdmissibilityReport, CobordismRecord, KirbyDiagram


class HFError(ValueError):
    """An unknown tower or an unreadable side condition."""


class RuleNotApplicable(ValueError):
    """A rule's numeric preconditions are not met; never a false verdict."""


class CertificateAbort(ValueError):
    """A deduction died; carries the side condition that failed."""

    def __init__(self, message: str, condition: dict | None = None) -> None:
        super().__init__(message)
        self.condition = condition


# -- the three-sphere's towers and the named elements -------------------------

def hf_s3(version: str, n: int) -> AbelianGroup:
    """Degree-n piece of the three-sphere's plus or minus tower."""
    if version not in ("+", "-"):
        raise HFError(f"version must be '+' or '-', got {version!r}")
    if n % 2 != 0:
        return AbelianGroup(0)
    if version == "+" and n >= 0:
        return AbelianGroup(1)
    if version == "-" and n <= -2:
        return AbelianGroup(1)
    return AbelianGroup(0)


# the elements the certificate names: the tower generators in the degrees
# where the mixed maps act (both towers are Z there), the contact element
# of the boundary and its pullback under the boundary involution
THETA_MINUS = "Θ-(-2)"
THETA_PLUS = "Θ+(0)"
CONTACT = "c+(ξ)"
TWISTED_CONTACT = "τ*c+(ξ)"


# -- numeric decorations ------------------------------------------------------

@dataclass(frozen=True)
class SpinCDecoration:
    """Numeric shadow of a spin-c structure: only what the formulas eat."""

    c1_squared: int
    sigma: int | None
    chi: int


def degree_shift(s: SpinCDecoration) -> Fraction:
    """Exact degree shift (c1^2 - 3*sigma - 2*chi) / 4 of the induced maps."""
    if s.sigma is None:
        raise RuleNotApplicable(
            "signature unknown; provide sigma to compute the degree shift"
        )
    return Fraction(s.c1_squared - 3 * s.sigma - 2 * s.chi, 4)


# -- adjunction rule ----------------------------------------------------------

def adjunction_violated(g: int, self_int: int, pairing: int) -> bool:
    """True iff |pairing| + self_int exceeds 2g - 2 for an embedded surface.

    Outside the rule's scope (genus 0 or negative self-intersection) this
    raises instead of answering, so inapplicability is never mistaken
    for a verdict.
    """
    if g < 1:
        raise RuleNotApplicable(
            f"adjunction rule not applicable (g ≥ 1 fails for genus {g})"
        )
    if self_int < 0:
        raise RuleNotApplicable(
            "adjunction rule not applicable "
            f"(self-intersection must be non-negative, got {self_int})"
        )
    return abs(pairing) + self_int > 2 * g - 2


# -- certificates -------------------------------------------------------------

@dataclass(frozen=True)
class SideCondition:
    expr: str
    value: bool

    def to_doc(self) -> dict:
        return {"expr": self.expr, "value": self.value}


@dataclass(frozen=True)
class Step:
    rule: str
    quote: str
    inputs: tuple[str, ...]
    side_conditions: tuple[SideCondition, ...]
    outputs: tuple[str, ...]

    def to_doc(self) -> dict:
        return {
            "rule": self.rule,
            "quote": self.quote,
            "inputs": list(self.inputs),
            "side_conditions": [c.to_doc() for c in self.side_conditions],
            "outputs": list(self.outputs),
        }


@dataclass(frozen=True)
class Certificate:
    steps: tuple[Step, ...]
    verdict: str
    assumptions: tuple[Assumption, ...]

    def to_doc(self) -> dict:
        body = self.body_doc()
        body["digest"] = certificate_digest(body)
        return body

    def body_doc(self) -> dict:
        return {
            "steps": [s.to_doc() for s in self.steps],
            "verdict": self.verdict,
            "assumptions": [a.to_doc() for a in self.assumptions],
        }


def certificate_digest(body: dict) -> str:
    """Stable content hash over everything except the digest itself."""
    trimmed = {k: v for k, v in body.items() if k != "digest"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- the side-condition language ----------------------------------------------

_TOKEN = re.compile(r"\s*(==|!=|<=|>=|<|>|[-+*/%()]|[0-9]+|abs)")
# nesting levels ("(", "abs(", unary "-") one condition may open; the
# descent takes up to three frames per level, so this keeps it well
# inside the interpreter's recursion limit
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent over integer/rational arithmetic comparisons."""

    def __init__(self, text: str) -> None:
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise HFError(f"bad token in condition at {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.at = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise HFError("condition ended early")
        if expected is not None and tok != expected:
            raise HFError(f"expected {expected!r}, got {tok!r}")
        self.at += 1
        return tok

    def compare(self) -> bool:
        left = self.arith()
        op = self.take()
        if op not in ("==", "!=", "<=", ">=", "<", ">"):
            raise HFError(f"expected a comparison, got {op!r}")
        right = self.arith()
        if self.peek() is not None:
            raise HFError(f"trailing tokens from {self.peek()!r}")
        return {
            "==": left == right,
            "!=": left != right,
            "<=": left <= right,
            ">=": left >= right,
            "<": left < right,
            ">": left > right,
        }[op]

    def arith(self) -> Fraction:
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> Fraction:
        value = self.unary()
        while self.peek() in ("*", "/", "%"):
            op = self.take()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            elif op == "/":
                if rhs == 0:
                    raise HFError("division by zero in condition")
                value = value / rhs
            else:
                if value.denominator != 1 or rhs.denominator != 1 or rhs == 0:
                    raise HFError("% needs nonzero integer operands")
                value = Fraction(int(value) % int(rhs))
        return value

    def unary(self) -> Fraction:
        tok = self.peek()
        if tok is not None and tok.isascii() and tok.isdigit():
            self.take()
            try:
                return Fraction(int(tok))
            except ValueError as exc:  # too many digits to convert
                raise HFError(f"bad integer in condition: {exc}") from None
        if tok not in ("-", "abs", "("):
            raise HFError(f"expected a value, got {tok!r}")
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise HFError(f"condition nests deeper than {_MAX_DEPTH} levels")
        self.take()
        if tok == "-":
            value = -self.unary()
        elif tok == "abs":
            self.take("(")
            value = abs(self.arith())
            self.take(")")
        else:
            value = self.arith()
            self.take(")")
        self.depth -= 1
        return value


def eval_condition(expr: str) -> bool:
    """Evaluate one side-condition expression; no names, no host eval."""
    stripped = expr.strip()
    if stripped.startswith("is_identity(") and stripped.endswith(")"):
        inner = stripped[len("is_identity("):-1]
        try:
            mat = json.loads(inner)
        except ValueError as exc:  # also an integer too long to convert
            raise HFError(f"bad matrix literal: {exc}")
        except RecursionError:
            raise HFError("matrix literal is nested too deeply") from None
        if (not isinstance(mat, list) or not mat
                or any(not isinstance(row, list) or len(row) != len(mat)
                       for row in mat)
                or any(not isinstance(v, int) for row in mat for v in row)):
            raise HFError("is_identity wants a square integer matrix")
        return all(
            v == (1 if i == j else 0)
            for i, row in enumerate(mat) for j, v in enumerate(row)
        )
    return _Parser(stripped).compare()


def _cond(expr: str) -> SideCondition:
    return SideCondition(expr, eval_condition(expr))


# -- axioms (stated in this package's own words) ------------------------------

AXIOMS: dict[str, str] = {
    "cork_admissible": (
        "a diagram passing the four admissibility conditions presents a "
        "contractible domain whose boundary carries an exchanging involution"
    ),
    "stein_untwisted_attachment": (
        "attaching a 2-handle along a Legendrian curve with framing one "
        "below its exhibited Thurston-Bennequin number keeps the domain Stein"
    ),
    "concave_filling_plan": (
        "a Stein-fillable boundary admits a concave filling built from a "
        "binding cap, chain-relator handles, and a trivial bundle piece"
    ),
    "lefschetz_nonvanishing": (
        "a relatively minimal closed fibration with fiber genus above one "
        "and b2+ at least two has nonvanishing mixed map on the bottom "
        "generator, so its canonical decoration is a basic class"
    ),
    "concave_hits_contact": (
        "when the boundary's contact structure has torsion first Chern "
        "class, the concave filling's mixed map sends the bottom generator "
        "to the contact element, up to sign"
    ),
    "compose_unique_gluing": (
        "cobordism maps compose as a sum over decorations restricting "
        "correctly to both pieces; across a homology-sphere cut between "
        "torsion-free pieces exactly one decoration glues"
    ),
    "twisted_adjunction_obstruction": (
        "a smoothly embedded closed surface of genus at least one with "
        "non-negative self-intersection forces every basic-class pairing "
        "to respect |pairing| + self-intersection <= 2g - 2"
    ),
    "twisted_mixed_vanishes": (
        "a nonzero mixed-map image of the bottom generator would make the "
        "target decoration a basic class"
    ),
    "conclude_distinct": (
        "two elements with different images under one homomorphism differ"
    ),
    "reduced_descent": (
        "the image of the large-structure map in the plus theory is carried "
        "into itself, up to an overall sign, by the boundary involution"
    ),
}

SIGN_CAVEAT = Assumption(
    "sign-ambiguity",
    "element equalities here hold up to an overall sign; the descent "
    "conclusion silently excludes the x = -x(pullback) coincidence",
)

FREEDMAN_ASSUMPTION = Assumption(
    "topological-homeomorphism",
    "two simply connected closed 4-manifolds with isomorphic intersection "
    "forms and equal Kirby-Siebenmann data are homeomorphic",
)


# -- the main deduction -------------------------------------------------------

def _require(ok: bool, message: str, condition: dict | None = None) -> None:
    if not ok:
        raise CertificateAbort(message, condition)


def require_untwisted_exact(inflation: CobordismRecord) -> SideCondition:
    """The untwisted attachment must sit exactly at the contact framing.

    Returns the framing side condition for the certificate; aborts with
    the canonical message when the exhibit does not certify exactness.
    """
    framing = inflation.framing
    tb = inflation.exhibited_tb
    status = inflation.stein["status"]
    expr = f"{framing} == {tb} - 1"
    if status != "exact":
        raise CertificateAbort(
            f"untwisted Stein check wants framing = tb − 1 = {tb - 1}",
            {"expr": expr, "value": eval_condition(expr)},
        )
    return _cond(expr)


def certify_distinct(
    cork: KirbyDiagram,
    adm: AdmissibilityReport,
    inflation: CobordismRecord,
    plan: FillingPlan,
    twisted: CobordismRecord | None = None,
) -> Certificate:
    """Replay the two-sided computation that separates the contact classes.

    The untwisted side must be Stein-exact and flows through the concave
    filling to a nonzero image of the contact element; the twisted side
    is obstructed by registered knot facts and adjunction, forcing a zero
    image.  adm is the cork's admissibility report, computed by the
    caller with the search budget it records.  A twisted-side attachment
    record may be passed in when one was computed from an actual front;
    otherwise the obstruction is derived from the knot's registered
    maximal Thurston-Bennequin number.
    """
    steps: list[Step] = []

    # (1) the cork itself
    _require(
        adm.verdict == "admissible",
        f"cork admissibility failed: verdict {adm.verdict!r}",
    )
    lk = adm.cond3_value
    tb_ex = adm.cond4prime_tb
    steps.append(Step(
        rule="cork_admissible",
        quote=AXIOMS["cork_admissible"],
        inputs=("given: the candidate diagram and its admissibility report",),
        side_conditions=(
            _cond(f"abs({lk}) == 1"),
            _cond(f"{tb_ex} >= 1"),
        ),
        outputs=(
            "the domain W is a cork; its boundary carries the exchanging involution",
        ),
    ))

    # (2) untwisted Stein attachment
    framing = inflation.framing
    tb = inflation.exhibited_tb
    framing_cond = require_untwisted_exact(inflation)
    steps.append(Step(
        rule="stein_untwisted_attachment",
        quote=AXIOMS["stein_untwisted_attachment"],
        inputs=(
            "the domain W is a cork; its boundary carries the exchanging involution",
            f"given: 2-handle along a {inflation.knot or 'declared'} curve, "
            f"framing {framing}, exhibited tb {tb}",
        ),
        side_conditions=(framing_cond,),
        outputs=("the extended domain W' = W + 2-handle is Stein",),
    ))

    # (3) the concave plan for the extended domain
    _require(
        isinstance(plan, FillingPlan) and plan.source_open_book is not None,
        "plan lacks concave-filling provenance",
    )
    _require(
        plan.extension_absorbed,
        "plan does not record absorbing the attached 2-handle past the cap",
    )
    g_hat = plan.fiber_genus
    triv = len(plan.trivializing_handles)
    per_letter = 2 * g_hat * (4 * g_hat + 2) - 1
    matrix_json = json.dumps(plan.composite_action, separators=(",", ":"))
    steps.append(Step(
        rule="concave_filling_plan",
        quote=AXIOMS["concave_filling_plan"],
        inputs=(
            "the extended domain W' = W + 2-handle is Stein",
            "given: the shipped fibration word for W'",
        ),
        side_conditions=(
            _cond(f"{plan.euler_char} == 1 + {triv} + (2 - 2*{g_hat})"),
            _cond(f"{per_letter} == 2*{g_hat}*(4*{g_hat}+2) - 1"),
            _cond(f"{triv} == {plan.relator_blocks} * {per_letter}"),
            _cond(f"is_identity({matrix_json})"),
        ),
        outputs=(
            "a concave filling V of the boundary of W' exists, "
            "closing to a fibration X = W' + V",
        ),
    ))

    # (4) nonvanishing over the closed fibration
    _require(
        any(a.name == "b2plus-at-least-2" for a in plan.assumptions),
        "plan lacks the b2+ assumption the nonvanishing rule consumes",
    )
    _require(g_hat > 1, f"fiber genus {g_hat} too small for the nonvanishing rule")
    # nothing in the inputs pins down sigma(X), so the degree bookkeeping
    # is emitted conditionally rather than with an invented value
    lefschetz_outputs = [
        f"F_mix of X sends {THETA_MINUS} to {THETA_PLUS} (canonical decoration)",
        "the canonical decoration of X is a basic class",
        "conditional: given sigma(X), the mixed map shifts degree by "
        "(c1^2 - 3*sigma - 2*chi) / 4",
    ]
    steps.append(Step(
        rule="lefschetz_nonvanishing",
        quote=AXIOMS["lefschetz_nonvanishing"],
        inputs=(
            "a concave filling V of the boundary of W' exists, "
            "closing to a fibration X = W' + V",
            "assumption: b2plus-at-least-2",
            "assumption: relative-minimality",
        ),
        side_conditions=(
            _cond(f"{g_hat} > 1"),
            _cond("0 % 2 == 0"),
        ),
        outputs=tuple(lefschetz_outputs),
    ))

    # (5) the concave piece hits the contact element
    hom = kirby.homology(cork)
    det = intmat.det([list(row) for row in hom.linking_matrix])
    _require(
        hom.h_of_boundary[1].rank == 0,
        "boundary first homology has free rank; contact c1 not torsion",
    )
    steps.append(Step(
        rule="concave_hits_contact",
        quote=AXIOMS["concave_hits_contact"],
        inputs=(
            "a concave filling V of the boundary of W' exists, "
            "closing to a fibration X = W' + V",
            "given: the boundary of W is a homology sphere, so c1 restricts torsion",
        ),
        side_conditions=(_cond(f"abs({det}) == 1"),),
        outputs=(f"F_mix of V sends {THETA_MINUS} to ±{CONTACT}",),
    ))

    # (6) composing across the homology-sphere cut: exactly one decoration
    # glues there, so the composite is a single term
    steps.append(Step(
        rule="compose_unique_gluing",
        quote=AXIOMS["compose_unique_gluing"],
        inputs=(
            f"F_mix of X sends {THETA_MINUS} to {THETA_PLUS} (canonical decoration)",
            f"F_mix of V sends {THETA_MINUS} to ±{CONTACT}",
        ),
        side_conditions=(
            _cond(f"abs({det}) == 1"),
            _cond("1 == 1"),
        ),
        outputs=(
            f"{THETA_PLUS} = ±F+_W'({CONTACT})",
            f"F+_W'({CONTACT}) ≠ 0",
        ),
    ))

    # (7) twisted side: the attachment is obstructed and adjunction bites
    facts = kirby.KNOT_FACTS.get(inflation.knot)
    _require(
        facts is not None,
        "no registered facts for the attaching knot; "
        "twisted-side obstruction unavailable",
    )
    genus_k = facts["seifert_genus"]
    max_tb = facts["max_tb"]
    try:
        universal = adjunction_violated(genus_k, framing, 0)
    except RuleNotApplicable as exc:
        raise CertificateAbort(str(exc)) from exc
    _require(
        universal,
        "adjunction bound not violated at pairing 0; monotonicity gives no exclusion",
        {"expr": f"0 + {framing} > 2*{genus_k} - 2", "value": False},
    )
    if twisted is not None:
        twisted_status = twisted.stein
        _require(
            twisted.framing == framing and twisted.knot == inflation.knot,
            "twisted-side record disagrees with the untwisted attachment",
        )
    else:
        twisted_status = kirby.stein_side_status(framing, max_tb, 0, inflation.knot)
    obstruction_expr = f"{framing} > {max_tb} - 1"
    if twisted_status["status"] != "obstructed":
        raise CertificateAbort(
            "twisted-side attachment is not obstructed "
            f"(status {twisted_status['status']!r}); no separation",
            {"expr": obstruction_expr, "value": eval_condition(obstruction_expr)},
        )
    steps.append(Step(
        rule="twisted_adjunction_obstruction",
        quote=AXIOMS["twisted_adjunction_obstruction"],
        inputs=(
            "the domain W is a cork; its boundary carries the exchanging involution",
            f"given: registered facts for {inflation.knot}: "
            f"max tb {max_tb}, Seifert genus {genus_k}",
            f"given: twisted-side verdict: {twisted_status['reason']}",
        ),
        side_conditions=(
            _cond(obstruction_expr),
            _cond(f"{genus_k} >= 1"),
            _cond(f"{framing} >= 0"),
            _cond(f"0 + {framing} > 2*{genus_k} - 2"),
        ),
        outputs=(
            f"the twisted attachment is never Stein: {twisted_status['reason']}",
            f"a closed torus of genus {genus_k} and self-intersection {framing} "
            "sits in the twisted closed fibration X''",
            "every decoration of X'' violates the adjunction bound on that torus",
            "X'' has no basic class",
        ),
    ))

    # (8) so the twisted mixed map vanishes
    steps.append(Step(
        rule="twisted_mixed_vanishes",
        quote=AXIOMS["twisted_mixed_vanishes"],
        inputs=(
            "X'' has no basic class",
            f"F_mix of V sends {THETA_MINUS} to ±{CONTACT}",
        ),
        side_conditions=(_cond("1 != 0"),),
        outputs=(
            f"F_mix of X'' kills {THETA_MINUS}",
            f"F+_W'({TWISTED_CONTACT}) = 0",
        ),
    ))

    # (9) the two images differ
    steps.append(Step(
        rule="conclude_distinct",
        quote=AXIOMS["conclude_distinct"],
        inputs=(
            f"F+_W'({CONTACT}) ≠ 0",
            f"F+_W'({TWISTED_CONTACT}) = 0",
        ),
        side_conditions=(_cond("1 != 0"),),
        outputs=(
            f"{CONTACT} ≠ {TWISTED_CONTACT} in the boundary's plus theory",
            "verdict: DISTINCT",
        ),
    ))

    # (10) descent to the reduced quotient
    steps.append(Step(
        rule="reduced_descent",
        quote=AXIOMS["reduced_descent"],
        inputs=(
            f"{CONTACT} ≠ {TWISTED_CONTACT} in the boundary's plus theory",
            "assumption: sign-ambiguity",
        ),
        side_conditions=(_cond("1 != 0"),),
        outputs=(
            f"{CONTACT} and {TWISTED_CONTACT} descend non-trivially "
            "to the reduced quotient",
        ),
    ))

    return Certificate(
        steps=tuple(steps),
        verdict="DISTINCT",
        assumptions=plan.assumptions + (SIGN_CAVEAT,),
    )


# -- certificate validation ---------------------------------------------------

def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def validate_certificate(doc: dict) -> list[str]:
    """Re-check a serialized certificate; returns problems, empty if clean.

    Total on any JSON value: a field of the wrong type is a problem, not
    an exception.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["certificate is not a mapping"]
    try:
        # past this point every field is shallow enough to print
        recomputed = certificate_digest(doc)
    except RecursionError:
        return ["certificate is nested too deeply to re-check"]
    if doc.get("digest") != recomputed:
        problems.append("digest mismatch: certificate content was altered")
    steps = doc.get("steps")
    if not isinstance(steps, list) or not steps:
        problems.append("certificate has no steps")
        return problems
    verdict = doc.get("verdict")
    if verdict != "DISTINCT":
        problems.append(f"unknown verdict {verdict!r}")
    known_outputs: set[str] = set()
    assumptions = doc.get("assumptions", [])
    if not isinstance(assumptions, list):
        problems.append("assumptions are not a list")
        assumptions = []
    assumption_names = {
        a["name"] for a in assumptions if isinstance(a, dict) and isinstance(a.get("name"), str)
    }
    for idx, step in enumerate(steps):
        if not isinstance(step, dict):
            problems.append(f"step {idx + 1}: not a mapping")
            continue
        rule = step.get("rule", "?")
        axiom = AXIOMS.get(rule) if isinstance(rule, str) else None
        where = f"step {idx + 1} ({rule})"
        if axiom is None:
            problems.append(f"{where}: unknown rule")
        if step.get("quote") != axiom:
            problems.append(f"{where}: quote does not match the axiom text")
        conds = step.get("side_conditions", [])
        if not isinstance(conds, list):
            problems.append(f"{where}: side conditions are not a list")
            conds = []
        for cond in conds:
            expr = cond.get("expr", "") if isinstance(cond, dict) else None
            if not isinstance(expr, str):
                problems.append(f"{where}: side condition is not a mapping with a string expr")
                continue
            try:
                actual = eval_condition(expr)
            except HFError as exc:
                problems.append(f"{where}: unreadable condition {expr!r}: {exc}")
                continue
            if actual is not cond.get("value"):
                problems.append(
                    f"{where}: condition {expr!r} re-evaluates to {actual}, "
                    f"recorded {cond.get('value')}"
                )
            elif actual is not True:
                problems.append(f"{where}: condition {expr!r} is false")
        inputs, outputs = step.get("inputs", []), step.get("outputs", [])
        if not _is_str_list(inputs) or not _is_str_list(outputs):
            problems.append(f"{where}: inputs and outputs are not lists of strings")
            continue
        for inp in inputs:
            if inp.startswith("given: "):
                continue
            if inp.startswith("assumption: "):
                if inp[len("assumption: "):] not in assumption_names:
                    problems.append(f"{where}: undeclared assumption {inp!r}")
                continue
            if inp not in known_outputs:
                problems.append(
                    f"{where}: input {inp!r} is neither given, assumed, "
                    "nor an earlier output"
                )
        known_outputs.update(outputs)
    if verdict == "DISTINCT":
        if "verdict: DISTINCT" not in known_outputs:
            problems.append("verdict is not supported by any step output")
    return problems


# -- consumers of a finished certificate --------------------------------------

def non_extension_fact(digest: str) -> dict:
    """The consequence record of the DISTINCT certificate with this digest.

    The certificate shows a unit image, up to the global sign, on the
    untwisted side and a zero image on the twisted side: the involution
    exchanges the relative values (±1, 0), so it is not a filling symmetry.
    """
    return {
        "statement": (
            "the boundary involution does not extend over the cork as a "
            "diffeomorphism: it exchanges relative values ±1 and 0"
        ),
        "relative_values": [{"magnitude": 1, "sign_ambiguous": True}, 0],
        "derived_from": digest,
    }


def fake_pair_report(plan: FillingPlan) -> dict:
    """Report the fake pair: same topology, different basic-class behavior.

    Call only with the plan of a finished DISTINCT certificate:
    certify_distinct has already required an admissible cork and a plan
    with concave-filling provenance.
    """
    return {
        "statement": (
            "the closed fibration and its cork-twisted companion are "
            "homeomorphic but not diffeomorphic: one carries a basic class "
            "and the other carries none"
        ),
        "computations": [
            f"F_mix of X sends {THETA_MINUS} to {THETA_PLUS}: "
            "the canonical decoration is basic",
            f"F_mix of X'' kills {THETA_MINUS}: "
            "no decoration of X'' is basic",
        ],
        "assumptions": [
            FREEDMAN_ASSUMPTION.to_doc(),
            *[a.to_doc() for a in plan.assumptions],
        ],
    }
