"""The certificate engine: a fixed proof scheme replayed as checkable steps.

Nothing in this module computes Floer homology.  certify_distinct replays
the fixed chain of deductions that separates the two contact classes as
a certificate, one JSON document: a list of steps, each citing one
axiom in plain words, naming its elements by fixed strings, and carrying
side conditions that can be re-checked from the certificate alone.  The
split is deliberate: applicability arithmetic is checked exhaustively
here (the adjunction rule is the numeric rule it uses; the degree shift
is only stated, as a conditional output, since nothing pins down the
signature), and every imported fact is surfaced as a declared assumption
instead of being silently used.

A side condition names a check and the evidence it was run on,
{"check": NAME, "evidence": {...}}: JSON integers, or for a monodromy a
list of integer classes.  eval_condition dispatches NAME to CHECKS, a
small registry of functions whose parameters are exactly the evidence
keys.  Certify runs every check before recording it, so a certificate
never records a false one.  Validation re-runs each rule's fixed list of
checks, recomputes the content digest, and requires every non-given
input of a step to be the output of an earlier step.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

# the checker needs only these two; the deduction and the reports import
# kirby and fillings where they run, so that --validate loads no parser
from . import intmat, mcg

if TYPE_CHECKING:
    from .fillings import FillingPlan
    from .kirby import AbelianGroup, InflationSpec, KirbyDiagram


class HFError(ValueError):
    """An unknown tower or an unreadable side condition."""


class RuleNotApplicable(ValueError):
    """A rule's numeric preconditions are not met; never a false verdict."""


class CertificateAbort(ValueError):
    """A deduction died; carries the side condition document that failed, if one did."""

    def __init__(self, message: str, condition: dict | None = None) -> None:
        super().__init__(message)
        self.condition = condition


# -- the three-sphere's towers and the named elements -------------------------

def hf_s3(version: str, n: int) -> AbelianGroup:
    """Degree-n piece of the three-sphere's plus or minus tower."""
    from .kirby import AbelianGroup
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

class SpinCDecoration(NamedTuple):
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

def adjunction_violated(genus: int, self_intersection: int, pairing: int) -> bool:
    """True iff |pairing| + self_intersection exceeds 2 genus - 2 for an embedded surface.

    Outside the rule's scope (genus 0 or negative self-intersection) this
    raises instead of answering, so inapplicability is never mistaken
    for a verdict.
    """
    if genus < 1:
        raise RuleNotApplicable(
            f"adjunction rule not applicable (g ≥ 1 fails for genus {genus})"
        )
    if self_intersection < 0:
        raise RuleNotApplicable(
            "adjunction rule not applicable "
            f"(self-intersection must be non-negative, got {self_intersection})"
        )
    return abs(pairing) + self_intersection > 2 * genus - 2


# -- named checks over recorded evidence --------------------------------------

def word_trivial_on_h1(genus: int, monodromy: list[list[int]]) -> bool:
    """The relator blocks that close the monodromy cancel it on H1.

    monodromy lists the classes of the positive word's letters; each must
    be a primitive class of length 2 genus, the class of a twistable curve.
    Each letter's relator block is a chain relator conjugated by a frame
    of the letter (mcg.trivialize), so once the chain relation holds at
    genus the blocks act as the inverse word and cancel any such
    monodromy.  The verdict is therefore the chain relation's; multiplying
    the two actions would give the identity for every input.
    """
    if not 1 <= genus <= mcg.MAX_GENUS:
        raise HFError(f"genus must be between 1 and {mcg.MAX_GENUS}, got {genus}")
    if not monodromy:
        raise HFError("the monodromy has no letters")
    if any(len(c) != 2 * genus for c in monodromy):
        raise HFError(f"every monodromy class must have {2 * genus} entries")
    try:
        for i, c in enumerate(monodromy, start=1):
            mcg.Curve(f"m{i}", tuple(c))
    except ValueError as exc:  # an imprimitive class
        raise HFError(str(exc)) from None
    return mcg.verify_chain_relation(genus)


# The checks a side condition may name.  A check's parameters are exactly
# its evidence keys.
CHECKS: dict[str, Callable[..., bool]] = {
    # admissibility conditions 3 and 4': the handles link once, and tb >= 1
    "unit_linking": lambda lk: abs(lk) == 1,
    "tb_at_least_one": lambda tb: tb >= 1,
    # the 2-handle sits exactly at the contact framing
    "contact_framing": lambda framing, tb: framing == tb - 1,
    # the cap, one 2-handle per trivializing letter, the closed fiber times a disk
    "plan_euler_characteristic": lambda euler_char, handles, fiber_genus: (
        euler_char == 1 + handles + (2 - 2 * fiber_genus)),
    # a relator block c2 ... c2g (c1 ... c2g)^(4g+1) has 2g(4g+2) - 1 letters
    "relator_handles": lambda handles, blocks, fiber_genus: (
        handles == blocks * (2 * fiber_genus * (4 * fiber_genus + 2) - 1)),
    "word_trivial_on_h1": word_trivial_on_h1,
    "fiber_genus_above_one": lambda fiber_genus: fiber_genus > 1,
    # a unimodular linking matrix, so the boundary is a homology sphere
    "unit_determinant": lambda det: abs(det) == 1,
    # no Legendrian representative of the knot reaches framing = tb - 1
    "tb_obstructed": lambda framing, max_tb: framing > max_tb - 1,
    "adjunction_violated": adjunction_violated,
}

# each check's parameters in order, read once: a side condition's evidence
# keys must be exactly these
_PARAMETERS: dict[str, tuple[str, ...]] = {
    name: check.__code__.co_varnames[:check.__code__.co_argcount]
    for name, check in CHECKS.items()
}

# every evidence value is a JSON integer, never a bool or a float, except a
# monodromy: a list of integer classes
_INTEGER = ("an integer", lambda v: type(v) is int)
_SHAPES = {"monodromy": ("a list of integer lists", lambda v: type(v) is list and all(
    type(row) is list and all(type(x) is int for x in row) for row in v))}


def eval_condition(cond: object) -> bool:
    """Run the check a side condition names on the evidence it records.

    Raises HFError when cond is not a mapping of exactly a check name and
    its evidence, when the name is not in CHECKS, when the evidence keys
    are not exactly the check's parameters or a value has the wrong JSON
    shape, or when the check finds the evidence outside its domain; and
    RuleNotApplicable when the check's rule does not apply.
    """
    if not isinstance(cond, dict) or set(cond) != {"check", "evidence"}:
        raise HFError("side condition is not a mapping of a check and its evidence")
    name, evidence = cond["check"], cond["evidence"]
    check = CHECKS.get(name) if isinstance(name, str) else None
    if check is None:
        raise HFError(f"unknown check {name!r}")
    keys = _PARAMETERS[name]
    if not isinstance(evidence, dict) or evidence.keys() != set(keys):
        raise HFError(f"check {name} wants evidence {', '.join(keys)}")
    for key in keys:
        kind, fits = _SHAPES.get(key, _INTEGER)
        if not fits(evidence[key]):
            raise HFError(f"evidence {key} of check {name} is not {kind}")
    return check(**evidence)


# -- certificates -------------------------------------------------------------

# json.dumps(v, separators=(",", ":")) without and with sort_keys, each
# encoder built once; on deep nesting encode raises RecursionError as json.dumps does
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def condition_text(cond: dict) -> str:
    """A side condition as one line: check(key=value, ...), values in compact JSON."""
    args = ", ".join(
        f"{k}={v}" if type(v) is int else f"{k}={_COMPACT.encode(v)}"
        for k, v in cond["evidence"].items()
    )
    return f"{cond['check']}({args})"


def certificate_digest(body: dict) -> str:
    """Stable content hash over everything except the digest itself."""
    import hashlib  # here, so that only the commands that hash a certificate import it

    trimmed = {k: v for k, v in body.items() if k != "digest"}
    return hashlib.sha256(_CANONICAL.encode(trimmed).encode("utf-8")).hexdigest()


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

# the checks each rule's step carries, in order; the other rules carry none
RULE_CHECKS: dict[str, tuple[str, ...]] = {
    "cork_admissible": ("unit_linking", "tb_at_least_one"),
    "stein_untwisted_attachment": ("contact_framing",),
    "concave_filling_plan": (
        "plan_euler_characteristic", "relator_handles", "word_trivial_on_h1",
    ),
    "lefschetz_nonvanishing": ("fiber_genus_above_one",),
    "concave_hits_contact": ("unit_determinant",),
    "compose_unique_gluing": ("unit_determinant",),
    "twisted_adjunction_obstruction": ("tb_obstructed", "adjunction_violated"),
}

# assumption documents; each use copies one, so that no certificate or
# report shares a dict with this module
SIGN_CAVEAT = {
    "name": "sign-ambiguity",
    "statement": (
        "element equalities here hold up to an overall sign; the descent "
        "conclusion silently excludes the x = -x(pullback) coincidence"
    ),
    "status": "declared-unverified",
}

FREEDMAN_ASSUMPTION = {
    "name": "topological-homeomorphism",
    "statement": (
        "two simply connected closed 4-manifolds with isomorphic intersection "
        "forms and equal Kirby-Siebenmann data are homeomorphic"
    ),
    "status": "declared-unverified",
}


# -- the claims the steps chain -----------------------------------------------

# each is an output of one step and an input of every later step that uses
# it; validation matches the two spellings, so each claim is spelled here once
IS_CORK = "the domain W is a cork; its boundary carries the exchanging involution"
W_PRIME_STEIN = "the extended domain W' = W + 2-handle is Stein"
CONCAVE_FILLING = (
    "a concave filling V of the boundary of W' exists, closing to a fibration X = W' + V"
)
X_SENDS_BOTTOM_TO_TOP = f"F_mix of X sends {THETA_MINUS} to {THETA_PLUS} (canonical decoration)"
V_HITS_CONTACT = f"F_mix of V sends {THETA_MINUS} to ±{CONTACT}"
CONTACT_IMAGE_NONZERO = f"F+_W'({CONTACT}) ≠ 0"
NO_BASIC_CLASS = "X'' has no basic class"
TWISTED_IMAGE_ZERO = f"F+_W'({TWISTED_CONTACT}) = 0"
CONTACTS_DIFFER = f"{CONTACT} ≠ {TWISTED_CONTACT} in the boundary's plus theory"


# -- the main deduction -------------------------------------------------------

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateAbort(message)


def _checked(check: str, failure: str | None = None, **evidence: object) -> dict:
    """Run a check on the evidence about to be recorded; abort unless it holds.

    Returns a fresh side condition document.
    """
    cond = {"check": check, "evidence": evidence}
    try:
        holds = eval_condition(cond)
    except (HFError, RuleNotApplicable) as exc:
        raise CertificateAbort(str(exc), cond) from exc
    if not holds:
        raise CertificateAbort(failure or f"check {condition_text(cond)} fails", cond)
    return cond


def _step(rule: str, inputs: tuple[str, ...], outputs: tuple[str, ...],
          side_conditions: tuple[dict, ...] = ()) -> dict:
    """A step document citing the axiom of rule."""
    return {
        "rule": rule,
        "quote": AXIOMS[rule],
        "inputs": list(inputs),
        "side_conditions": list(side_conditions),
        "outputs": list(outputs),
    }


def certify_distinct(
    cork: KirbyDiagram,
    adm: dict,
    spec: InflationSpec,
    plan: FillingPlan,
) -> dict:
    """Replay the two-sided computation that separates the contact classes.

    spec exhibits the knot, the untwisted exhibit's declared knot type, on
    both sides.  The untwisted exhibit must be Stein-exact (step 2), and
    flows through the concave filling to a nonzero image of the contact
    element; the twisted one, the same knot and framing attached after the
    twist, is obstructed by registered knot facts and adjunction (step 7),
    forcing a zero image.  adm is the cork's admissibility document,
    computed by the caller with the search budget it records.  Returns the
    certificate document: its steps, verdict, assumptions and digest.
    """
    from . import kirby
    from .fillings import STANDARD_ASSUMPTIONS

    framing = spec.framing
    untwisted, u_comp = spec.untwisted_front, spec.untwisted_component
    twisted, t_comp = spec.twisted_front, spec.twisted_component
    knot, twisted_knot = untwisted.knottype(u_comp), twisted.knottype(t_comp)
    for declared in (knot, twisted_knot):
        _require(declared is None or declared in kirby.KNOT_FACTS,
                 f"unregistered knot type {declared!r}")
    steps: list[dict] = []

    # (1) the cork itself
    _require(
        adm["verdict"] == "admissible",
        f"cork admissibility failed: verdict {adm['verdict']!r}",
    )
    steps.append(_step(
        rule="cork_admissible",
        inputs=("given: the candidate diagram and its admissibility report",),
        side_conditions=(
            _checked("unit_linking", lk=adm["cond3"]["value"]),
            _checked("tb_at_least_one", tb=adm["cond4prime"]["tb"]),
        ),
        outputs=(IS_CORK,),
    ))

    # (2) untwisted Stein attachment
    tb = untwisted.tb(u_comp)
    steps.append(_step(
        rule="stein_untwisted_attachment",
        inputs=(
            IS_CORK,
            f"given: 2-handle along a {knot or 'declared'} curve, "
            f"framing {framing}, exhibited tb {tb}",
        ),
        side_conditions=(_checked(
            "contact_framing", f"untwisted Stein check wants framing = tb − 1 = {tb - 1}",
            framing=framing, tb=tb,
        ),),
        outputs=(W_PRIME_STEIN,),
    ))

    # (3) the concave plan for the extended domain
    g_hat = plan.fiber_genus
    handles = plan.trivializing_handles
    monodromy = [list(c.h1_class) for c, _ in plan.closed_monodromy.letters]
    steps.append(_step(
        rule="concave_filling_plan",
        inputs=(W_PRIME_STEIN, "given: the shipped fibration word for W'"),
        side_conditions=(
            _checked("plan_euler_characteristic",
                     euler_char=plan.euler_char, handles=handles, fiber_genus=g_hat),
            _checked("relator_handles",
                     handles=handles, blocks=plan.relator_blocks, fiber_genus=g_hat),
            _checked("word_trivial_on_h1", genus=g_hat, monodromy=monodromy),
        ),
        outputs=(CONCAVE_FILLING,),
    ))

    # (4) nonvanishing over the closed fibration
    nonvanishing = _checked(
        "fiber_genus_above_one", f"fiber genus {g_hat} too small for the nonvanishing rule",
        fiber_genus=g_hat,
    )
    # nothing in the inputs pins down sigma(X), so the degree bookkeeping
    # is emitted conditionally rather than with an invented value
    steps.append(_step(
        rule="lefschetz_nonvanishing",
        inputs=(
            CONCAVE_FILLING,
            "assumption: b2plus-at-least-2",
            "assumption: relative-minimality",
        ),
        side_conditions=(nonvanishing,),
        outputs=(
            X_SENDS_BOTTOM_TO_TOP,
            "the canonical decoration of X is a basic class",
            "conditional: given sigma(X), the mixed map shifts degree by "
            "(c1^2 - 3*sigma - 2*chi) / 4",
        ),
    ))

    # (5) the concave piece hits the contact element; the boundary's first
    # homology is the cokernel of the linking matrix, finite iff det != 0
    det = intmat.det(kirby.linking_matrix(cork)[1])
    _require(det != 0, "boundary first homology has free rank; contact c1 not torsion")
    unimodular = _checked("unit_determinant", det=det)
    steps.append(_step(
        rule="concave_hits_contact",
        inputs=(
            CONCAVE_FILLING,
            "given: the boundary of W is a homology sphere, so c1 restricts torsion",
        ),
        side_conditions=(unimodular,),
        outputs=(V_HITS_CONTACT,),
    ))

    # (6) composing across the homology-sphere cut: exactly one decoration
    # glues there, so the composite is a single term; the check step 5 ran,
    # recorded in a document of its own
    steps.append(_step(
        rule="compose_unique_gluing",
        inputs=(X_SENDS_BOTTOM_TO_TOP, V_HITS_CONTACT),
        side_conditions=({"check": "unit_determinant", "evidence": {"det": det}},),
        outputs=(f"{THETA_PLUS} = ±F+_W'({CONTACT})", CONTACT_IMAGE_NONZERO),
    ))

    # (7) twisted side: the attachment is obstructed and adjunction bites
    facts = kirby.KNOT_FACTS.get(knot)
    _require(
        facts is not None,
        "no registered facts for the attaching knot; "
        "twisted-side obstruction unavailable",
    )
    genus_k = facts["seifert_genus"]
    max_tb = facts["max_tb"]
    adjunction = _checked(
        "adjunction_violated",
        "adjunction bound not violated at pairing 0; monotonicity gives no exclusion",
        genus=genus_k, self_intersection=framing, pairing=0,
    )
    _require(twisted_knot == knot, "twisted-side record disagrees with the untwisted attachment")
    # max tb bounds a plain front only, so the exhibit must pass no 1-handle,
    # and it must not itself reach the framing
    twisted_tb, passes = twisted.tb(t_comp), twisted.handle_passes(t_comp)
    not_obstructed = (
        "twisted-side attachment is not obstructed "
        f"(exhibited tb {twisted_tb}, {passes} handle passes); no separation"
    )
    obstruction = _checked("tb_obstructed", not_obstructed, framing=framing, max_tb=max_tb)
    _require(passes == 0 and framing > twisted_tb - 1, not_obstructed)
    reason = f"framing {framing} ≠ tb − 1 for exhibited tb ≤ {max_tb}"
    steps.append(_step(
        rule="twisted_adjunction_obstruction",
        inputs=(
            IS_CORK,
            f"given: registered facts for {knot}: "
            f"max tb {max_tb}, Seifert genus {genus_k}",
            f"given: twisted-side verdict: {reason}",
        ),
        side_conditions=(obstruction, adjunction),
        outputs=(
            f"the twisted attachment is never Stein: {reason}",
            f"a closed torus of genus {genus_k} and self-intersection {framing} "
            "sits in the twisted closed fibration X''",
            "every decoration of X'' violates the adjunction bound on that torus",
            NO_BASIC_CLASS,
        ),
    ))

    # (8) so the twisted mixed map vanishes
    steps.append(_step(
        rule="twisted_mixed_vanishes",
        inputs=(NO_BASIC_CLASS, V_HITS_CONTACT),
        outputs=(f"F_mix of X'' kills {THETA_MINUS}", TWISTED_IMAGE_ZERO),
    ))

    # (9) the two images differ
    steps.append(_step(
        rule="conclude_distinct",
        inputs=(CONTACT_IMAGE_NONZERO, TWISTED_IMAGE_ZERO),
        outputs=(CONTACTS_DIFFER, "verdict: DISTINCT"),
    ))

    # (10) descent to the reduced quotient
    steps.append(_step(
        rule="reduced_descent",
        inputs=(CONTACTS_DIFFER, "assumption: sign-ambiguity"),
        outputs=(
            f"{CONTACT} and {TWISTED_CONTACT} descend non-trivially "
            "to the reduced quotient",
        ),
    ))

    cert = {
        "steps": steps,
        "verdict": "DISTINCT",
        "assumptions": [*(dict(a) for a in STANDARD_ASSUMPTIONS), dict(SIGN_CAVEAT)],
    }
    cert["digest"] = certificate_digest(cert)
    return cert


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
        names = [cond.get("check") if isinstance(cond, dict) else None for cond in conds]
        wanted = list(RULE_CHECKS.get(rule, ())) if axiom is not None else names
        if names != wanted:
            problems.append(f"{where}: checks {names} are not the rule's checks {wanted}")
        for cond in conds:
            try:
                holds = eval_condition(cond)
            except (HFError, RuleNotApplicable) as exc:
                problems.append(f"{where}: unreadable side condition: {exc}")
                continue
            if not holds:
                problems.append(f"{where}: check {cond['check']} fails on its evidence")
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


def fake_pair_report() -> dict:
    """Report the fake pair: same topology, different basic-class behavior.

    Call only after a finished DISTINCT certificate: certify_distinct has
    already required an admissible cork and a Stein-exact untwisted
    attachment.
    """
    from .fillings import STANDARD_ASSUMPTIONS
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
            dict(FREEDMAN_ASSUMPTION),
            *(dict(a) for a in STANDARD_ASSUMPTIONS),
        ],
    }
