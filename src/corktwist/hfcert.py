"""The certificate engine: a fixed proof scheme replayed as checkable steps.

Nothing in this module computes Floer homology.  The fixed chain of
deductions that separates the two contact classes is spelled once, as
SCHEME: one row per step, naming its rule, inputs, checks and outputs.
certify_distinct fills it in as a certificate, one JSON document: a list
of steps, each citing one axiom in plain words, naming its elements by
fixed strings, and naming the checks its rule runs.  The split is
deliberate: applicability arithmetic is checked exhaustively here (the
adjunction rule is the numeric rule it uses; the degree shift is only
stated, as a conditional output, since nothing pins down the signature),
and every imported fact is surfaced as a declared assumption instead of
being silently used.

Every number a check reads is recorded once, by name, in the
certificate's facts table: a JSON integer, for the monodromy a list of
integer classes, and for the linking matrix and its inverse a 2 x 2
integer matrix.  CHECKS is a small registry of functions whose
parameters are fact names, and eval_condition runs one on the facts.
Certify and the checker alike run each check SCHEME names once, in row
order; certify aborts at the first that does not hold, so a certificate
never records a false one.  certificate_body spells the whole document
from the facts and the knot, for certify and the checker alike.
Validation recomputes the content digest, rebuilds the body from the
recorded facts and knot, and reports each place where the document
differs from it; it reports each row's checks that fail on the facts,
and every fact that no check reads.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

# the checker needs only these; the deduction imports kirby where it runs,
# so that --validate loads no parser
from . import intmat, mcg
from .base import PLAN_ASSUMPTIONS, declared

if TYPE_CHECKING:
    from fractions import Fraction

    from .kirby import AbelianGroup, InflationSpec


class HFError(ValueError):
    """An unknown tower, or a check that cannot read its facts."""


class RuleNotApplicable(ValueError):
    """A rule's numeric preconditions are not met; never a false verdict."""


class CertificateAbort(ValueError):
    """A deduction died; carries the check that failed and the facts it read, if one did."""

    def __init__(self, message: str, check: str | None = None, facts: dict | None = None):
        super().__init__(message)
        self.check, self.facts = check, facts


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
    from fractions import Fraction  # here, so that no command imports it

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


# -- named checks over recorded facts -----------------------------------------

def word_trivial_on_h1(fiber_genus: int, monodromy: list[list[int]]) -> bool:
    """The relator blocks that close the monodromy cancel it on H1.

    monodromy lists the classes of the positive word's letters; each must
    be a primitive class of length 2 fiber_genus, the class of a twistable
    curve.  Each letter's relator block is a chain relator conjugated by a
    frame of the letter (mcg.trivialize), so once the chain relation holds
    at the fiber genus the blocks act as the inverse word and cancel any
    such monodromy.  The verdict is therefore the chain relation's;
    multiplying the two actions would give the identity for every input.
    """
    if not 1 <= fiber_genus <= mcg.MAX_GENUS:
        raise HFError(f"genus must be between 1 and {mcg.MAX_GENUS}, got {fiber_genus}")
    if not monodromy:
        raise HFError("the monodromy has no letters")
    if any(len(c) != 2 * fiber_genus for c in monodromy):
        raise HFError(f"every monodromy class must have {2 * fiber_genus} entries")
    try:
        for i, c in enumerate(monodromy, start=1):
            mcg.Curve(f"m{i}", tuple(c))
    except ValueError as exc:  # an imprimitive class
        raise HFError(str(exc)) from None
    return mcg.verify_chain_relation(fiber_genus)


# The checks a step may name; a check's parameters name the facts it reads.
CHECKS: dict[str, Callable[..., bool]] = {
    # admissibility conditions 3 and 4': the handles link once, the cork's exhibit has tb >= 1;
    # the dot becomes 0 on the diagonal, and the framed component carries framing 0
    "unit_linking": lambda linking: (
        linking[0][0] == linking[1][1] == 0
        and linking[0][1] == linking[1][0] and abs(linking[0][1]) == 1),
    "tb_at_least_one": lambda cork_tb: cork_tb >= 1,
    # the 2-handle sits exactly at the contact framing of the spec's exhibit
    "contact_framing": lambda framing, exhibit_tb: framing == exhibit_tb - 1,
    # the cap, one 2-handle per trivializing letter, the closed fiber times a disk
    "plan_euler_characteristic": lambda euler_char, handles, fiber_genus: (
        euler_char == 1 + handles + (2 - 2 * fiber_genus)),
    # one 2-handle per letter of each relator block
    "relator_handles": lambda handles, blocks, fiber_genus: (
        handles == blocks * mcg.relator_letters(fiber_genus)),
    "word_trivial_on_h1": word_trivial_on_h1,
    "fiber_genus_above_one": lambda fiber_genus: fiber_genus > 1,
    # the linking matrix has an integral inverse, so the boundary is a homology sphere
    "unimodular": lambda linking, linking_inverse: intmat.is_identity(
        intmat.mat_mul(linking, linking_inverse)),
    # no Legendrian representative of the knot reaches framing = tb - 1
    "tb_obstructed": lambda framing, max_tb: framing > max_tb - 1,
    # a torus of the knot's genus and self-intersection the framing breaks the
    # bound at pairing 0, so at every pairing: the bound grows with |pairing|
    "adjunction_violated": lambda knot_genus, framing: adjunction_violated(knot_genus, framing, 0),
}

# each check's parameters in order, read once: the facts it reads
_PARAMETERS: dict[str, tuple[str, ...]] = {
    name: check.__code__.co_varnames[:check.__code__.co_argcount]
    for name, check in CHECKS.items()
}

# every fact is a JSON integer, never a bool or a float, except the
# monodromy, a list of integer classes, and the linking matrix and its
# inverse: 2 x 2, as check_admissible allows only two components, which
# keeps mat_mul's shapes matched and its cost fixed
_INTEGER = ("an integer", lambda v: type(v) is int)
_MATRIX = ("a 2 x 2 integer matrix", lambda v: type(v) is list and len(v) == 2 and all(
    type(row) is list and len(row) == 2 and type(row[0]) is type(row[1]) is int for row in v))
_SHAPES = {"monodromy": ("a list of integer lists", lambda v: type(v) is list and all(
    type(row) is list and all(type(x) is int for x in row) for row in v)),
    "linking": _MATRIX, "linking_inverse": _MATRIX}


def eval_condition(check: object, facts: object) -> bool:
    """Run the named check on the facts it reads.

    Raises HFError when check is not a name in CHECKS, when facts is not a
    mapping, when a fact the check reads is missing or has the wrong JSON
    shape, or when the check finds the facts outside its domain; and
    RuleNotApplicable when the check's rule does not apply.
    """
    run = CHECKS.get(check) if isinstance(check, str) else None
    if run is None:
        raise HFError(f"unknown check {check!r}")
    if not isinstance(facts, dict):
        raise HFError("the facts are not a mapping")
    args = {}
    for key in _PARAMETERS[check]:
        if key not in facts:
            raise HFError(f"check {check} wants fact {key}")
        kind, fits = _SHAPES.get(key, _INTEGER)
        if not fits(facts[key]):
            raise HFError(f"fact {key} of check {check} is not {kind}")
        args[key] = facts[key]
    return run(**args)


# -- certificates -------------------------------------------------------------

# json.dumps(v, separators=(",", ":")) without and with sort_keys, each
# encoder built once; on deep nesting encode raises RecursionError as json.dumps does
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def condition_text(check: str, facts: dict) -> str:
    """A check as one line: check(fact=value, ...), values in compact JSON."""
    args = ", ".join(f"{k}={_COMPACT.encode(facts[k])}" for k in _PARAMETERS[check])
    return f"{check}({args})"


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

# -- the proof scheme ---------------------------------------------------------

# each claim is an output of one step and an input of every later step that
# uses it, so it is spelled here once for the rows that share it
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

# The chain of deductions, one row per step in order: (rule, inputs, checks,
# outputs).  certificate_body fills it in, for certify_distinct and for
# validate_certificate alike.  A name in braces is filled in: the knot in a
# given input, a fact in an output.
SCHEME: tuple[tuple[str, tuple[str, ...], tuple[str, ...], tuple[str, ...]], ...] = (
    ("cork_admissible",
     ("given: the candidate diagram and its admissibility report",),
     ("unit_linking", "tb_at_least_one"),
     (IS_CORK,)),
    ("stein_untwisted_attachment",
     (IS_CORK, "given: 2-handle along a {knot} curve: "
               "the inflation spec's framing and untwisted exhibit"),
     ("contact_framing",),
     (W_PRIME_STEIN,)),
    ("concave_filling_plan",
     (W_PRIME_STEIN, "given: the shipped fibration word for W'"),
     ("plan_euler_characteristic", "relator_handles", "word_trivial_on_h1"),
     (CONCAVE_FILLING,)),
    # nothing in the inputs pins down sigma(X), so the degree bookkeeping
    # is a conditional output rather than an invented value
    ("lefschetz_nonvanishing",
     (CONCAVE_FILLING, "assumption: b2plus-at-least-2", "assumption: relative-minimality"),
     ("fiber_genus_above_one",),
     (X_SENDS_BOTTOM_TO_TOP, "the canonical decoration of X is a basic class",
      "conditional: given sigma(X), the mixed map shifts degree by "
      "(c1^2 - 3*sigma - 2*chi) / 4")),
    ("concave_hits_contact",
     (CONCAVE_FILLING, "given: the cork diagram's linking matrix, so the boundary of W "
                       "is a homology sphere and c1 restricts torsion"),
     ("unimodular",),
     (V_HITS_CONTACT,)),
    # exactly one decoration glues across the homology-sphere cut, so the
    # composite is a single term
    ("compose_unique_gluing",
     (X_SENDS_BOTTOM_TO_TOP, V_HITS_CONTACT),
     ("unimodular",),
     (f"{THETA_PLUS} = ±F+_W'({CONTACT})", CONTACT_IMAGE_NONZERO)),
    ("twisted_adjunction_obstruction",
     (IS_CORK, "given: registered facts for {knot}: its max tb and Seifert genus",
      "given: twisted-side verdict on the inflation spec's twisted exhibit"),
     ("tb_obstructed", "adjunction_violated"),
     ("the twisted attachment is never Stein: "
      "framing {framing} ≠ tb − 1 for exhibited tb ≤ {max_tb}",
      "a closed torus of genus {knot_genus} and self-intersection {framing} "
      "sits in the twisted closed fibration X''",
      "every decoration of X'' violates the adjunction bound on that torus",
      NO_BASIC_CLASS)),
    ("twisted_mixed_vanishes",
     (NO_BASIC_CLASS, V_HITS_CONTACT),
     (),
     (f"F_mix of X'' kills {THETA_MINUS}", TWISTED_IMAGE_ZERO)),
    ("conclude_distinct",
     (CONTACT_IMAGE_NONZERO, TWISTED_IMAGE_ZERO),
     (),
     (CONTACTS_DIFFER, "verdict: DISTINCT")),
    ("reduced_descent",
     (CONTACTS_DIFFER, "assumption: sign-ambiguity"),
     (),
     (f"{CONTACT} and {TWISTED_CONTACT} descend non-trivially to the reduced quotient",)),
)


class _Named(dict):
    """Values for str.format_map: a name without one stays unfilled, as {name}."""

    def __missing__(self, name: str) -> str:
        return f"{{{name}}}"


def _spell(texts: tuple[str, ...], values: dict) -> list[str]:
    """The texts with each name in braces filled from values; only a
    scheme text is ever a template, and only one with a name is formatted."""
    return [text.format_map(values) if "{" in text else text for text in texts]


def certificate_body(facts: dict, knot: str) -> dict:
    """The certificate on these facts and this knot, all but its digest.

    The steps are SCHEME's rows: the given inputs name the knot and the
    outputs spell the facts.  The assumptions are the plan's and the
    sign caveat the last step cites.
    """
    named, values = {"knot": knot}, _Named(facts)
    return {
        "facts": facts,
        "knot": knot,
        "steps": [
            {"rule": rule, "quote": AXIOMS[rule], "inputs": _spell(inputs, named),
             "checks": list(checks), "outputs": _spell(outputs, values)}
            for rule, inputs, checks, outputs in SCHEME
        ],
        "verdict": "DISTINCT",
        "assumptions": declared(*PLAN_ASSUMPTIONS, "sign-ambiguity"),
    }


# -- the main deduction -------------------------------------------------------

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateAbort(message)


def _outcomes(facts: dict) -> Iterator[tuple[str, bool | ValueError]]:
    """Run each check SCHEME names once, in row order, on the facts; yields
    the check and True, False, or the HFError or RuleNotApplicable that stopped it."""
    for check in dict.fromkeys(c for _, _, checks, _ in SCHEME for c in checks):
        try:
            holds: bool | ValueError = eval_condition(check, facts)
        except (HFError, RuleNotApplicable) as exc:
            holds = exc
        yield check, holds


def certify_distinct(adm: dict, spec: InflationSpec, plan: dict) -> dict:
    """Replay the two-sided computation that separates the contact classes.

    spec exhibits the knot, the untwisted exhibit's declared knot type, on
    both sides.  The untwisted exhibit must be Stein-exact (step 2), and
    flows through the concave filling to a nonzero image of the contact
    element; the twisted one, the same knot and framing attached after the
    twist, is obstructed by registered knot facts and adjunction (step 7),
    forcing a zero image.  adm is the cork's admissibility document,
    computed by the caller with the search budget it records, and the
    deduction's only view of the cork: the linking matrix is its
    condition-3 value.  plan is the count-level filling plan
    (fillings.plan_concave).  Reads the givens, gathers the facts, runs
    SCHEME's checks on them and aborts at the first that does not hold,
    then fills in the scheme.  Returns the certificate document: its
    facts, knot, steps, verdict, assumptions and digest.
    """
    from . import kirby

    untwisted, u_comp = spec.untwisted_front, spec.untwisted_component
    twisted, t_comp = spec.twisted_front, spec.twisted_component
    knot, twisted_knot = untwisted.knottype(u_comp), twisted.knottype(t_comp)
    for declared in (knot, twisted_knot):
        _require(declared is None or declared in kirby.KNOT_FACTS,
                 f"unregistered knot type {declared!r}")
    _require(adm["verdict"] == "admissible",
             f"cork admissibility failed: verdict {adm['verdict']!r}")
    registered = kirby.KNOT_FACTS.get(knot)
    _require(
        registered is not None,
        "no registered facts for the attaching knot; "
        "twisted-side obstruction unavailable",
    )
    _require(twisted_knot == knot, "twisted-side record disagrees with the untwisted attachment")

    # the dot and the 0-framing leave the diagonal 0, and an admissible
    # cork links once, |lk| = 1, so the matrix is its own inverse
    lk = adm["cond3"]["value"]
    framing, tb, g_hat = spec.framing, untwisted.tb(u_comp), plan["fiber_genus"]
    handles = plan["trivializing_handles"]
    # each number a check reads, recorded once: the steps name only their checks
    facts = {
        "linking": [[0, lk], [lk, 0]], "cork_tb": adm["cond4prime"]["tb"],
        "framing": framing, "exhibit_tb": tb,
        "euler_char": plan["euler_char"], "handles": handles["count"],
        "blocks": plan["relator_blocks"], "fiber_genus": g_hat,
        "monodromy": [list(block["letter"]["class"]) for block in reversed(handles["blocks"])],
        "linking_inverse": [[0, lk], [lk, 0]],
        "max_tb": registered["max_tb"], "knot_genus": registered["seifert_genus"],
    }
    # max tb bounds a plain front only, so the twisted exhibit must pass no
    # 1-handle, and it must not itself reach the framing
    twisted_tb, passes = twisted.tb(t_comp), twisted.handle_passes(t_comp)
    not_obstructed = (
        "twisted-side attachment is not obstructed "
        f"(exhibited tb {twisted_tb}, {passes} handle passes); no separation"
    )
    failures = {
        "contact_framing": f"untwisted Stein check wants framing = tb − 1 = {tb - 1}",
        "fiber_genus_above_one": f"fiber genus {g_hat} too small for the nonvanishing rule",
        "tb_obstructed": not_obstructed,
        "adjunction_violated":
            "adjunction bound not violated at pairing 0; monotonicity gives no exclusion",
    }
    for check, holds in _outcomes(facts):
        if isinstance(holds, ValueError):
            raise CertificateAbort(str(holds), check, facts) from holds
        if not holds:
            raise CertificateAbort(
                failures.get(check) or f"check {condition_text(check, facts)} fails",
                check, facts)
    _require(passes == 0 and framing > twisted_tb - 1, not_obstructed)

    cert = certificate_body(facts, knot)
    cert["digest"] = certificate_digest(cert)
    return cert


# -- certificate validation ---------------------------------------------------

def validate_certificate(doc: dict) -> list[str]:
    """Re-check a serialized certificate; returns problems, empty if clean.

    Rebuilds the certificate body from the recorded facts and knot, reports
    each key where the document differs from it, and re-runs each row's
    checks on the facts table.  Total on any JSON value: a field of the
    wrong type is a problem, not an exception, and so is a key or a fact
    that nothing reads.
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
    facts, knot = doc.get("facts"), doc.get("knot")
    # a fact or a knot that is missing stays unfilled, as {name}
    want = certificate_body(facts if isinstance(facts, dict) else {},
                            knot if isinstance(knot, str) else "{knot}")
    problems.extend(f"unknown certificate key {k!r}" for k in doc
                    if k not in want and k != "digest")
    if not isinstance(facts, dict):
        problems.append("certificate has no facts table")
    facts = want["facts"]
    steps = doc.get("steps")
    if not isinstance(steps, list) or not steps:
        problems.append("certificate has no steps")
        return problems
    verdict = doc.get("verdict")
    if verdict != want["verdict"]:
        problems.append(f"unknown verdict {verdict!r}")
    if doc.get("assumptions") != want["assumptions"]:
        problems.append("assumptions are not the ones certify declares")
    if len(steps) != len(SCHEME):
        problems.append(f"certificate has {len(steps)} steps; the scheme has {len(SCHEME)}")
    read: set[str] = set()
    outcomes = dict(_outcomes(facts))
    for idx, (step, wanted) in enumerate(zip(steps, want["steps"]), start=1):
        if not isinstance(step, dict):
            problems.append(f"step {idx}: not a mapping")
            continue
        # recorded text is printed only by repr, so it cannot start a line of its own
        where = f"step {idx} ({wanted['rule']})"
        problems.extend(f"{where}: unknown key {k!r}" for k in step if k not in wanted)
        if step.get("rule") != wanted["rule"]:
            problems.append(f"{where}: rule {step.get('rule')!r} is not the scheme's")
        if step.get("quote") != wanted["quote"]:
            problems.append(f"{where}: quote does not match the axiom text")
        checks = wanted["checks"]
        recorded = step.get("checks", [])
        if recorded != checks:
            problems.append(f"{where}: checks {recorded!r} are not the rule's checks {checks}")
        for check in checks:
            read.update(_PARAMETERS[check])
            holds = outcomes[check]
            if isinstance(holds, ValueError):
                problems.append(f"{where}: unreadable check: {holds}")
            elif not holds:
                problems.append(f"{where}: check {check} fails on its facts")
        if step.get("inputs") != wanted["inputs"]:
            problems.append(f"{where}: inputs are not the scheme's inputs")
        if step.get("outputs") != wanted["outputs"]:
            problems.append(f"{where}: outputs are not the scheme's outputs spelled from the facts")
    problems.extend(f"fact {k!r} is read by no check" for k in facts if k not in read)
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
        "assumptions": declared("topological-homeomorphism", *PLAN_ASSUMPTIONS),
    }
