"""The certificate engine and the numeric rules it uses."""

import copy
import inspect
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corktwist import fillings, front, hfcert, kirby, mcg
from corktwist.base import ASSUMPTIONS
from corktwist.hfcert import (
    CHECKS,
    SCHEME,
    CertificateAbort,
    HFError,
    RuleNotApplicable,
    SpinCDecoration,
    adjunction_violated,
    certificate_digest,
    certify_distinct,
    condition_text,
    degree_shift,
    eval_condition,
    hf_s3,
    validate_certificate,
)


@pytest.fixture
def pipeline(load, fixtures):
    """The mazur certificate's inputs: the shipped spec attaches the trefoil at
    framing 1 over the handle and after the twist."""
    adm = kirby.check_admissible(kirby.parse_kirby(load("mazur.kirby")))
    spec = kirby.parse_inflation_spec(load("trefoil_inflation.spec"), fixtures)
    palf = fillings.parse_palf(load("mazur_inflated.palf"))
    plan = fillings.build_concave(fillings.palf_to_openbook(palf))
    return adm, spec, plan


WORD = "word_trivial_on_h1"


def test_hf_s3_table():
    for n in range(-20, 21):
        plus = hf_s3("+", n)
        minus = hf_s3("-", n)
        assert (not plus.is_trivial) == (n % 2 == 0 and n >= 0)
        assert (not minus.is_trivial) == (n % 2 == 0 and n <= -2)
        if not plus.is_trivial:
            assert plus.describe() == "Z"
        if not minus.is_trivial:
            assert minus.describe() == "Z"
    with pytest.raises(HFError):
        hf_s3("x", 0)


def test_named_tower_generators_sit_in_nonzero_degrees(pipeline):
    step = certify_distinct(*pipeline)["steps"][3]
    assert step["rule"] == "lefschetz_nonvanishing"
    named = set(re.findall(r"Θ([+-])\((-?\d+)\)", " ".join(step["outputs"])))
    assert named == {("-", "-2"), ("+", "0")}
    for version, degree in named:
        assert not hf_s3(version, int(degree)).is_trivial


def test_degree_shift_against_rational_oracle():
    rng = random.Random(2026)
    for _ in range(20):
        c1sq = rng.randint(-30, 30)
        sigma = rng.randint(-20, 20)
        chi = rng.randint(-10, 40)
        s = SpinCDecoration(c1sq, sigma, chi)
        oracle = (Fraction(c1sq) - 3 * Fraction(sigma) - 2 * Fraction(chi)) / 4
        assert degree_shift(s) == oracle


def test_degree_shift_linearity_coefficients():
    base = degree_shift(SpinCDecoration(0, 0, 0))
    assert degree_shift(SpinCDecoration(1, 0, 0)) - base == Fraction(1, 4)
    assert degree_shift(SpinCDecoration(0, 1, 0)) - base == Fraction(-3, 4)
    assert degree_shift(SpinCDecoration(0, 0, 1)) - base == Fraction(-1, 2)


def test_degree_shift_needs_sigma():
    with pytest.raises(RuleNotApplicable):
        degree_shift(SpinCDecoration(0, None, 0))


def test_adjunction_exhaustive_small_range():
    for g in range(1, 4):
        for self_int in range(0, 5):
            for pairing in range(-6, 7):
                want = abs(pairing) + self_int > 2 * g - 2
                assert adjunction_violated(g, self_int, pairing) is want


def test_adjunction_boundary_and_flagship_cases():
    assert adjunction_violated(2, 0, 2) is False
    assert adjunction_violated(2, 0, 3) is True
    for pairing in range(-6, 7):
        assert adjunction_violated(1, 1, pairing) is True


def test_adjunction_refuses_out_of_scope():
    with pytest.raises(RuleNotApplicable) as info:
        adjunction_violated(0, 1, 0)
    assert "not applicable" in str(info.value)
    with pytest.raises(RuleNotApplicable):
        adjunction_violated(1, -1, 0)


def test_eval_condition_runs_named_checks():
    chain = [list(c.h1_class) for c in mcg.chain_curves(2)]
    # (check, facts it holds on, facts it fails on)
    cases = [
        ("unit_linking", {"linking": [[0, -1], [-1, 0]]}, {"linking": [[0, 1], [-1, 0]]}),
        ("tb_at_least_one", {"cork_tb": 1}, {"cork_tb": 0}),
        ("contact_framing", {"framing": 1, "exhibit_tb": 2}, {"framing": 2, "exhibit_tb": 2}),
        ("plan_euler_characteristic", {"euler_char": 194, "handles": 195, "fiber_genus": 2},
         {"euler_char": 195, "handles": 195, "fiber_genus": 2}),
        ("relator_handles", {"handles": 195, "blocks": 5, "fiber_genus": 2},
         {"handles": 196, "blocks": 5, "fiber_genus": 2}),
        ("fiber_genus_above_one", {"fiber_genus": 2}, {"fiber_genus": 1}),
        ("tb_obstructed", {"framing": 1, "max_tb": 1}, {"framing": 0, "max_tb": 1}),
        ("adjunction_violated", {"knot_genus": 1, "framing": 1},
         {"knot_genus": 2, "framing": 2}),
    ]
    for check, holds, fails in cases:
        assert eval_condition(check, holds) is True
        assert eval_condition(check, fails) is False
    assert {check for check, _, _ in cases} | {"word_trivial_on_h1"} == set(CHECKS)
    # a check reads only the facts it names from the shared table
    assert eval_condition("unit_linking", {"linking": [[0, 1], [1, 0]], "cork_tb": [1.5]}) is True
    assert eval_condition(
        "word_trivial_on_h1", {"fiber_genus": 2, "monodromy": chain}) is True
    assert eval_condition(
        "word_trivial_on_h1", {"fiber_genus": 1, "monodromy": [[0, 1]]}) is True
    with pytest.raises(RuleNotApplicable):
        eval_condition("adjunction_violated", {"knot_genus": 0, "framing": 1})


def test_adjunction_check_reads_pairing_zero_the_strongest_case():
    """The check evaluates the rule at pairing 0: wherever that violates the
    bound, every pairing does, so no certificate needs to record one."""
    for g in range(1, 4):
        for self_int in range(5):
            holds = eval_condition("adjunction_violated", {"knot_genus": g, "framing": self_int})
            assert holds is adjunction_violated(g, self_int, 0)
            if holds:
                assert all(adjunction_violated(g, self_int, p) for p in range(-6, 7))


def test_word_trivial_on_h1_replays_the_chain_relation(monkeypatch):
    """The check holds only because the chain relation makes each block an inverse twist."""
    facts = {"fiber_genus": 3, "monodromy": [[1, 0, 1, 0, 0, 0]]}
    assert eval_condition("word_trivial_on_h1", facts) is True
    monkeypatch.setattr(mcg, "verify_chain_relation", lambda g: False)
    assert eval_condition("word_trivial_on_h1", facts) is False


# a list 500 deep around an integer
_DEEP = 1
for _ in range(500):
    _DEEP = [_DEEP]
_NOT_A_MATRIX = "fact linking of check unit_linking is not a 2 x 2 integer matrix"


def test_eval_condition_caps_nesting():
    """An integer is never a list, and a monodromy nests exactly two lists deep."""
    for check, bad, kind in [
        ("tb_at_least_one", {"cork_tb": [[1]]}, "an integer"),
        ("tb_at_least_one", {"cork_tb": _DEEP}, "an integer"),
        (WORD, {"fiber_genus": 1, "monodromy": [1, 0]}, "a list of integer lists"),
        (WORD, {"fiber_genus": 1, "monodromy": [[[1], 0]]}, "a list of integer lists"),
        (WORD, {"fiber_genus": 1, "monodromy": _DEEP}, "a list of integer lists"),
    ]:
        with pytest.raises(HFError, match=f"is not {kind}$"):
            eval_condition(check, bad)


@pytest.mark.parametrize("check, facts, message", [
    ("unit_linking", "not a mapping", "the facts are not a mapping"),
    # a side condition document of an older certificate where a check name goes
    ({"expr": "1 == 1", "value": True}, {"cork_tb": 2}, "unknown check {'expr'"),
    ("is_identity", {"cork_tb": 2}, "unknown check 'is_identity'"),
    (["unit_linking"], {"cork_tb": 2}, "unknown check ['unit_linking']"),
    ("unit_linking", [1], "the facts are not a mapping"),
    ("tb_at_least_one", {"linking": [[0, 1], [1, 0]]}, "check tb_at_least_one wants fact cork_tb"),
    ("tb_at_least_one", {"cork_tb": True},
     "fact cork_tb of check tb_at_least_one is not an integer"),
    ("tb_at_least_one", {"cork_tb": 1.0}, "is not an integer"),
    ("tb_at_least_one", {"cork_tb": "1"}, "is not an integer"),
    # the linking matrix is 2 x 2, so unit_linking's indices are always in range
    ("unit_linking", {"linking": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}, _NOT_A_MATRIX),
    ("unit_linking", {"linking": [[0, 1], [1]]}, _NOT_A_MATRIX),
    ("unit_linking", {"linking": []}, _NOT_A_MATRIX),
    ("unit_linking", {"linking": [[0, True], [True, 0]]}, _NOT_A_MATRIX),
    ("unit_linking", {"linking": [[0, 1.0], [1.0, 0]]}, _NOT_A_MATRIX),
    ("unit_linking", {"linking": _DEEP}, _NOT_A_MATRIX),
    (WORD, {"fiber_genus": 0, "monodromy": [[]]}, "genus must be between 1 and 64"),
    (WORD, {"fiber_genus": mcg.MAX_GENUS + 1, "monodromy": [[1] + [0] * 129]},
     "genus must be between 1 and 64, got 65"),
    (WORD, {"fiber_genus": 2, "monodromy": [[1, 0]]}, "must have 4 entries"),
    (WORD, {"fiber_genus": 1, "monodromy": [[2, 0]]}, "imprimitive"),
    (WORD, {"fiber_genus": 1, "monodromy": [[0, 0]]}, "imprimitive"),
    (WORD, {"fiber_genus": 1, "monodromy": []}, "the monodromy has no letters"),
], ids=["not-a-mapping", "old-format", "unknown-check", "check-not-a-string",
        "evidence-not-a-mapping", "missing-key", "true", "float", "string",
        "linking-3x3", "linking-ragged", "linking-empty", "linking-true", "linking-float",
        "linking-deep", "genus-0", "genus-65", "class-length",
        "imprimitive-class", "zero-class", "empty-monodromy"])
def test_eval_condition_refuses_hostile_evidence(check, facts, message):
    with pytest.raises(HFError, match=re.escape(message)):
        eval_condition(check, facts)


def test_validate_survives_documents_too_deep_to_digest():
    steps: list = []
    for _ in range(5000):
        steps = [steps]
    assert validate_certificate({"steps": steps}) == [
        "certificate is nested too deeply to re-check"
    ]


def test_certificate_distinct_and_valid(pipeline):
    doc = certify_distinct(*pipeline)
    assert doc["verdict"] == "DISTINCT"
    assert len(doc["steps"]) == 10
    assert validate_certificate(doc) == []
    for step, (rule, _, checks, _) in zip(doc["steps"], SCHEME, strict=True):
        assert (step["rule"], step["checks"]) == (rule, list(checks))
        for check in step["checks"]:
            assert eval_condition(check, doc["facts"]) is True
    # the registered obstruction string appears verbatim in the outputs
    joined = json.dumps(doc, ensure_ascii=False)
    assert "framing 1 ≠ tb − 1 for exhibited tb ≤ 1" in joined


def test_certify_emits_every_registered_check(pipeline, monkeypatch):
    ran, run = [], hfcert.eval_condition
    monkeypatch.setattr(hfcert, "eval_condition", lambda c, facts: ran.append(c) or run(c, facts))
    cert = certify_distinct(*pipeline)
    steps = cert["steps"]
    emitted = [check for step in steps for check in step["checks"]]
    assert set(emitted) == set(CHECKS)
    assert len(emitted) == 11
    # certify runs each check it records once, in scheme order: unit_linking
    # once for steps 1, 5 and 6; and the checker makes the same calls
    once = list(dict.fromkeys(emitted))
    assert ran == once and len(ran) == 9
    ran.clear()
    assert validate_certificate(cert) == []
    assert ran == once
    assert "given: the candidate diagram and its admissibility report" in steps[0]["inputs"]


def test_certificate_digest_is_content_addressed(pipeline):
    doc1 = certify_distinct(*pipeline)
    doc2 = certify_distinct(*pipeline)
    assert doc1["digest"] == doc2["digest"]
    assert doc1 == doc2


def test_certificate_shares_nothing_between_calls(pipeline, mark_everywhere):
    """Editing a returned certificate or report reaches no later one."""
    cert, report = certify_distinct(*pipeline), hfcert.fake_pair_report()
    pristine = copy.deepcopy((cert, report))
    mark_everywhere(cert)
    mark_everywhere(report)
    assert "marked" in cert["facts"] and "marked" in cert["facts"]["monodromy"][0]
    assert (certify_distinct(*pipeline), hfcert.fake_pair_report()) == pristine


# JSON values come from flat bytes read by _json_value: hypothesis draws and
# shrinks bytes several times faster than a recursive strategy
_KEYS = ("", "x", "facts", "knot", "checks", "steps", "rule", "quote", "inputs", "outputs",
         "side_conditions", "digest", "verdict", "assumptions", "name", "linking", "monodromy")
_ATOMS = (None, True, False, 0, 1, -1, 2, 10**30, 1.0, -0.5, float("inf"), float("nan"),
          "DISTINCT", "verdict: DISTINCT", "given: x", "assumption: x", *_KEYS)


def _json_value(data: bytes, at: int = 0) -> tuple[object, int]:
    """The JSON value that data spells from index at, and the index past it.

    A byte b opens a list (b % 4 == 0) or an object (b % 4 == 1) of b // 4 % 4
    members, each object member led by a byte naming its key; any other byte
    is an atom, and past the end every value is null.
    """
    if at >= len(data):
        return None, at
    b, at = data[at], at + 1
    if b % 4 > 1:
        return _ATOMS[b // 4 % len(_ATOMS)], at
    is_object, members = b % 4 == 1, []
    for _ in range(b // 4 % 4):
        key = ""
        if is_object:
            key = _KEYS[data[at] % len(_KEYS)] if at < len(data) else ""
            at += 1
        value, at = _json_value(data, at)
        members.append((key, value))
    if is_object:
        return dict(members), at
    return [value for _, value in members], at


JSON_VALUES = st.binary(max_size=48).map(lambda data: _json_value(data)[0])


def _sites(node, path=()):
    """The path of every value inside node, node itself included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _sites(child, (*path, key))


def test_validate_is_total(pipeline):
    """On any JSON value, and on the certificate with any one value replaced by
    it, validation returns a list of strings; the list is empty only if the
    certificate is unchanged."""
    canonical = json.dumps(certify_distinct(*pipeline), sort_keys=True)
    sites = list(_sites(json.loads(canonical)))

    def problems_of(doc):
        problems = validate_certificate(doc)
        assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
        return problems

    @settings(max_examples=200)
    @given(st.sampled_from(sites), JSON_VALUES)
    def replaced(path, value):
        problems_of(value)
        if not path:
            return
        doc = json.loads(canonical)
        *parents, last = path
        parent = doc
        for key in parents:
            parent = parent[key]
        parent[last] = value
        if not problems_of(doc):
            assert json.dumps(doc, sort_keys=True) == canonical

    replaced()


def test_tampering_single_integer_fails(pipeline):
    bad = certify_distinct(*pipeline)
    assert bad["facts"]["handles"] == 195
    bad["facts"]["handles"] = 196
    problems = validate_certificate(bad)
    assert any("digest" in p for p in problems)
    assert any("check relator_handles fails on its facts" in p for p in problems)


def _fails(step, check):
    return step, f"check {check} fails on its facts"


_INPUTS = "inputs are not the scheme's inputs"
_OUTPUTS = "outputs are not the scheme's outputs spelled from the facts"
_ASSUMPTIONS = "assumptions are not the ones certify declares"
# step 7's outputs spell the framing, max_tb and knot_genus facts
_STEP_7_OUTPUTS = (7, _OUTPUTS)


# the linking matrix is read at steps 1, 5 and 6
_LINKING = [_fails(step, "unit_linking") for step in (1, 5, 6)]

# one forgery per check that edited facts can falsify: (step, check, the facts
# and their forged values, and the problem at every step that reads them)
FORGERIES = [
    (1, "unit_linking", {"linking": [[0, 2], [2, 0]]}, _LINKING),
    # symmetric and unimodular, so the boundary is a homology sphere: steps 5
    # and 6 still refuse it, for its diagonal is not zero
    (5, "unit_linking", {"linking": [[1, 1], [1, 0]]}, _LINKING),
    (1, "tb_at_least_one", {"cork_tb": 0}, [_fails(1, "tb_at_least_one")]),
    # the framing is read at steps 2 and 7
    (2, "contact_framing", {"framing": 0}, [
        _fails(2, "contact_framing"), _fails(7, "tb_obstructed"),
        _fails(7, "adjunction_violated"), _STEP_7_OUTPUTS]),
    (3, "plan_euler_characteristic", {"euler_char": 195},
     [_fails(3, "plan_euler_characteristic")]),
    (3, "relator_handles", {"handles": 196}, [
        _fails(3, "plan_euler_characteristic"), _fails(3, "relator_handles")]),
    (3, "relator_handles", {"blocks": 4}, [_fails(3, "relator_handles")]),
    # the fiber genus is read at steps 3 and 4
    (4, "fiber_genus_above_one", {"fiber_genus": 1}, [
        _fails(3, "plan_euler_characteristic"), _fails(3, "relator_handles"),
        (3, "unreadable check: every monodromy class must have 2 entries"),
        _fails(4, "fiber_genus_above_one")]),
    (7, "tb_obstructed", {"max_tb": 2}, [_fails(7, "tb_obstructed"), _STEP_7_OUTPUTS]),
    (7, "adjunction_violated", {"knot_genus": 2},
     [_fails(7, "adjunction_violated"), _STEP_7_OUTPUTS]),
]


@pytest.mark.parametrize("step, check, forged, problems", FORGERIES,
                         ids=[f"{s}-{c}-{'+'.join(f)}" for s, c, f, _ in FORGERIES])
def test_fresh_digest_forgery_fails_its_check(pipeline, step, check, forged, problems):
    doc = certify_distinct(*pipeline)
    assert _fails(step, check) in problems
    doc["facts"].update(forged)
    doc["digest"] = certificate_digest(doc)
    assert validate_certificate(doc) == [
        f"step {s} ({doc['steps'][s - 1]['rule']}): {problem}" for s, problem in problems
    ]


def test_dropped_or_reordered_checks_fail_with_fresh_digest(pipeline):
    doc = certify_distinct(*pipeline)
    dropped, swapped = copy.deepcopy(doc), copy.deepcopy(doc)
    del dropped["steps"][2]["checks"][2]
    swapped["steps"][6]["checks"].reverse()
    for forged in (dropped, swapped):
        forged["digest"] = certificate_digest(forged)
        [problem] = validate_certificate(forged)
        assert "are not the rule's checks" in problem


def _parent_format(doc):
    """doc as the format before the facts table wrote it: each step carries
    its checks as side conditions, each with its own copy of the evidence."""
    old = copy.deepcopy(doc)
    f = old.pop("facts")
    evidence = {
        "unit_linking": {"linking": f["linking"]},
        "tb_at_least_one": {"tb": f["cork_tb"]},
        "contact_framing": {"framing": f["framing"], "tb": f["exhibit_tb"]},
        "plan_euler_characteristic": {
            "euler_char": f["euler_char"], "handles": f["handles"], "fiber_genus": f["fiber_genus"]},
        "relator_handles": {
            "handles": f["handles"], "blocks": f["blocks"], "fiber_genus": f["fiber_genus"]},
        WORD: {"genus": f["fiber_genus"], "monodromy": f["monodromy"]},
        "fiber_genus_above_one": {"fiber_genus": f["fiber_genus"]},
        "tb_obstructed": {"framing": f["framing"], "max_tb": f["max_tb"]},
        "adjunction_violated": {
            "genus": f["knot_genus"], "self_intersection": f["framing"], "pairing": 0},
    }
    for step in old["steps"]:
        step["side_conditions"] = [{"check": c, "evidence": evidence[c]}
                                   for c in step.pop("checks")]
    old["digest"] = certificate_digest(old)
    return old


def test_old_format_certificate_is_invalid(pipeline):
    problems = validate_certificate(_parent_format(certify_distinct(*pipeline)))
    assert problems[0] == "certificate has no facts table"
    assert problems[1:4] == [
        "step 1 (cork_admissible): unknown key 'side_conditions'",
        "step 1 (cork_admissible): checks [] are not the rule's checks "
        "['unit_linking', 'tb_at_least_one']",
        "step 1 (cork_admissible): unreadable check: check unit_linking wants fact linking",
    ]
    assert sum("unknown key 'side_conditions'" in p for p in problems) == 10


# a value where the checker reads none: (where, key, value, the problem it reports)
UNREAD = [
    ("certificate", "pairing", 0, "unknown certificate key 'pairing'"),
    ("step 1", "side_conditions", [], "step 1 (cork_admissible): unknown key 'side_conditions'"),
    ("step 1", "evidence", {"cork_tb": 2}, "step 1 (cork_admissible): unknown key 'evidence'"),
    ("facts", "pairing", 0, "fact 'pairing' is read by no check"),
    ("facts", "tb", 2, "fact 'tb' is read by no check"),
]


@pytest.mark.parametrize("where, key, value, problem", UNREAD,
                         ids=["certificate-key", "step-key", "step-evidence", "unread-fact",
                              "unread-copy"])
def test_validate_refuses_unread_data(pipeline, where, key, value, problem):
    doc = certify_distinct(*pipeline)
    {"certificate": doc, "step 1": doc["steps"][0], "facts": doc["facts"]}[where][key] = value
    doc["digest"] = certificate_digest(doc)
    assert validate_certificate(doc) == [problem]


def _at_step(step, problem):
    return f"step {step} ({SCHEME[step - 1][0]}): {problem}"


def _reword_is_cork(doc):
    for step, field in ((0, "outputs"), (1, "inputs"), (6, "inputs")):
        texts = doc["steps"][step][field]
        texts[texts.index(hfcert.IS_CORK)] = "the domain W is contractible"


def _inverse_format(doc):
    """doc as the format before steps 5 and 6 read the linking matrix itself:
    a second copy of it as its inverse, and a check that multiplies the two."""
    doc["facts"]["linking_inverse"] = copy.deepcopy(doc["facts"]["linking"])
    for step in doc["steps"][4:6]:
        step["checks"] = ["unimodular"]


# an edit of the chain of deductions under a fresh digest: {name: (edit, the
# problems validation gives)}
SCHEME_FORGERIES = {
    "inputs-emptied": (lambda doc: [step.update(inputs=[]) for step in doc["steps"]],
                       [_at_step(s, _INPUTS) for s in range(1, 11)]),
    "step-10-dropped": (lambda doc: doc["steps"].pop(),
                        ["certificate has 9 steps; the scheme has 10"]),
    "step-11-appended": (lambda doc: doc["steps"].append(copy.deepcopy(doc["steps"][-1])),
                         ["certificate has 11 steps; the scheme has 10"]),
    "conditional-output-dropped": (lambda doc: doc["steps"][3]["outputs"].pop(),
                                   [_at_step(4, _OUTPUTS)]),
    "step-7-output-reworded": (
        lambda doc: doc["steps"][6]["outputs"].__setitem__(
            0, "the twisted attachment is Stein after all"),
        [_at_step(7, _OUTPUTS)]),
    "is-cork-reworded": (_reword_is_cork,
                         [_at_step(1, _OUTPUTS), _at_step(2, _INPUTS), _at_step(7, _INPUTS)]),
    "given-replaced-by-output": (
        lambda doc: doc["steps"][2]["inputs"].__setitem__(1, hfcert.IS_CORK),
        [_at_step(3, _INPUTS)]),
    "output-replaced-by-given": (
        lambda doc: doc["steps"][1]["inputs"].__setitem__(0, "given: W is a cork"),
        [_at_step(2, _INPUTS)]),
    # recorded text is printed by repr: its newline starts no line of its own
    "text-spells-a-line": (
        lambda doc: doc["steps"][0].update(rule="x\nvalid", checks="y\nvalid"), [
            _at_step(1, "rule 'x\\nvalid' is not the scheme's"),
            _at_step(1, "checks 'y\\nvalid' are not the rule's checks "
                        "['unit_linking', 'tb_at_least_one']")]),
    # a given input is compared as certify spells it, not by its prefix
    "given-3-rewritten": (
        lambda doc: doc["steps"][2]["inputs"].__setitem__(1, "given: any fibration word"),
        [_at_step(3, _INPUTS)]),
    "given-7-names-unknot": (
        lambda doc: doc["steps"][6]["inputs"].__setitem__(
            1, "given: registered facts for unknot: its max tb and Seifert genus"),
        [_at_step(7, _INPUTS)]),
    # the knot is a label that steps 2 and 7 spell
    "knot-renamed-at-top-level": (lambda doc: doc.update(knot="unknot"),
                                  [_at_step(2, _INPUTS), _at_step(7, _INPUTS)]),
    "knot-not-a-string": (lambda doc: doc.update(knot=["right_trefoil"]),
                          [_at_step(2, _INPUTS), _at_step(7, _INPUTS)]),
    # the assumptions are compared whole with the ones certify declares
    "assumptions-emptied": (lambda doc: doc.update(assumptions=[]), [_ASSUMPTIONS]),
    "assumption-rewritten-as-verified": (
        lambda doc: doc["assumptions"][1].update(statement="b2+ is 3", status="verified"),
        [_ASSUMPTIONS]),
    "uncited-assumptions-dropped": (
        lambda doc: doc.update(assumptions=[a for a in doc["assumptions"] if a["name"] not in (
            "symplectic-structure", "section-exists")]),
        [_ASSUMPTIONS]),
    "inverse-format": (_inverse_format, [
        _at_step(5, "checks ['unimodular'] are not the rule's checks ['unit_linking']"),
        _at_step(6, "checks ['unimodular'] are not the rule's checks ['unit_linking']"),
        "fact 'linking_inverse' is read by no check"]),
}


@pytest.mark.parametrize("edit, problems", SCHEME_FORGERIES.values(), ids=SCHEME_FORGERIES)
def test_validate_compares_every_step_with_the_scheme(pipeline, edit, problems):
    doc = certify_distinct(*pipeline)
    edit(doc)
    doc["digest"] = certificate_digest(doc)
    assert validate_certificate(doc) == problems


def test_readme_check_table_is_the_scheme():
    """README's certify --validate table of (step, check, facts) is what SCHEME and
    the checks' parameters give, row by row."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### certify --validate CERT\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([\d, ]+) \| `(\w+)` \| (.*) \|$", section, flags=re.M)
    documented = [(int(step), check, tuple(re.findall(r"`(\w+)`", facts)))
                  for steps, check, facts in rows for step in steps.split(", ")]
    assert documented == [(i, check, hfcert._PARAMETERS[check])
                          for i, (_, _, checks, _) in enumerate(SCHEME, start=1)
                          for check in checks]


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _integer_sites(doc):
    return [path for path in _sites(doc) if type(_at(doc, path)) is int]


def test_every_integer_is_a_fact_recorded_once(pipeline):
    doc = certify_distinct(*pipeline)
    sites = _integer_sites(doc)
    assert all(path[0] == "facts" for path in sites)
    # 9 integer facts, the linking matrix of 4 entries, and the monodromy's
    # 5 classes of 4 entries
    assert len(sites) == 33
    assert len(doc["facts"]) == 11


EDITS = {"+1": lambda v: v + 1, "negate": lambda v: -v}

# monodromy class i of the mazur certificate: the entries where +1, and where
# negation, keep the class primitive
_MONODROMY = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 1]]
_PRIMITIVE_EDITS = [
    ((1, 2, 3), (0,)),
    ((0, 2, 3), (1,)),
    ((0, 1, 2, 3), (0, 2)),
    ((0, 1, 2), (3,)),
    ((0, 1, 2, 3), (1, 3)),
]
_PRIMITIVE_ONLY = (
    "word_trivial_on_h1 decides only that each class is primitive: nothing yet "
    "ties the fibration word to the diagram, so any primitive class passes")

# Every edit of one integer of the mazur certificate that validation still
# accepts under a fresh digest, with why: {(site, edit): reason}.  The gate
# requires the accepted edits to be exactly these, so a change that makes
# one more integer load-bearing shrinks this table on purpose.  max_tb
# negated is refused, but only because step 7's first output spells the
# bound: validation still takes the registry's value on trust and does not
# re-derive it from the knot.
ACCEPTED_EDITS = {
    (("facts", "cork_tb"), "+1"): (
        "tb_at_least_one is one-sided (tb >= 1), and the cork's exhibit is a given "
        "input that validation does not replay"),
    **{(("facts", "monodromy", i, j), edit): _PRIMITIVE_ONLY
       for i, (plus_one, negated) in enumerate(_PRIMITIVE_EDITS)
       for edit, entries in (("+1", plus_one), ("negate", negated)) for j in entries},
}


def test_mutation_gate_accepts_only_the_allowlist(pipeline):
    """+1 and negation of every integer, under a fresh digest: validation
    rejects each edit that the allowlist does not name, and accepts each one it does."""
    doc = certify_distinct(*pipeline)
    assert doc["facts"]["monodromy"] == _MONODROMY
    accepted = set()
    for path in _integer_sites(doc):
        *parents, last = path
        for edit, change in EDITS.items():
            value = _at(doc, path)
            if change(value) == value:  # negating 0 edits nothing
                continue
            bad = copy.deepcopy(doc)
            _at(bad, parents)[last] = change(value)
            bad["digest"] = certificate_digest(bad)
            if not validate_certificate(bad):
                accepted.add((path, edit))
    assert len(ACCEPTED_EDITS) == 25
    assert accepted == set(ACCEPTED_EDITS)


def test_tampering_text_only_fails_digest(pipeline):
    blob = json.dumps(certify_distinct(*pipeline))
    bad = json.loads(blob.replace("verdict: DISTINCT", "verdict: SAME"))
    assert any("digest" in p for p in validate_certificate(bad))


def test_reordered_steps_fail_even_with_fresh_digest(pipeline):
    doc = certify_distinct(*pipeline)
    doc["steps"] = doc["steps"][::-1]
    doc["digest"] = certificate_digest(doc)
    problems = validate_certificate(doc)
    assert "step 1 (cork_admissible): rule 'reduced_descent' is not the scheme's" in problems


def test_rewritten_axiom_fails(pipeline):
    doc = certify_distinct(*pipeline)
    doc["steps"][0]["quote"] = "trust me"
    doc["digest"] = certificate_digest(doc)
    assert any("axiom" in p for p in validate_certificate(doc))


def test_abort_on_wrong_framing(pipeline):
    adm, spec, plan = pipeline
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(adm, spec._replace(framing=0), plan)
    assert str(info.value) == "untwisted Stein check wants framing = tb − 1 = 1"
    assert info.value.check == "contact_framing"
    assert condition_text(info.value.check, info.value.facts) == (
        "contact_framing(framing=0, exhibit_tb=2)")


def _json_condition_text(check, facts):
    """The oracle: each fact the check reads, in parameter order, by json.dumps
    with compact separators."""
    args = ", ".join(f"{k}={json.dumps(facts[k], separators=(',', ':'))}"
                     for k in inspect.signature(CHECKS[check]).parameters)
    return f"{check}({args})"


def test_condition_text_spells_values_in_compact_json(pipeline):
    doc = certify_distinct(*pipeline)
    conds = [(c, doc["facts"]) for step in doc["steps"] for c in step["checks"]]
    assert ("word_trivial_on_h1", doc["facts"]) in conds
    # facts a failed check can carry into an abort: a negative int, nested
    # int lists, a bool and a null
    conds += [("tb_at_least_one", {"cork_tb": -3}), ("tb_at_least_one", {"cork_tb": None}),
              (WORD, {"fiber_genus": True, "monodromy": [[1, -2], [], [3]]})]
    for c in conds:
        assert condition_text(*c) == _json_condition_text(*c)
    assert condition_text(*conds[-2]) == "tb_at_least_one(cork_tb=null)"
    assert condition_text(*conds[-1]) == (
        "word_trivial_on_h1(fiber_genus=true, monodromy=[[1,-2],[],[3]])")


def test_abort_on_unknot_inflation(pipeline, load):
    adm, _, plan = pipeline
    unknot = front.parse_front(load("lens.front"))
    spec = kirby.InflationSpec("unknot", -2, unknot, "U", unknot, "U")  # exact: tb -1, framing tb - 1
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(adm, spec, plan)
    # step 7 fails both ways; the abort names the first check in scheme order
    assert str(info.value) == (
        "twisted-side attachment is not obstructed "
        "(exhibited tb -1, 0 handle passes); no separation"
    )
    assert info.value.check == "tb_obstructed"
    with pytest.raises(RuleNotApplicable, match="adjunction rule not applicable"):
        eval_condition("adjunction_violated", info.value.facts)


def test_abort_on_inadmissible_cork(pipeline, load):
    _, spec, plan = pipeline
    hopf = kirby.parse_kirby(load("hopf.kirby"))
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(kirby.check_admissible(hopf), spec, plan)
    assert "admissibility" in str(info.value)


def test_abort_on_unobstructed_twisted_side(pipeline):
    adm, spec, plan = pipeline
    # the exhibit over the handle reaches framing 1 = tb - 1 on the twisted side too
    over_handle = spec._replace(twisted_front=spec.untwisted_front)
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(adm, over_handle, plan)
    assert str(info.value) == (
        "twisted-side attachment is not obstructed "
        "(exhibited tb 2, 2 handle passes); no separation"
    )
    assert info.value.check is None


def test_stein_framing_rule_branches(pipeline, load):
    """Each way the Stein framing rule decides an attachment, read from the spec's exhibits."""
    adm, spec, plan = pipeline
    # exact: framing 1 = tb - 1 on the untwisted exhibit
    cert = certify_distinct(adm, spec, plan)
    steps, facts = cert["steps"], cert["facts"]
    assert steps[1]["checks"] == ["contact_framing"]
    assert (facts["framing"], facts["exhibit_tb"]) == (1, 2)
    # realizable below the exhibit, but not exact: step 2 aborts
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(adm, spec._replace(framing=0), plan)
    assert condition_text(info.value.check, info.value.facts) == (
        "contact_framing(framing=0, exhibit_tb=2)")
    # obstructed: a plain trefoil with tb 1 < framing + 1
    assert steps[6]["checks"][0] == "tb_obstructed"
    assert facts["max_tb"] == 1
    assert "given: twisted-side verdict on the inflation spec's twisted exhibit" in (
        steps[6]["inputs"])
    # unknown: a twisted exhibit over a handle that falls short of the framing;
    # max tb bounds only a plain front, so nothing obstructs it
    low = front.stabilize(spec.untwisted_front, "K", 1)
    assert (low.tb("K"), low.handle_passes("K")) == (1, 2)
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(adm, spec._replace(twisted_front=low), plan)
    assert str(info.value) == (
        "twisted-side attachment is not obstructed "
        "(exhibited tb 1, 2 handle passes); no separation"
    )
    # realizable after the twist: a plain front labelled a trefoil, the (2,5)
    # torus knot with tb 3, reaches the framing, whatever max tb the label cites
    torus = front.parse_front(
        "arc K : (0,1) (3,-1) (5,1) (7,-1) (9,1) (11,-1) (14,-1)\n"
        "arc K : (14,-1) (7,-3) (0,-1)\n"
        "arc K : (0,-1) (3,1) (5,-1) (7,1) (9,-1) (11,1) (14,1)\n"
        "arc K : (14,1) (7,3) (0,1)\norient K +\nknottype K right_trefoil\n")
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(adm, spec._replace(twisted_front=torus), plan)
    assert str(info.value) == (
        "twisted-side attachment is not obstructed "
        "(exhibited tb 3, 0 handle passes); no separation"
    )
    # unknown: no knot declared, so no registered fact applies
    undeclared = [front.parse_front(load(name).replace("knottype K right_trefoil\n", ""))
                  for name in ("trefoil_handle.front", "trefoil.front")]
    bare = spec._replace(untwisted_front=undeclared[0], twisted_front=undeclared[1])
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(adm, bare, plan)
    assert str(info.value) == (
        "no registered facts for the attaching knot; twisted-side obstruction unavailable"
    )
    # the twisted exhibit must declare the untwisted exhibit's knot
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(adm, spec._replace(twisted_front=undeclared[1]), plan)
    assert str(info.value) == "twisted-side record disagrees with the untwisted attachment"


def test_relative_invariant_pair(pipeline):
    digest = certify_distinct(*pipeline)["digest"]
    fact = hfcert.non_extension_fact(digest)
    assert fact["relative_values"] == [{"magnitude": 1, "sign_ambiguous": True}, 0]
    assert "does not extend" in fact["statement"]
    assert "relative values ±1 and 0" in fact["statement"]
    assert fact["derived_from"] == digest


def test_assumption_table_holds_exactly_the_cited_names(pipeline):
    """Each name the scheme cites, a plan lists or the fake-pair report lists is
    in the table, each table key is one of them, and the certificate declares
    every name the scheme cites."""
    cited = {text.removeprefix("assumption: ") for _, inputs, _, _ in SCHEME
             for text in inputs if text.startswith("assumption: ")}
    listed = [{a["name"] for a in doc["assumptions"]}
              for doc in (pipeline[2], hfcert.fake_pair_report())]
    assert cited.union(*listed) == set(ASSUMPTIONS)
    assert cited <= {a["name"] for a in certify_distinct(*pipeline)["assumptions"]}


@pytest.mark.parametrize("palf", [
    "mazur_inflated.palf",
    "genus 1\nword T(c1) T(c2) T(c1)\n",  # stabilized once, to genus 2
    "genus 8\nword " + " ".join(f"T(c{k})" for k in range(1, 17)) + "\n",
], ids=["mazur-inflated", "genus-1-stabilized", "genus-8-chain"])
def test_certify_reads_what_fill_prints(pipeline, load, palf):
    """Step 3's facts are the plan document's fields, and certify leaves the
    document as it found it."""
    adm, spec, _ = pipeline
    text = load(palf) if palf.endswith(".palf") else palf
    plan = fillings.build_concave(fillings.palf_to_openbook(fillings.parse_palf(text)))
    printed = copy.deepcopy(plan)
    facts = certify_distinct(adm, spec, plan)["facts"]
    assert plan == printed
    handles = plan["trivializing_handles"]
    assert (facts["euler_char"], facts["handles"], facts["blocks"], facts["fiber_genus"]) == (
        plan["euler_char"], handles["count"], plan["relator_blocks"], plan["fiber_genus"])
    letters = [b["letter"]["class"] for b in reversed(handles["blocks"])]
    assert facts["monodromy"] == letters
    assert not any(m is c for m, c in zip(facts["monodromy"], letters))


def test_fake_pair_report():
    report = hfcert.fake_pair_report()
    assert "homeomorphic but not diffeomorphic" in report["statement"]
    assert len(report["computations"]) == 2
    names = {a["name"] for a in report["assumptions"]}
    assert "topological-homeomorphism" in names
    assert all(
        a.get("status") == "declared-unverified" for a in report["assumptions"]
    )


def test_untwisted_exhibit_exact_twisted_obstructed(pipeline):
    """The shipped spec: framing 1 is Stein over the handle and obstructed after the twist."""
    steps = certify_distinct(*pipeline)["steps"]
    assert steps[1]["inputs"][1] == (
        "given: 2-handle along a right_trefoil curve: "
        "the inflation spec's framing and untwisted exhibit"
    )
    assert steps[6]["outputs"][0] == (
        "the twisted attachment is never Stein: framing 1 ≠ tb − 1 for exhibited tb ≤ 1"
    )


def test_certify_refuses_unregistered_knottype(pipeline, load):
    """An unregistered declared knot on either exhibit aborts before step 1."""
    _, spec, plan = pipeline
    hopf = kirby.parse_kirby(load("hopf.kirby"))  # step 1 would abort too
    text = "arc K : (0,0) (4,2) (8,0)\narc K : (8,0) (4,-2) (0,0)\norient K +\nknottype K cinquefoil\n"
    for side in ("untwisted", "twisted"):
        unregistered = spec._replace(**{f"{side}_front": front.parse_front(text)})
        with pytest.raises(CertificateAbort) as info:
            certify_distinct(kirby.check_admissible(hopf), unregistered, plan)
        assert str(info.value) == "unregistered knot type 'cinquefoil'"
