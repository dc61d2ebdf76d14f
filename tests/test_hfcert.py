"""The certificate engine and the numeric rules it uses."""

import copy
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corktwist import fillings, front, hfcert, kirby, mcg
from corktwist.hfcert import (
    CHECKS,
    RULE_CHECKS,
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
def pipeline(load):
    """The mazur certificate's inputs: the trefoil at framing 1 over the handle and after the twist."""
    cork = kirby.parse_kirby(load("mazur.kirby"))
    adm = kirby.check_admissible(cork)
    over_handle = front.parse_front(load("trefoil_handle.front"))
    inflation = kirby.inflate(over_handle, 1)
    palf = fillings.parse_palf(load("mazur_inflated.palf"))
    plan = fillings.build_concave(fillings.palf_to_openbook(palf))
    twisted = kirby.inflate(front.parse_front(load("trefoil.front")), 1)
    return cork, adm, inflation, plan, twisted


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


def cond(check, **evidence):
    return {"check": check, "evidence": evidence}


def test_eval_condition_runs_named_checks():
    chain = [list(c.h1_class) for c in mcg.chain_curves(2)]
    cases = [
        (cond("unit_linking", lk=-1), cond("unit_linking", lk=0)),
        (cond("tb_at_least_one", tb=1), cond("tb_at_least_one", tb=0)),
        (cond("contact_framing", framing=1, tb=2), cond("contact_framing", framing=2, tb=2)),
        (cond("plan_euler_characteristic", euler_char=194, handles=195, fiber_genus=2),
         cond("plan_euler_characteristic", euler_char=195, handles=195, fiber_genus=2)),
        (cond("relator_handles", handles=195, blocks=5, fiber_genus=2),
         cond("relator_handles", handles=196, blocks=5, fiber_genus=2)),
        (cond("fiber_genus_above_one", fiber_genus=2), cond("fiber_genus_above_one", fiber_genus=1)),
        (cond("unit_determinant", det=-1), cond("unit_determinant", det=2)),
        (cond("tb_obstructed", framing=1, max_tb=1), cond("tb_obstructed", framing=0, max_tb=1)),
        (cond("adjunction_violated", genus=1, self_intersection=1, pairing=0),
         cond("adjunction_violated", genus=2, self_intersection=0, pairing=2)),
    ]
    for holds, fails in cases:
        assert eval_condition(holds) is True
        assert eval_condition(fails) is False
    assert {holds["check"] for holds, _ in cases} | {"word_trivial_on_h1"} == set(CHECKS)
    assert eval_condition(cond("word_trivial_on_h1", genus=2, monodromy=chain)) is True
    assert eval_condition(cond("word_trivial_on_h1", genus=1, monodromy=[[0, 1]])) is True
    with pytest.raises(RuleNotApplicable):
        eval_condition(cond("adjunction_violated", genus=0, self_intersection=1, pairing=0))


def test_word_trivial_on_h1_replays_the_chain_relation(monkeypatch):
    """The check holds only because the chain relation makes each block an inverse twist."""
    evidence = cond("word_trivial_on_h1", genus=3, monodromy=[[1, 0, 1, 0, 0, 0]])
    assert eval_condition(evidence) is True
    monkeypatch.setattr(mcg, "verify_chain_relation", lambda g: False)
    assert eval_condition(evidence) is False


def test_eval_condition_caps_nesting():
    """An integer is never a list, and a monodromy nests exactly two lists deep."""
    deep = 1
    for _ in range(500):
        deep = [deep]
    for bad, kind in [
        (cond("unit_linking", lk=[[1]]), "an integer"),
        (cond("unit_linking", lk=deep), "an integer"),
        (cond("word_trivial_on_h1", genus=1, monodromy=[1, 0]), "a list of integer lists"),
        (cond("word_trivial_on_h1", genus=1, monodromy=[[[1], 0]]), "a list of integer lists"),
        (cond("word_trivial_on_h1", genus=1, monodromy=deep), "a list of integer lists"),
    ]:
        with pytest.raises(HFError, match=f"is not {kind}$"):
            eval_condition(bad)


@pytest.mark.parametrize("bad, message", [
    ("not a mapping", "not a mapping of a check"),
    ({"expr": "1 == 1", "value": True}, "not a mapping of a check"),
    ({"check": "unit_linking", "evidence": {"lk": 1}, "value": True}, "not a mapping of a check"),
    (cond("is_identity", lk=1), "unknown check 'is_identity'"),
    ({"check": ["unit_linking"], "evidence": {"lk": 1}}, "unknown check"),
    ({"check": "unit_linking", "evidence": [1]}, "wants evidence lk"),
    (cond("unit_linking"), "wants evidence lk"),
    (cond("unit_linking", lk=1, tb=2), "wants evidence lk"),
    (cond("unit_linking", lk=True), "evidence lk of check unit_linking is not an integer"),
    (cond("unit_linking", lk=1.0), "is not an integer"),
    (cond("unit_linking", lk="1"), "is not an integer"),
    (cond("word_trivial_on_h1", genus=0, monodromy=[[]]), "genus must be between 1 and 64"),
    (cond("word_trivial_on_h1", genus=mcg.MAX_GENUS + 1, monodromy=[[1] + [0] * 129]),
     "genus must be between 1 and 64, got 65"),
    (cond("word_trivial_on_h1", genus=2, monodromy=[[1, 0]]), "must have 4 entries"),
    (cond("word_trivial_on_h1", genus=1, monodromy=[[2, 0]]), "imprimitive"),
    (cond("word_trivial_on_h1", genus=1, monodromy=[[0, 0]]), "imprimitive"),
    (cond("word_trivial_on_h1", genus=1, monodromy=[]), "the monodromy has no letters"),
], ids=["not-a-mapping", "old-format", "extra-field", "unknown-check", "check-not-a-string",
        "evidence-not-a-mapping", "missing-key", "extra-key", "true", "float", "string",
        "genus-0", "genus-65", "class-length", "imprimitive-class", "zero-class",
        "empty-monodromy"])
def test_eval_condition_refuses_hostile_evidence(bad, message):
    with pytest.raises(HFError, match=re.escape(message)):
        eval_condition(bad)


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
    for step in doc["steps"]:
        assert [c["check"] for c in step["side_conditions"]] == list(
            RULE_CHECKS.get(step["rule"], ())
        )
        for condition in step["side_conditions"]:
            assert eval_condition(condition) is True
    # the registered obstruction string appears verbatim in the outputs
    joined = json.dumps(doc, ensure_ascii=False)
    assert "framing 1 ≠ tb − 1 for exhibited tb ≤ 1" in joined


def test_certify_emits_every_registered_check(pipeline):
    steps = certify_distinct(*pipeline)["steps"]
    emitted = [c["check"] for step in steps for c in step["side_conditions"]]
    assert set(emitted) == set(CHECKS)
    assert len(emitted) == 11
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
    assert "marked" in cert["steps"][4]["side_conditions"][0]["evidence"]
    assert (certify_distinct(*pipeline), hfcert.fake_pair_report()) == pristine


# JSON values come from flat bytes read by _json_value: hypothesis draws and
# shrinks bytes several times faster than a recursive strategy
_KEYS = ("", "x", "check", "evidence", "steps", "rule", "quote", "inputs", "outputs",
         "side_conditions", "digest", "verdict", "assumptions", "name", "lk", "monodromy")
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
    relator = bad["steps"][2]["side_conditions"][1]
    assert relator == cond("relator_handles", handles=195, blocks=5, fiber_genus=2)
    relator["evidence"]["handles"] = 196
    problems = validate_certificate(bad)
    assert any("digest" in p for p in problems)
    assert any("check relator_handles fails on its evidence" in p for p in problems)


# one forgery per check that an edited integer can falsify: (step, check, key, value)
FORGERIES = [
    (1, "unit_linking", "lk", 2),
    (1, "tb_at_least_one", "tb", 0),
    (2, "contact_framing", "framing", 0),
    (3, "plan_euler_characteristic", "euler_char", 195),
    (3, "relator_handles", "handles", 196),
    (3, "relator_handles", "blocks", 4),
    (4, "fiber_genus_above_one", "fiber_genus", 1),
    (5, "unit_determinant", "det", 2),
    (6, "unit_determinant", "det", 2),
    (7, "tb_obstructed", "max_tb", 2),
    (7, "adjunction_violated", "self_intersection", 0),
]


@pytest.mark.parametrize("step, check, key, value", FORGERIES,
                         ids=[f"{s}-{c}-{k}" for s, c, k, _ in FORGERIES])
def test_fresh_digest_forgery_fails_its_check(pipeline, step, check, key, value):
    doc = certify_distinct(*pipeline)
    [target] = [c for c in doc["steps"][step - 1]["side_conditions"] if c["check"] == check]
    target["evidence"][key] = value
    doc["digest"] = certificate_digest(doc)
    assert validate_certificate(doc) == [
        f"step {step} ({doc['steps'][step - 1]['rule']}): check {check} fails on its evidence"
    ]


def test_dropped_or_reordered_checks_fail_with_fresh_digest(pipeline):
    doc = certify_distinct(*pipeline)
    dropped, swapped = copy.deepcopy(doc), copy.deepcopy(doc)
    del dropped["steps"][2]["side_conditions"][2]
    swapped["steps"][6]["side_conditions"].reverse()
    for forged in (dropped, swapped):
        forged["digest"] = certificate_digest(forged)
        [problem] = validate_certificate(forged)
        assert "are not the rule's checks" in problem


def test_old_format_certificate_is_invalid(pipeline):
    doc = certify_distinct(*pipeline)
    doc["steps"][0]["side_conditions"] = [{"expr": "abs(1) == 1", "value": True},
                                          {"expr": "2 >= 1", "value": True}]
    doc["digest"] = certificate_digest(doc)
    problems = validate_certificate(doc)
    assert problems[0] == (
        "step 1 (cork_admissible): checks [None, None] are not the rule's checks "
        "['unit_linking', 'tb_at_least_one']"
    )
    assert problems[1:] == [
        "step 1 (cork_admissible): unreadable side condition: side condition is not "
        "a mapping of a check and its evidence"
    ] * 2


def test_tampering_text_only_fails_digest(pipeline):
    blob = json.dumps(certify_distinct(*pipeline))
    bad = json.loads(blob.replace("verdict: DISTINCT", "verdict: SAME"))
    assert any("digest" in p for p in validate_certificate(bad))


def test_reordered_steps_fail_even_with_fresh_digest(pipeline):
    doc = certify_distinct(*pipeline)
    doc["steps"] = doc["steps"][::-1]
    doc["digest"] = certificate_digest(doc)
    problems = validate_certificate(doc)
    assert any("earlier output" in p for p in problems)


def test_rewritten_axiom_fails(pipeline):
    doc = certify_distinct(*pipeline)
    doc["steps"][0]["quote"] = "trust me"
    doc["digest"] = certificate_digest(doc)
    assert any("axiom" in p for p in validate_certificate(doc))


def test_abort_on_wrong_framing(pipeline, load):
    cork, adm, _, plan, twisted = pipeline
    over_handle = front.parse_front(load("trefoil_handle.front"))
    low = kirby.inflate(over_handle, 0)
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(cork, adm, low, plan, twisted)
    assert str(info.value) == "untwisted Stein check wants framing = tb − 1 = 1"
    assert info.value.condition == cond("contact_framing", framing=0, tb=2)
    assert condition_text(info.value.condition) == "contact_framing(framing=0, tb=2)"


def _old_condition_text(c):
    """condition_text as it spelled every value: json.dumps with compact separators."""
    args = ", ".join(f"{k}={json.dumps(v, separators=(',', ':'))}"
                     for k, v in c["evidence"].items())
    return f"{c['check']}({args})"


def test_condition_text_spells_values_in_compact_json(pipeline):
    conds = [c for step in certify_distinct(*pipeline)["steps"] for c in step["side_conditions"]]
    assert any("monodromy" in c["evidence"] for c in conds)
    # evidence a failed check can carry into an abort: a negative int, nested
    # int lists, a bool and a null
    conds += [cond("unit_linking", lk=-3), cond("x", a=[[1, -2], [], [3]], b=True, c=None)]
    for c in conds:
        assert condition_text(c) == _old_condition_text(c)
    assert condition_text(conds[-1]) == "x(a=[[1,-2],[],[3]], b=true, c=null)"


def test_abort_on_unknot_inflation(pipeline, load):
    cork, adm, _, plan, _ = pipeline
    unknot = front.parse_front(load("lens.front"))
    record = kirby.inflate(unknot, -2)  # exact: tb -1, framing tb - 1
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(cork, adm, record, plan, record)
    assert "adjunction rule not applicable" in str(info.value)
    assert info.value.condition["check"] == "adjunction_violated"


def test_abort_on_inadmissible_cork(pipeline, load):
    _, _, inflation, plan, twisted = pipeline
    hopf = kirby.parse_kirby(load("hopf.kirby"))
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(hopf, kirby.check_admissible(hopf), inflation, plan, twisted)
    assert "admissibility" in str(info.value)


def test_abort_on_unobstructed_twisted_side(pipeline, load):
    cork, adm, inflation, plan, _ = pipeline
    over_handle = kirby.inflate(front.parse_front(load("trefoil_handle.front")), 1)
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(cork, adm, inflation, plan, over_handle)
    assert str(info.value) == (
        "twisted-side attachment is not obstructed (status 'exact'); no separation"
    )


def test_relative_invariant_pair(pipeline):
    digest = certify_distinct(*pipeline)["digest"]
    fact = hfcert.non_extension_fact(digest)
    assert fact["relative_values"] == [{"magnitude": 1, "sign_ambiguous": True}, 0]
    assert "does not extend" in fact["statement"]
    assert "relative values ±1 and 0" in fact["statement"]
    assert fact["derived_from"] == digest


def test_fake_pair_report():
    report = hfcert.fake_pair_report()
    assert "homeomorphic but not diffeomorphic" in report["statement"]
    assert len(report["computations"]) == 2
    names = {a["name"] for a in report["assumptions"]}
    assert "topological-homeomorphism" in names
    assert all(
        a.get("status") == "declared-unverified" for a in report["assumptions"]
    )
