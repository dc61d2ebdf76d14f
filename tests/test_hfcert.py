"""Formal module bookkeeping and the certificate engine."""

import json
import random
from fractions import Fraction

import pytest

from corktwist import fillings, front, hfcert, kirby
from corktwist.hfcert import (
    CertificateAbort,
    End,
    HFError,
    MapRecord,
    RuleNotApplicable,
    SpinCDecoration,
    adjunction_violated,
    certificate_digest,
    certify_distinct,
    compose,
    degree_shift,
    eval_condition,
    hf_s3,
    theta_minus,
    theta_plus,
    validate_certificate,
)


@pytest.fixture
def pipeline(load):
    cork = kirby.parse_kirby(load("mazur.kirby"))
    adm = kirby.check_admissible(cork)
    over_handle = front.parse_front(load("trefoil_handle.front"))
    inflation = kirby.inflate(cork, over_handle, 1)
    palf = fillings.parse_palf(load("mazur_inflated.palf"))
    plan = fillings.extend_with_cobordism(inflation, palf)
    return cork, adm, inflation, plan


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


def test_theta_generators_live_where_the_tower_is():
    assert theta_plus(0).grading == Fraction(0)
    assert theta_plus(4).name == "Θ+(4)"
    assert theta_minus(-2).module == "HF-(S3)"
    for bad in (-2, 1, 3):
        with pytest.raises(HFError):
            theta_plus(bad)
    for bad in (0, -1, -3):
        with pytest.raises(HFError):
            theta_minus(bad)


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


def test_compose_gluing_counts():
    f = MapRecord("f", End("mid"), End("top"))
    g = MapRecord("g", End("bot"), End("mid"))
    assert len(compose(f, g)) == 1
    f2 = MapRecord("f", End("mid", spin_c_gluings=2), End("top"))
    assert len(compose(f2, g)) == 2
    ident = MapRecord("id", End("mid"), End("mid"), identity=True)
    assert compose(f, ident).terms == (f,)
    assert compose(ident, g).terms == (g,)
    with pytest.raises(HFError):
        compose(g, f)


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


def test_eval_condition_language():
    assert eval_condition("1 == 2 - 1") is True
    assert eval_condition("abs(-7) == 7") is True
    assert eval_condition("2 * 3 >= 5") is True
    assert eval_condition("1 / 2 == 2 / 4") is True
    assert eval_condition("5 % 2 == 1") is True
    assert eval_condition("(2 - 2*2) == -2") is True
    assert eval_condition("3 != 3") is False
    assert eval_condition("is_identity([[1,0],[0,1]])") is True
    assert eval_condition("is_identity([[1,1],[0,1]])") is False
    for bad in ("x == 1", "1 ==", "1 + + 2 == 3", "import os", "2 == 2 == 2",
                "is_identity([[1,0]])", "1 % 0 == 0"):
        with pytest.raises(HFError):
            eval_condition(bad)


def test_eval_condition_caps_nesting():
    assert eval_condition("(" * 100 + "1" + ")" * 100 + " == 1") is True
    for deep in ("(" * 1000 + "1" + ")" * 1000, "abs(" * 1000 + "1" + ")" * 1000,
                 "-" * 1000 + "1"):
        with pytest.raises(HFError, match="nests deeper"):
            eval_condition(f"{deep} == 1")
    with pytest.raises(HFError):
        eval_condition("is_identity(" + "[" * 100000 + ")")


def test_validate_survives_documents_too_deep_to_digest():
    steps: list = []
    for _ in range(5000):
        steps = [steps]
    assert validate_certificate({"steps": steps}) == [
        "certificate is nested too deeply to re-check"
    ]


def test_certificate_distinct_and_valid(pipeline):
    cork, adm, inflation, plan = pipeline
    cert = certify_distinct(cork, adm, inflation, plan)
    assert cert.verdict == "DISTINCT"
    assert len(cert.steps) == 10
    doc = cert.to_doc()
    assert validate_certificate(doc) == []
    for step in doc["steps"]:
        for cond in step["side_conditions"]:
            assert cond["value"] is True
    # the registered obstruction string appears verbatim in the outputs
    joined = json.dumps(doc, ensure_ascii=False)
    assert "framing 1 ≠ tb − 1 for exhibited tb ≤ 1" in joined


def test_certificate_digest_is_content_addressed(pipeline):
    cork, adm, inflation, plan = pipeline
    doc1 = certify_distinct(cork, adm, inflation, plan).to_doc()
    doc2 = certify_distinct(cork, adm, inflation, plan).to_doc()
    assert doc1["digest"] == doc2["digest"]
    assert doc1 == doc2


def test_tampering_single_integer_fails(pipeline):
    cork, adm, inflation, plan = pipeline
    blob = json.dumps(certify_distinct(cork, adm, inflation, plan).to_doc())
    assert "195 == 5 * 39" in blob
    bad = json.loads(blob.replace("195 == 5 * 39", "196 == 5 * 39"))
    problems = validate_certificate(bad)
    assert any("digest" in p for p in problems)
    assert any("re-evaluates" in p for p in problems)


def test_tampering_text_only_fails_digest(pipeline):
    cork, adm, inflation, plan = pipeline
    blob = json.dumps(certify_distinct(cork, adm, inflation, plan).to_doc())
    bad = json.loads(blob.replace("verdict: DISTINCT", "verdict: SAME"))
    assert any("digest" in p for p in validate_certificate(bad))


def test_reordered_steps_fail_even_with_fresh_digest(pipeline):
    cork, adm, inflation, plan = pipeline
    doc = certify_distinct(cork, adm, inflation, plan).to_doc()
    doc["steps"] = doc["steps"][::-1]
    doc["digest"] = certificate_digest(doc)
    problems = validate_certificate(doc)
    assert any("earlier output" in p for p in problems)


def test_rewritten_axiom_fails(pipeline):
    cork, adm, inflation, plan = pipeline
    doc = certify_distinct(cork, adm, inflation, plan).to_doc()
    doc["steps"][0]["quote"] = "trust me"
    doc["digest"] = certificate_digest(doc)
    assert any("axiom" in p for p in validate_certificate(doc))


def test_abort_on_wrong_framing(pipeline, load):
    cork, adm, _, plan = pipeline
    over_handle = front.parse_front(load("trefoil_handle.front"))
    low = kirby.inflate(cork, over_handle, 0)
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(cork, adm, low, plan)
    assert str(info.value) == "untwisted Stein check wants framing = tb − 1 = 1"
    assert info.value.condition == {"expr": "0 == 2 - 1", "value": False}


def test_abort_on_unknot_inflation(pipeline, load):
    cork, adm, _, plan = pipeline
    unknot = front.parse_front(load("lens.front"))
    record = kirby.inflate(cork, unknot, -2)  # exact: tb -1, framing tb - 1
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(cork, adm, record, plan)
    assert "adjunction rule not applicable" in str(info.value)


def test_abort_on_inadmissible_cork(pipeline, load):
    _, _, inflation, plan = pipeline
    hopf = kirby.parse_kirby(load("hopf.kirby"))
    with pytest.raises(CertificateAbort) as info:
        certify_distinct(hopf, kirby.check_admissible(hopf), inflation, plan)
    assert "admissibility" in str(info.value)


def test_abort_on_plan_without_absorption(pipeline, load):
    cork, adm, inflation, _ = pipeline
    plain = fillings.build_concave(
        fillings.palf_to_openbook(fillings.parse_palf(load("mazur.palf")))
    )
    with pytest.raises(CertificateAbort):
        certify_distinct(cork, adm, inflation, plain)


def test_explicit_twisted_record(pipeline, load):
    cork, adm, inflation, plan = pipeline
    twisted_rec = kirby.inflate(
        kirby.cork_twist(cork), front.parse_front(load("trefoil.front")), 1
    )
    cert = certify_distinct(cork, adm, inflation, plan, twisted=twisted_rec)
    assert cert.verdict == "DISTINCT"
    assert validate_certificate(cert.to_doc()) == []


def test_relative_invariant_pair(pipeline):
    cork, adm, inflation, plan = pipeline
    cert = certify_distinct(cork, adm, inflation, plan)
    first, second = hfcert.relative_invariant(cert)
    assert str(first) == "±1"
    assert first.magnitude == 1 and first.sign_ambiguous
    assert second == 0
    fact = hfcert.non_extension_fact(cert)
    assert "does not extend" in fact["statement"]
    assert fact["derived_from"] == cert.to_doc()["digest"]


def test_fake_pair_report(pipeline):
    *_, plan = pipeline
    report = hfcert.fake_pair_report(plan)
    assert "homeomorphic but not diffeomorphic" in report["statement"]
    assert len(report["computations"]) == 2
    names = {a["name"] for a in report["assumptions"]}
    assert "topological-homeomorphism" in names
    assert all(
        a.get("status") == "declared-unverified" for a in report["assumptions"]
    )


def test_graded_module_validation():
    hfcert.GradedModule("M", ((Fraction(0), 1),))
    with pytest.raises(HFError):
        hfcert.GradedModule("M", ((Fraction(0), 2),))
    with pytest.raises(HFError):
        hfcert.GradedModule(
            "M", (), finite_parts=((Fraction(0), kirby.AbelianGroup(1)),)
        )
