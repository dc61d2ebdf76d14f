"""Command-line interface: exit codes, output formats, the certify bundle."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corktwist import cli, hfcert, kirby, mcg


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_tb_values_and_breakdown(fixtures):
    code, out, _ = run(["tb", str(fixtures / "trefoil.front")])
    assert code == 0
    assert "tb = 1" in out

    code, out, _ = run(["tb", str(fixtures / "lens.front")])
    assert code == 0
    assert "tb = -1" in out
    assert out.count("cusp at") == 2

    code, out, _ = run(
        ["tb", str(fixtures / "trefoil_handle.front"), "--component", "K"]
    )
    assert code == 0
    assert "tb = 2" in out
    assert "handle passes 2" in out


def test_tb_doc_format(fixtures):
    code, out, _ = run(["tb", str(fixtures / "trefoil.front"), "--format", "doc"])
    assert code == 0
    doc = json.loads(out)
    assert doc["tb"] == 1
    assert len(doc["crossings"]) == 3
    assert all(c["sign"] == 1 for c in doc["crossings"])


def test_tb_input_errors(fixtures, tmp_path):
    bad = tmp_path / "bad.front"
    bad.write_text("arc K : (0,0)\n")
    code, _, err = run(["tb", str(bad)])
    assert code == 2
    assert "error:" in err

    code, _, _ = run(["tb", str(tmp_path / "nope.front")])
    assert code == 2

    code, _, _ = run(["tb", str(fixtures / "trefoil.front"), "--component", "Z"])
    assert code == 2


def test_admissible_exit_codes(fixtures):
    code, out, _ = run(["admissible", str(fixtures / "mazur.kirby")])
    assert code == 0
    assert "verdict: admissible" in out
    assert "seed 0" in out

    code, out, _ = run(["admissible", str(fixtures / "hopf.kirby")])
    assert code == 1
    assert "verdict: not admissible" in out

    # with no search budget the knot check cannot conclude anything
    code, _, _ = run(
        ["admissible", str(fixtures / "knotted.kirby"), "--budget", "0"]
    )
    assert code == 3

    code, _, _ = run(
        ["admissible", str(fixtures / "mazur.kirby"), "--budget", "-1"]
    )
    assert code == 2


def test_admissible_doc(fixtures):
    code, out, _ = run(
        ["admissible", str(fixtures / "mazur.kirby"), "--format", "doc"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "admissible"
    assert doc["seed"] == 0
    assert doc["budget"] == 2000


def test_homology(fixtures):
    code, out, _ = run(["homology", str(fixtures / "mazur.kirby")])
    assert code == 0
    assert "homology sphere boundary: True" in out
    code, _, _ = run(["homology", str(fixtures / "hopf.kirby"), "--format", "doc"])
    assert code == 0


def test_twist_output_round_trips(fixtures, load):
    code, out, _ = run(["twist", str(fixtures / "mazur.kirby")])
    assert code == 0
    once = kirby.parse_kirby(out)
    twice = kirby.cork_twist(once)
    orig = kirby.parse_kirby(load("mazur.kirby"))
    assert twice.dots == orig.dots
    assert twice.frames == orig.frames


def test_twist_without_involution_aborts(tmp_path):
    noinv = tmp_path / "noinv.kirby"
    noinv.write_text(
        "arc K1 : (0,0) (4,2) (7,-3) (8,3) (7,3) (4,-2) (0,0)\n"
        "arc K2 : (12,0) (8,-2) (5,3) (4,-3) (5,-3) (8,2) (12,0)\n"
        "orient K1 +\norient K2 +\ndot K1\nframe K2 0\n"
    )
    code, _, err = run(["twist", str(noinv)])
    assert code == 1
    assert "aborted" in err


def test_fill(fixtures):
    code, out, _ = run(["fill", str(fixtures / "mazur.palf")])
    assert code == 0
    assert "trivializing handles 156" in out
    code, out, _ = run(["fill", str(fixtures / "mazur.palf"), "--format", "doc"])
    assert json.loads(out)["euler_char"] == 155


def test_mcg_verify_chain():
    for g in (1, 2):
        code, out, _ = run(["mcg", "verify-chain", str(g)])
        assert code == 0
        assert "acts trivially" in out
    code, _, _ = run(["mcg", "verify-chain", "--genus", "1"])
    assert code == 0
    code, _, _ = run(["mcg", "verify-chain"])
    assert code == 2
    code, _, _ = run(["mcg", "verify-chain", "0"])
    assert code == 2


@pytest.fixture
def certify_argv(fixtures):
    return [
        "certify",
        str(fixtures / "mazur.kirby"),
        str(fixtures / "mazur_inflated.palf"),
        str(fixtures / "trefoil_inflation.spec"),
    ]


def test_certify_bundle(certify_argv, tmp_path):
    cert_path = tmp_path / "cert.json"
    t0 = time.time()
    code, out, err = run(
        certify_argv + ["--format", "doc", "--out", str(cert_path)]
    )
    elapsed = time.time() - t0
    assert code == 0, err
    assert elapsed < 5.0
    bundle = json.loads(out)
    assert bundle["certificate"]["verdict"] == "DISTINCT"
    assert bundle["relative_invariant"]["first"]["magnitude"] == 1
    assert bundle["relative_invariant"]["first"]["sign_ambiguous"] is True
    assert bundle["relative_invariant"]["second"] == 0
    assert "does not extend" in bundle["non_extension"]["statement"]
    assert (
        "homeomorphic but not diffeomorphic" in bundle["fake_pair"]["statement"]
    )
    assert cert_path.exists()

    code2, out2, _ = run(certify_argv + ["--format", "doc"])
    assert code2 == 0
    assert out2 == out, "doc output must be byte-identical across runs"


def test_certify_human_output(certify_argv):
    code, out, _ = run(certify_argv)
    assert code == 0
    for axiom in hfcert.AXIOMS.values():
        assert axiom in out
    assert "relative invariant: (±1, 0)" in out
    assert "framing 1 ≠ tb − 1 for exhibited tb ≤ 1" in out


def test_certify_zero_budget_is_inconclusive(certify_argv):
    code, out, err = run(certify_argv + ["--budget", "0"])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1


def test_certify_does_each_computation_once(certify_argv, monkeypatch):
    searches, actions = [], []
    check_admissible, h1_action = kirby.check_admissible, mcg.h1_action

    def counted_search(d, budget=2000, seed=0):
        searches.append((budget, seed))
        return check_admissible(d, budget=budget, seed=seed)

    def counted_action(word):
        actions.append(len(word))
        return h1_action(word)

    monkeypatch.setattr(kirby, "check_admissible", counted_search)
    monkeypatch.setattr(mcg, "h1_action", counted_action)
    code, _, err = run(certify_argv)
    assert code == 0, err
    assert searches == [(2000, 0)]
    assert len(actions) == 1


def test_certify_inadmissible_cork_reports_no_fake_pair(fixtures):
    code, out, err = run([
        "certify",
        str(fixtures / "hopf.kirby"),
        str(fixtures / "mazur_inflated.palf"),
        str(fixtures / "trefoil_inflation.spec"),
        "--format", "doc",
    ])
    assert code == 1
    assert "fake_pair" not in out
    assert "cork admissibility failed" in err


def test_certify_validate_round_trip(certify_argv, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(certify_argv + ["--out", str(cert_path)])
    assert code == 0

    code, out, _ = run(["certify", "--validate", str(cert_path)])
    assert code == 0
    assert "certificate valid" in out

    blob = cert_path.read_text()
    assert "195 == 5 * 39" in blob
    bad = tmp_path / "cert_bad.json"
    bad.write_text(blob.replace("195 == 5 * 39", "194 == 5 * 39"))
    code, out, _ = run(["certify", "--validate", str(bad)])
    assert code == 1
    assert "invalid:" in out


def test_certify_abort_prints_side_condition(fixtures, tmp_path):
    badspec = tmp_path / "bad_inflation.spec"
    badspec.write_text(
        "knot right_trefoil\nframing 0\n"
        f"untwisted {fixtures / 'trefoil_handle.front'} K\n"
        f"twisted {fixtures / 'trefoil.front'} K\n"
    )
    code, _, err = run([
        "certify",
        str(fixtures / "mazur.kirby"),
        str(fixtures / "mazur_inflated.palf"),
        str(badspec),
    ])
    assert code == 1
    assert "untwisted Stein check wants framing = tb − 1 = 1" in err
    assert "failing side condition: 0 == 2 - 1 is False" in err


def test_certify_input_errors(fixtures, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, _, _ = run(["certify", "--validate", str(garbage)])
    assert code == 2

    code, _, _ = run(["certify", str(fixtures / "mazur.kirby")])
    assert code == 2

    code, _, _ = run(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("text", [
    "{",                                       # malformed JSON
    '{"dots": []}',                            # no "front"
    "[" * 100000,                              # not JSON, not a diagram either
    '{"a": ' * 100000,                         # JSON nested past the recursion limit
    '{"front": {"arcs": 1}}',                  # ill-typed arcs
], ids=["malformed", "no-front", "brackets", "deep", "arcs"])
def test_bad_kirby_document_exits_2(tmp_path, text):
    path = tmp_path / "bad.kirby"
    path.write_text(text)
    code, out, err = run(["homology", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "{",                                       # malformed JSON
    '{"arcs": [{"component": "K"}]}',          # arc with no "points"
    '{"arcs": 5}',                             # ill-typed arcs
    "[" * 100000,                              # not JSON, not a front either
    '{"arcs": ' + "[" * 100000,                # JSON nested past the recursion limit
], ids=["malformed", "no-points", "arcs", "brackets", "deep"])
@pytest.mark.parametrize("via", ["tb", "certify-spec"])
def test_bad_front_document_exits_2(fixtures, tmp_path, text, via):
    path = tmp_path / "bad.front"
    path.write_text(text)
    argv = ["tb", str(path)]
    if via == "certify-spec":
        spec = tmp_path / "bad_inflation.spec"
        spec.write_text(
            "knot right_trefoil\nframing 1\n"
            f"untwisted {path} K\n"
            f"twisted {fixtures / 'trefoil.front'} K\n"
        )
        argv = [
            "certify",
            str(fixtures / "mazur.kirby"),
            str(fixtures / "mazur_inflated.palf"),
            str(spec),
        ]
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("handles,reason", [
    ("1 2", "euler characteristic"),  # 1 - 1 + 2 = 2, but (1 - 4) + 4 = 1
    ("-1 0", "negative handle count"),
], ids=["mismatch", "negative"])
@pytest.mark.parametrize("via", ["fill", "certify"])
def test_inconsistent_handles_line_exits_2(fixtures, tmp_path, handles, reason, via):
    path = tmp_path / "bad.palf"
    path.write_text(f"genus 2\nhandles {handles}\nword T(c1) T(c2) T(c3) T(c4)\n")
    argv = ["fill", str(path)]
    if via == "certify":
        argv = [
            "certify",
            str(fixtures / "mazur.kirby"),
            str(path),
            str(fixtures / "trefoil_inflation.spec"),
        ]
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("frames", []), ("frames", {"K2": "zero"}), ("involution", {"components": ["K1"]}),
])
def test_ill_typed_kirby_field_exits_2(fixtures, tmp_path, field, value):
    doc = kirby.kirby_to_doc(kirby.parse_kirby((fixtures / "mazur.kirby").read_text()))
    doc[field] = value
    path = tmp_path / "bad.kirby"
    path.write_text(json.dumps(doc))
    code, out, err = run(["homology", str(path)])
    assert code == 2
    assert out == ""
    assert "diagram document has an ill-typed field" in err


@pytest.mark.parametrize("doc", [
    {"steps": [1]},
    {"steps": [{"rule": "cork_admissible", "side_conditions": 5}]},
    {"steps": [{"rule": "cork_admissible", "side_conditions": [1]}]},
    {"steps": [{"rule": "cork_admissible", "side_conditions": [{"expr": ["1 == 1"]}]}]},
    {"steps": [{"rule": "cork_admissible", "inputs": [1]}]},
    {"steps": [{"rule": "cork_admissible", "outputs": [["verdict: DISTINCT"]]}]},
    {"steps": [{"rule": ["cork_admissible"]}], "assumptions": [{"name": []}]},
], ids=["step", "conditions", "condition", "expr", "inputs", "outputs", "rule"])
def test_validate_rejects_ill_typed_certificate(tmp_path, doc):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["certify", "--validate", str(path)])
    assert code == 1
    assert out.startswith("invalid:")
    assert err == ""


def test_validate_reports_deeply_nested_condition(tmp_path):
    deep = "(" * 1000 + "1" + ")" * 1000
    doc = {"steps": [{"rule": "cork_admissible", "side_conditions": [
        {"expr": f"{deep} == 1", "value": True}]}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["certify", "--validate", str(path)])
    assert code == 1
    assert "unreadable condition" in out
    assert err == ""


def test_validate_deeply_nested_json_exits_2(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("[" * 200000)
    code, out, err = run(["certify", "--validate", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_module_entry_point_runs_without_runpy_warning():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "corktwist.cli", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "usage:" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
