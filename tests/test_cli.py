"""Command-line interface: exit codes, output formats, the certify bundle."""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from corktwist import cli, fillings, front, hfcert, kirby, mcg, moves


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


def test_admissible_past_the_search_limit_exits_3(fixtures, monkeypatch):
    """A cork whose components have more self-crossings than a search may
    start from is inconclusive (exit 3), never "not admissible"; mazur.kirby's
    components have one each, so a limit of 0 is one below."""
    monkeypatch.setattr(moves, "MAX_SEARCH_CROSSINGS", 0)
    code, out, _ = run(["admissible", str(fixtures / "mazur.kirby"), "--format", "doc"])
    assert code == 3
    report = json.loads(out)["report"]
    assert report["verdict"] == "inconclusive"
    assert set(report["cond1"].values()) == {"inconclusive"}
    for cert in report["cond1_evidence"].values():
        assert (cert["verdict"], cert["expanded"], cert["self_crossings"]) == ("inconclusive", 0, 1)
        assert cert["note"] == "self-crossing count 1 exceeds the 0 a search may start from"


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


@pytest.mark.parametrize("name", ["mazur.kirby", "knotted.kirby", "hopf.kirby"])
def test_kirby_reports_are_the_printed_documents(fixtures, load, name):
    d = kirby.parse_kirby(load(name))
    _, out, _ = run(["admissible", str(fixtures / name), "--format", "doc"])
    assert kirby.check_admissible(d) == json.loads(out)["report"]
    _, out, _ = run(["homology", str(fixtures / name), "--format", "doc"])
    assert kirby.homology(d) == json.loads(out)


@pytest.mark.parametrize("spelling", ["text", "json"])
def test_twist_output_round_trips(fixtures, load, tmp_path, spelling):
    """The printed twist reads back, and twisting it again gives the diagram back."""
    orig = kirby.parse_kirby(load("mazur.kirby"))
    path = fixtures / "mazur.kirby"
    if spelling == "json":
        path = tmp_path / "mazur.json"
        path.write_text(json.dumps(kirby.kirby_to_doc(orig)))
    code, out, _ = run(["twist", str(path)])
    assert code == 0
    once = tmp_path / "once.kirby"
    once.write_text(out)
    code, out, _ = run(["twist", str(once)])
    assert code == 0
    twice = kirby.parse_kirby(out)
    assert twice.dots == orig.dots == ("K1",)
    assert twice.frames == orig.frames == (("K2", 0),)
    assert twice.front.arcs == orig.front.arcs


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


def test_mcg_verify_chain_checks_each_genus_once_per_process(monkeypatch):
    blocks, h1_action = [], mcg.h1_action

    def counted_action(word):
        blocks.append(len(word))
        return h1_action(word)

    monkeypatch.setattr(mcg, "h1_action", counted_action)
    outs = [run(["mcg", "verify-chain", "3"]) for _ in range(2)]
    assert outs[0] == outs[1]
    assert outs[0][1] == "genus 3: the 14-th power of the chain twist word acts trivially on H1\n"
    assert blocks == [6]
    mcg.verify_chain_relation.cache_clear()
    assert run(["mcg", "verify-chain", "3"]) == outs[0]
    assert blocks == [6, 6]


def test_genus_above_the_limit_exits_2_before_any_allocation(tmp_path, monkeypatch):
    # chain_curves would allocate O(g^2) ints; the limit must refuse the
    # genus before it is ever called
    def no_chain(g):
        raise AssertionError(f"chain_curves({g}) called past the genus limit")

    palf = tmp_path / "huge.palf"
    palf.write_text(f"genus {mcg.MAX_GENUS + 1}\nword T(c1)\n")
    monkeypatch.setattr(mcg, "chain_curves", no_chain)
    for argv in (["mcg", "verify-chain", str(mcg.MAX_GENUS + 1)],
                 ["mcg", "verify-chain", "--genus", str(mcg.MAX_GENUS + 1)],
                 ["fill", str(palf)]):
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and f"between 1 and {mcg.MAX_GENUS}" in err
        assert len(err.splitlines()) == 1


def test_genus_at_the_limit_is_accepted(tmp_path):
    assert mcg.MAX_GENUS == 64
    palf = tmp_path / "top.palf"
    palf.write_text(f"genus {mcg.MAX_GENUS}\nword T(c1)\n")
    assert fillings.parse_palf(palf.read_text()).page_genus == mcg.MAX_GENUS


def test_fill_doc_states_each_relator_block_once(tmp_path):
    # a block is its letter and 2g chain images, not its 2g(4g+2) - 1
    # letters: at genus 16 the doc of two blocks is tens of KB, where the
    # letter expansion, 2 * 2,111 letters of 32 entries each, took 2.1 MB
    palf = tmp_path / "g16.palf"
    palf.write_text("genus 16\nword T(c1) T(c2)\n")
    code, out, _ = run(["fill", str(palf), "--format", "doc"])
    assert code == 0
    handles = json.loads(out)["trivializing_handles"]
    assert handles["count"] == 2 * 2111
    assert [len(b["chain_images"]) for b in handles["blocks"]] == [32, 32]
    assert len(out.encode()) < 100_000


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_1_with_nothing_on_stderr(fixtures, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe(fd)), contextlib.redirect_stderr(err):
            code = cli.main(["fill", str(fixtures / "mazur.palf"), "--format", "doc"])
        assert code == 1
        assert err.getvalue() == ""
        # stdout now points at devnull, so a flush at exit has nowhere to fail
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_reader_closing_the_pipe_early_ends_quietly(tmp_path):
    # `fill g64.palf --format doc | head -c 100`: the doc, about 250 KB, is
    # larger than a pipe buffer, so the write fails once the reader is gone
    palf = tmp_path / "g64.palf"
    palf.write_text("genus 64\nword T(c1)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "corktwist.cli", "fill", str(palf), "--format", "doc"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert len(head) == 100
    assert code == 1
    assert err == b""


def _sawtooth(segments, comp="K"):
    """Arcs of a closed unknot with `segments` segments: a rising sawtooth and a
    two-segment return below it, no crossings, two cusps."""
    n = segments - 2
    teeth = [(i, i % 2) for i in range(n + 1)]
    back = [(n, n % 2), (n // 2, -5), (0, 0)]
    return [(comp, teeth), (comp, back)]


def _front_text(arcs, prefix=""):
    return "".join(f"{prefix}arc {c} : " + " ".join(f"({x},{y})" for x, y in pts) + "\n"
                   for c, pts in arcs)


def _front_json(arcs):
    return {"arcs": [{"component": c, "points": [list(p) for p in pts]} for c, pts in arcs]}


LENS = [("L", [(0, 0), (4, 2), (8, 0)]), ("L", [(8, 0), (4, -2), (0, 0)])]


@pytest.mark.parametrize("site", ["front", "front-json", "kirby", "kirby-stein",
                                  "kirby-json", "kirby-json-stein"])
def test_segment_count_above_the_limit_exits_2_before_the_sweep(tmp_path, monkeypatch, site):
    def no_sweep(ints, joined):
        raise AssertionError(f"swept {len(ints)} segments past the segment limit")

    big = _sawtooth(front.MAX_SEGMENTS + 1)
    if site == "front":
        text, argv = _front_text(big), ["tb"]
    elif site == "front-json":
        text, argv = json.dumps(_front_json(big)), ["tb"]
    elif site == "kirby":
        text, argv = _front_text(big) + "dot K\n", ["homology"]
    elif site == "kirby-stein":
        text = (_front_text(LENS) + "dot L\n" + _front_text(big, "stein ")
                + "stein component K\n")
        argv = ["homology"]
    elif site == "kirby-json":
        text, argv = json.dumps({"front": _front_json(big), "dots": ["K"]}), ["homology"]
    else:
        text = json.dumps({"front": _front_json(LENS), "dots": ["L"],
                           "stein": {"front": _front_json(big), "component": "K"}})
        argv = ["homology"]
    path = tmp_path / "big"
    path.write_text(text)
    monkeypatch.setattr(front, "_meeting_pairs", no_sweep)
    code, out, err = run(argv + [str(path)])
    assert code == 2, site
    assert out == ""
    assert err.startswith("error:") and f"at most {front.MAX_SEGMENTS} segments" in err
    assert len(err.splitlines()) == 1


def test_segment_count_at_the_limit_is_accepted():
    assert front.MAX_SEGMENTS == 4096
    d = front.parse_front(_front_text(_sawtooth(front.MAX_SEGMENTS)))
    assert sum(len(a.points) - 1 for a in d.arcs) == front.MAX_SEGMENTS
    assert (d.tb("K"), d.crossings()) == (-1, ())


@pytest.mark.parametrize("spelling", ["text", "json", "ordered"])
def test_crossing_count_above_the_limit_exits_2_before_any_pair_is_classified(
        fixtures, tmp_path, monkeypatch, spelling):
    # the limit is lowered to a front's crossing count, not a big front built:
    # the trefoil front has 3 crossings, and LHP(64), whose 261 segments
    # select the ordered sweep, has 191
    path, argv, crossings, tb = fixtures / "trefoil.front", ["tb"], 3, "tb = 1"
    if spelling == "json":
        path = tmp_path / "trefoil.json"
        path.write_text(json.dumps(front.front_to_doc(front.parse_front(
            (fixtures / "trefoil.front").read_text()))))
    elif spelling == "ordered":
        d = kirby.linked_handle_pair(64).front
        path = tmp_path / "lhp64.front"
        path.write_text(front.front_to_text(d))
        argv, crossings, tb = ["tb", "--component", "K2"], 191, "tb = -127"

        def no_window(ints, joined):
            raise AssertionError(f"window scan over {len(ints)} segments")

        monkeypatch.setattr(front, "_window_pairs", no_window)
    monkeypatch.setattr(front, "MAX_CROSSINGS", crossings)
    code, out, _ = run(argv + [str(path)])
    assert code == 0 and tb in out

    def no_classifying(a, b):
        raise AssertionError("classified a segment pair past the crossing limit")

    monkeypatch.setattr(front, "MAX_CROSSINGS", crossings - 1)
    monkeypatch.setattr(front, "_seg_meet", no_classifying)
    code, out, err = run(argv + [str(path)])
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: too many crossings: "
                   f"a front has at most {crossings - 1} crossings\n")


def test_genus_flag_belongs_to_mcg_only(fixtures):
    code, out, err = run(["fill", str(fixtures / "mazur.palf"), "--genus", "5"])
    assert code == 2
    assert out == ""
    assert "--genus" in err
    code, _, _ = run(["mcg", "verify-chain", "--genus", "1"])
    assert code == 0


def test_mcg_rejects_two_different_genera():
    code, out, err = run(["mcg", "verify-chain", "2", "--genus", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, out, _ = run(["mcg", "verify-chain", "2", "--genus", "2"])
    assert code == 0
    assert "genus 2:" in out


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
    searches, actions, trivializations, involutions, homologies = [], [], [], [], []
    check_admissible, h1_action = kirby.check_admissible, mcg.h1_action
    trivialize, involution_verified = mcg.trivialize, kirby.involution_verified
    homology = kirby.homology

    def counted_search(d, budget=2000, seed=0):
        searches.append((budget, seed))
        return check_admissible(d, budget=budget, seed=seed)

    def counted_action(word):
        actions.append(len(word))
        return h1_action(word)

    def counted_trivialize(word):
        trivializations.append(len(word))
        return trivialize(word)

    def counted_involution(d):
        involutions.append(d)
        return involution_verified(d)

    def counted_homology(d):
        homologies.append(d)
        return homology(d)

    monkeypatch.setattr(kirby, "check_admissible", counted_search)
    monkeypatch.setattr(mcg, "h1_action", counted_action)
    monkeypatch.setattr(mcg, "trivialize", counted_trivialize)
    monkeypatch.setattr(kirby, "involution_verified", counted_involution)
    monkeypatch.setattr(kirby, "homology", counted_homology)
    code, _, err = run(certify_argv)
    assert code == 0, err
    assert searches == [(2000, 0)]
    # one plan on the genus-2 page of mazur_inflated.palf: only the chain
    # block c1..c4, for the chain relation at genus 2; no letter of the
    # 5 * 39 trivializing letters or of the monodromy is applied.  The
    # certificate's word_trivial_on_h1 check reads the verdict the plan
    # computed.
    assert actions == [4]
    assert trivializations == [5]
    assert len(involutions) == 1
    # step 5 reads the linking matrix's determinant, not the homology report
    assert homologies == []


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


def test_certify_cork_without_involution_fails_admissibility(certify_argv, tmp_path):
    text = Path(certify_argv[1]).read_text()
    noinv = tmp_path / "noinv.kirby"
    noinv.write_text("".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("involution")
    ))
    code, out, err = run(["certify", str(noinv)] + certify_argv[2:])
    assert code == 1
    assert out == ""
    assert "cork admissibility failed: verdict 'not admissible'" in err


# readable corks that kirby.check_admissible refuses: the edit to mazur.kirby
# and the refusal's words
REFUSED_CORKS = {
    "framing": (("frame K2 0\n", "frame K2 1\n"),
                "the framed component must carry framing 0, got 1"),
    "decorations": (("frame K2 0\n", "dot K2\n"),
                    "admissibility needs one dotted and one framed component"),
    "components": (("dot K1\n", "arc L : (30,0) (34,2) (38,0)\n"
                                 "arc L : (38,0) (34,-2) (30,0)\nframe L 0\ndot K1\n"),
                   "admissibility needs exactly 2 components, got 3"),
}


@pytest.mark.parametrize("command", ["admissible", "certify"])
@pytest.mark.parametrize("refusal", sorted(REFUSED_CORKS))
def test_refused_cork_aborts_with_one_line(certify_argv, tmp_path, refusal, command):
    (old, new), reason = REFUSED_CORKS[refusal]
    text = Path(certify_argv[1]).read_text()
    assert old in text
    cork = tmp_path / "refused.kirby"
    cork.write_text(text.replace(old, new))
    code, out, err = run([command, str(cork)] + certify_argv[2:] * (command == "certify"))
    prefix = "admissibility" if command == "admissible" else "certification"
    assert (code, out, err) == (1, "", f"{prefix} aborted: {reason}\n")


def test_certify_validate_round_trip(certify_argv, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(certify_argv + ["--out", str(cert_path)])
    assert code == 0

    code, out, _ = run(["certify", "--validate", str(cert_path)])
    assert code == 0
    assert "certificate valid" in out

    blob = cert_path.read_text()
    assert '"handles": 195' in blob
    bad = tmp_path / "cert_bad.json"
    bad.write_text(blob.replace('"handles": 195', '"handles": 194'))
    code, out, _ = run(["certify", "--validate", str(bad)])
    assert code == 1
    assert "invalid: step 3 (concave_filling_plan): check plan_euler_characteristic fails" in out


@pytest.mark.parametrize("tamper", ["none", "integer", "not-a-mapping"])
def test_certify_validate_doc_format(certify_argv, tmp_path, tamper):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(certify_argv + ["--out", str(cert_path)])
    assert code == 0
    if tamper == "integer":
        cert_path.write_text(cert_path.read_text().replace('"handles": 195', '"handles": 194'))
    elif tamper == "not-a-mapping":
        cert_path.write_text("[1]")
    code, out, err = run(["certify", "--validate", str(cert_path), "--format", "doc"])
    assert err == ""
    doc = json.loads(out)
    assert sorted(doc) == ["problems", "steps", "valid", "verdict"]
    if tamper == "none":
        assert code == 0
        assert doc == {"problems": [], "steps": 10, "valid": True, "verdict": "DISTINCT"}
    elif tamper == "integer":
        assert code == 1
        assert doc["valid"] is False and doc["problems"]
        assert (doc["steps"], doc["verdict"]) == (10, "DISTINCT")
    else:
        assert code == 1
        assert doc == {"problems": ["certificate is not a mapping"], "steps": 0,
                       "valid": False, "verdict": None}


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
    assert "failing check: contact_framing(framing=0, tb=2)" in err


def test_certify_empty_word_aborts_on_its_check(fixtures, tmp_path):
    # a word with no letters gives word_trivial_on_h1 nothing to replay, so no
    # certificate may record it
    palf = tmp_path / "empty.palf"
    palf.write_text("genus 2\nword\n")
    code, out, err = run([
        "certify", str(fixtures / "mazur.kirby"), str(palf),
        str(fixtures / "trefoil_inflation.spec"),
    ])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "certification aborted: the monodromy has no letters",
        "failing check: word_trivial_on_h1(genus=2, monodromy=[])",
    ]


def test_certify_input_errors(fixtures, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, _, _ = run(["certify", "--validate", str(garbage)])
    assert code == 2

    code, _, _ = run(["certify", str(fixtures / "mazur.kirby")])
    assert code == 2

    code, _, _ = run(["frobnicate"])
    assert code == 2


def _spec_over(tmp_path, untwisted, twisted, framing=1):
    """An inflation spec in tmp_path attaching along the fronts at the two paths."""
    spec = tmp_path / "over.spec"
    spec.write_text(f"knot right_trefoil\nframing {framing}\nuntwisted {untwisted} K\n"
                    f"twisted {twisted} K\n")
    return spec


@pytest.mark.parametrize("site", ["tb", "fill", "admissible", "validate", "untwisted", "twisted"])
def test_undecodable_input_exits_2(fixtures, tmp_path, site):
    bad = tmp_path / "bad.front"
    bad.write_bytes(b"\xff\xfe")
    decode = ("cannot read {}: 'utf-8' codec can't decode byte 0xff in position 0: "
              "invalid start byte")
    if site in ("untwisted", "twisted"):
        fronts = {"untwisted": fixtures / "trefoil_handle.front",
                  "twisted": fixtures / "trefoil.front", site: bad}
        spec = _spec_over(tmp_path, **fronts)
        argv = ["certify", str(fixtures / "mazur.kirby"), str(fixtures / "mazur_inflated.palf"),
                str(spec)]
        line = 3 if site == "untwisted" else 4
        want = f"error: {spec}: line {line}: {decode.format(bad)}\n"
    else:
        argv = ["certify", "--validate", str(bad)] if site == "validate" else [site, str(bad)]
        want = f"error: {decode.format(bad)}\n"
    assert run(argv) == (2, "", want)


def test_missing_input_keeps_its_os_error_text(fixtures, tmp_path):
    missing = tmp_path / "missing.front"
    assert run(["tb", str(missing)]) == (
        2, "", f"error: cannot read {missing}: No such file or directory\n")
    spec = _spec_over(tmp_path, missing, fixtures / "trefoil.front")
    argv = ["certify", str(fixtures / "mazur.kirby"), str(fixtures / "mazur_inflated.palf"),
            str(spec)]
    assert run(argv) == (2, "", f"error: {spec}: line 3: cannot read {missing}: "
                                "No such file or directory\n")


def test_spec_front_path_with_a_nul_exits_2(fixtures, tmp_path):
    # a path no file can have: open() raises ValueError, not OSError
    nul = tmp_path / "a\0b.front"
    spec = _spec_over(tmp_path, nul, fixtures / "trefoil.front")
    argv = ["certify", str(fixtures / "mazur.kirby"), str(fixtures / "mazur_inflated.palf"),
            str(spec)]
    assert run(argv) == (2, "", f"error: {spec}: line 3: cannot read {nul}: embedded null byte\n")


@pytest.mark.parametrize("target, reason", [
    ("nowhere/cert.json", os.strerror(errno.ENOENT)),
    ("", os.strerror(errno.EISDIR)),
    # a path no file can have: open() raises ValueError, not OSError; only a
    # caller in process can pass one, since an argv string cannot hold a NUL
    ("a\0b.json", "embedded null byte"),
], ids=["missing-directory", "directory", "nul-byte"])
def test_certify_out_that_cannot_be_written_exits_2(certify_argv, tmp_path, target, reason):
    out_path = tmp_path / target if target else tmp_path
    assert run([*certify_argv, "--out", str(out_path)]) == (
        2, "", f"error: cannot write {out_path}: {reason}\n")


def test_certify_inadmissible_cork_aborts_at_step_one_first(fixtures, tmp_path):
    # hopf.kirby is not admissible and the spec's framing is not tb - 1: the
    # deduction checks the cork (step 1) before the attachment (step 2)
    spec = _spec_over(tmp_path, fixtures / "trefoil_handle.front", fixtures / "trefoil.front",
                      framing=0)
    argv = ["certify", str(fixtures / "hopf.kirby"), str(fixtures / "mazur_inflated.palf"),
            str(spec)]
    assert run(argv) == (
        1, "", "certification aborted: cork admissibility failed: verdict 'not admissible'\n")


@pytest.mark.parametrize("extra", ["inputs", "out"])
def test_certify_validate_rejects_options_it_would_ignore(certify_argv, tmp_path, extra):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(certify_argv + ["--out", str(cert_path)])
    assert code == 0
    argv = ["certify", "--validate", str(cert_path)]
    argv += certify_argv[1:] if extra == "inputs" else ["--out", str(tmp_path / "again.json")]
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not (tmp_path / "again.json").exists()


@pytest.mark.parametrize("flag", [["--budget", "5"], ["--seed", "3"], ["--budget", "2000"]],
                         ids=["budget", "seed", "default-budget"])
def test_certify_validate_rejects_search_flags(certify_argv, tmp_path, flag):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(certify_argv + ["--out", str(cert_path)])
    assert code == 0
    code, out, err = run(["certify", "--validate", str(cert_path)] + flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("flag", [["--budget", "5"], ["--seed", "1"]], ids=["budget", "seed"])
@pytest.mark.parametrize("argv", [
    ["tb", "trefoil.front"],
    ["homology", "mazur.kirby"],
    ["twist", "mazur.kirby"],
    ["fill", "mazur.palf"],
    ["mcg", "verify-chain", "2"],
], ids=lambda argv: argv[0])
def test_search_flags_belong_to_search_commands_only(fixtures, argv, flag):
    resolved = [str(fixtures / a) if "." in a else a for a in argv]
    code, out, err = run(resolved + flag)
    assert code == 2
    assert out == ""
    assert flag[0] in err


def test_admissible_records_the_given_seed(fixtures):
    code, out, _ = run(
        ["admissible", str(fixtures / "mazur.kirby"), "--seed", "7", "--format", "doc"]
    )
    assert code == 0
    assert json.loads(out)["seed"] == 7


MAZUR_TEXT = (Path(kirby.__file__).parent / "fixtures" / "mazur.kirby").read_text()
MAZUR_JSON = json.dumps(kirby.kirby_to_doc(kirby.parse_kirby(MAZUR_TEXT)))


def _edited(text, edit):
    """The JSON document text with edit applied to its parsed value."""
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _extra_key(*path):
    """An edit that adds an unknown key to the object at path."""
    def edit(doc):
        for key in path:
            doc = doc[key]
        doc["extra"] = 1
    return edit


def _set(key, value):
    """An edit that sets a top-level key."""
    return lambda doc: doc.update({key: value})


# mazur's arcs, and a Stein section over a 1-handle whose component line
# comes first: with only these, a `dot`, `frame` and `stein component` line,
# a name with a space has nothing but the name rule to refuse it
ARCS = ("arc K1 : (0,0) (4,2) (7,-3) (8,3) (7,3) (4,-2) (0,0)\n"
        "arc K2 : (12,0) (8,-2) (5,3) (4,-3) (5,-3) (8,2) (12,0)\n")
STEIN = ("stein component K1\n"
         "stein arc K1 : (0,1) (3,-1) (5,1) (7,-1) (10,-1) (9,-3) (14,-3) (20,-1)\n"
         "stein arc K1 : (0,-1) (3,1) (5,-1) (7,1) (20,1)\n"
         "stein handle h1 : x=0 ytop=2 ybot=-2\nstein handle h1 : x=20 ytop=2 ybot=-2\n")


@pytest.mark.parametrize("text", [
    "{",                                       # malformed JSON
    '{"dots": []}',                            # no "front"
    "[" * 100000,                              # not JSON, not a diagram either
    '{"a": ' * 100000,                         # JSON nested past the recursion limit
    '{"front": {"arcs": 1}}',                  # ill-typed arcs
    # a name the printers cannot spell back, in either spelling
    MAZUR_JSON.replace('"K1"', '""'),
    MAZUR_JSON.replace('"K1"', '"K 1"'),
    MAZUR_JSON.replace('"K1"', '"K:1"'),
    MAZUR_JSON.replace('"K1"', '"K#1"'),
    MAZUR_JSON.replace('"h1"', '"h 1"'),
    MAZUR_JSON.replace('"unknot"', '"un knot"'),
    MAZUR_JSON.replace('"unknot"', "7"),
    (ARCS + "dot K1\nframe K2 0\n").replace("K1", "K 1"),
    ("dot K1\n" + ARCS + "frame K2 0\n").replace("K1", "K 1"),
    ARCS + "dot K1\nframe K2 0\n" + STEIN.replace("K1", "K 1"),
    # a key that names no statement
    _edited(MAZUR_JSON, _extra_key()),
    _edited(MAZUR_JSON, _extra_key("front")),
    _edited(MAZUR_JSON, _extra_key("front", "arcs", 0)),
    _edited(MAZUR_JSON, _extra_key("involution")),
    _edited(MAZUR_JSON, _extra_key("stein")),
    _edited(MAZUR_JSON, _extra_key("stein", "front", "handles", 0)),
    _edited(MAZUR_JSON, _extra_key("stein", "front", "handles", 0, "balls", 0)),
    # only null marks a section as absent
    *(_edited(MAZUR_JSON, _set(key, value))
      for key in ("involution", "stein") for value in ({}, False, 0)),
], ids=["malformed", "no-front", "brackets", "deep", "arcs",
        "name-empty", "name-space", "name-colon", "name-hash", "handle-id", "knottype",
        "knottype-number", "line-arc", "line-dot", "line-stein-component",
        "key-top", "key-front", "key-arc", "key-involution", "key-stein", "key-handle",
        "key-ball", "involution-empty", "involution-false", "involution-zero",
        "stein-empty", "stein-false", "stein-zero"])
def test_bad_kirby_document_exits_2(tmp_path, text):
    path = tmp_path / "bad.kirby"
    path.write_text(text)
    code, out, err = run(["homology", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["involution", "stein"])
def test_null_section_reads_as_absent(tmp_path, key):
    path = tmp_path / "mazur.kirby"
    path.write_text(_edited(MAZUR_JSON, _set(key, None)))
    code, out, _ = run(["admissible", str(path), "--format", "doc"])
    assert code == 1
    assert json.loads(out)["report"]["verdict"] == "not admissible"


def _lens_json(name="K", **fields):
    return json.dumps({**_front_json([(name, pts) for _, pts in LENS]), **fields})


TREFOIL_HANDLE = (Path(kirby.__file__).parent / "fixtures" / "trefoil_handle.front").read_text()
TREFOIL_HANDLE_JSON = json.dumps(front.front_to_doc(front.parse_front(TREFOIL_HANDLE)))


@pytest.mark.parametrize("text", [
    "{",                                       # malformed JSON
    '{"arcs": [{"component": "K"}]}',          # arc with no "points"
    '{"arcs": 5}',                             # ill-typed arcs
    "[" * 100000,                              # not JSON, not a front either
    '{"arcs": ' + "[" * 100000,                # JSON nested past the recursion limit
    '{"arcs": [{"component": "K", "points": [[0, 0], [4, 2], [8, 0]]}, '
    '{"component": "K", "points": [[8, 0], [4, -2], [0, 0]]}], "orient": {"K": "x"}}',
    # a name the printers cannot spell back, in either spelling
    _lens_json(""), _lens_json("K 1"), _lens_json("K:1"), _lens_json("K#"), _lens_json(7),
    _lens_json(knottypes={"K": 7}), _lens_json(knottypes={"K": ["unknot"]}),
    TREFOIL_HANDLE_JSON.replace('"h1"', '"h 1"'),
    "arc K 1 : (0,0) (4,2) (8,0)\narc K 1 : (8,0) (4,-2) (0,0)\n",
    TREFOIL_HANDLE.replace("handle h1", "handle h 1"),
    # a key that names no statement
    _lens_json(extra=1),
    _edited(_lens_json(), _extra_key("arcs", 0)),
    _edited(TREFOIL_HANDLE_JSON, _extra_key("handles", 0)),
    _edited(TREFOIL_HANDLE_JSON, _extra_key("handles", 0, "balls", 0)),
    # a string where a list belongs would iterate as its characters
    '{"arcs": [{"component": "K", "points": "00"}]}',
    '{"arcs": [{"component": "K", "points": ["01", "43", "81"]}, '
    '{"component": "K", "points": ["81", "40", "01"]}]}',
], ids=["malformed", "no-points", "arcs", "brackets", "deep", "orient",
        "name-empty", "name-space", "name-colon", "name-hash", "name-number",
        "knottype-number", "knottype-list", "handle-id", "line-arc", "line-handle",
        "key-top", "key-arc", "key-handle", "key-ball", "points-string", "point-string"])
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
    assert len(err.splitlines()) == 1


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


@pytest.mark.parametrize("via", ["fill", "certify"])
def test_deeply_nested_curve_vector_exits_2(fixtures, tmp_path, via):
    path = tmp_path / "deep.palf"
    path.write_text("genus 1\ncurve e = " + "[" * 200000 + "\nword T(e)\n")
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
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("via", ["fill", "certify"])
def test_boolean_curve_vector_exits_2(fixtures, tmp_path, via):
    path = tmp_path / "bool.palf"
    path.write_text("genus 1\ncurve e = [true, false]\nword T(e)\n")
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
    assert err.startswith("error:") and "class must be a list of 2 integers" in err


@pytest.mark.parametrize("field,value", [
    ("frames", []), ("frames", {"K2": "zero"}), ("involution", {"components": ["K1"]}),
    ("frames", {"K2": 0.5}), ("frames", {"K2": True}),
    ("involution", {"components": ["K1", "K2", "K1"], "center": ["6", "0"]}),
    ("stein", {"front": json.loads(_lens_json(7)), "component": 7}),
    # a string where a list belongs would iterate as its characters
    ("dots", "K1"),
    ("involution", {"components": "K1", "center": ["6", "0"]}),
    ("involution", {"components": ["K1", "K2"], "center": "60"}),
    ("front", {**json.loads(MAZUR_JSON)["front"], "arcs": [{"component": "K1", "points": "00"}]}),
    ("front", json.loads(MAZUR_JSON.replace('["4", "2"]', '"42"'))["front"]),
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


@pytest.fixture
def certificate(certify_argv, tmp_path):
    """The mazur certificate as a document."""
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(certify_argv + ["--out", str(cert_path)])
    assert code == 0
    return json.loads(cert_path.read_text())


def _validate_with_condition(tmp_path, doc, step, index, condition):
    """Validate doc with one side condition replaced under a fresh digest: (code, out, err)."""
    doc["steps"][step - 1]["side_conditions"][index] = condition
    doc["digest"] = hfcert.certificate_digest(doc)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    return run(["certify", "--validate", str(path)])


def test_validate_reports_deeply_nested_condition(certificate, tmp_path):
    deep = 1
    for _ in range(500):
        deep = [deep]
    code, out, err = _validate_with_condition(
        tmp_path, certificate, 1, 0, {"check": "unit_linking", "evidence": {"lk": deep}})
    assert code == 1
    assert out.splitlines() == [
        "invalid: step 1 (cork_admissible): unreadable side condition: "
        "evidence lk of check unit_linking is not an integer"
    ]
    assert err == ""


WORD = "word_trivial_on_h1"
HOSTILE_EVIDENCE = {
    "unknown-check": (1, 0, {"check": "is_identity", "evidence": {"lk": 1}}, "unknown check"),
    "old-format": (1, 0, {"expr": "abs(1) == 1", "value": True}, "not a mapping of a check"),
    "missing-key": (1, 0, {"check": "unit_linking", "evidence": {}}, "wants evidence lk"),
    "extra-key": (1, 0, {"check": "unit_linking", "evidence": {"lk": 1, "tb": 2}},
                  "wants evidence lk"),
    "true": (1, 0, {"check": "unit_linking", "evidence": {"lk": True}}, "not an integer"),
    "float": (1, 0, {"check": "unit_linking", "evidence": {"lk": 1.0}}, "not an integer"),
    "string": (1, 0, {"check": "unit_linking", "evidence": {"lk": "1"}}, "not an integer"),
    "nested-list": (1, 0, {"check": "unit_linking", "evidence": {"lk": [[1]]}}, "not an integer"),
    "genus-0": (3, 2, {"check": WORD, "evidence": {"genus": 0, "monodromy": [[]]}},
                "genus must be between 1 and 64, got 0"),
    "genus-65": (3, 2, {"check": WORD, "evidence": {"genus": 65, "monodromy": [[1] + [0] * 129]}},
                 "genus must be between 1 and 64, got 65"),
    "class-length": (3, 2, {"check": WORD, "evidence": {"genus": 2, "monodromy": [[1, 0]]}},
                     "every monodromy class must have 4 entries"),
    "imprimitive-class": (3, 2, {"check": WORD, "evidence": {"genus": 2,
                                                             "monodromy": [[2, 0, 0, 0]]}},
                          "imprimitive class"),
    "empty-monodromy": (3, 2, {"check": WORD, "evidence": {"genus": 2, "monodromy": []}},
                        "the monodromy has no letters"),
}


@pytest.mark.parametrize("case", HOSTILE_EVIDENCE)
def test_validate_rejects_hostile_evidence(certificate, tmp_path, case):
    step, index, condition, reason = HOSTILE_EVIDENCE[case]
    code, out, err = _validate_with_condition(tmp_path, certificate, step, index, condition)
    assert code == 1
    assert out.startswith("invalid:")
    assert any(line.startswith(f"invalid: step {step} ") and reason in line
               for line in out.splitlines()), out
    assert err == ""


def test_validate_deeply_nested_json_exits_2(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("[" * 200000)
    code, out, err = run(["certify", "--validate", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _cli_process(argv, encoding=None):
    """`corktwist argv` in a fresh interpreter, with PYTHONIOENCODING=encoding, or
    under the POSIX locale when encoding is None; argv may hold bytes."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONIOENCODING", "PYTHONUTF8") and not k.startswith("LC_")}
    env.update(PYTHONPATH=str(src), **({"LC_ALL": "C"} if encoding is None else
                                       {"PYTHONIOENCODING": encoding}))
    return subprocess.run([sys.executable, "-m", "corktwist.cli", *argv],
                          capture_output=True, timeout=60, env=env)


@pytest.mark.parametrize("fmt", ["human", "doc"])
def test_output_is_utf8_whatever_the_stdout_encoding(certify_argv, fmt):
    # Θ, ξ and ± cannot be written to an ASCII stdout: the command line
    # writes UTF-8 there, as it writes --out files
    argv = [*certify_argv, "--format", fmt]
    proc = _cli_process(argv, "ascii")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode("utf-8") == run(argv)[1]
    assert "Θ" in proc.stdout.decode("utf-8")


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


# runs `corktwist ARGV` in a fresh interpreter, then prints what it has imported
_IMPORTS_PROBE = """
import json, sys
from corktwist import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


def _imports_after(argv):
    """The exit code of a fresh `corktwist argv`, the package modules it loaded, and
    which of dataclasses and hashlib it loaded."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_PROBE, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    package = {name for name in loaded if name.split(".")[0] == "corktwist"}
    return code, package, {"dataclasses", "hashlib"} & set(loaded)


def test_each_command_imports_only_what_it_uses(fixtures, certify_argv, tmp_path):
    assert _imports_after(["tb", str(fixtures / "trefoil.front")]) == (
        0, {"corktwist", "corktwist.cli", "corktwist.base", "corktwist.front"}, set())
    # records and readers come from base, so mcg and fill never load the front parser
    assert _imports_after(["mcg", "verify-chain", "2"]) == (
        0, {"corktwist", "corktwist.cli", "corktwist.base", "corktwist.mcg",
            "corktwist.intmat"}, set())
    assert _imports_after(["fill", str(fixtures / "mazur.palf")]) == (
        0, {"corktwist", "corktwist.cli", "corktwist.base", "corktwist.fillings",
            "corktwist.mcg", "corktwist.intmat"}, set())
    # --validate loads the checker and what its checks run on: no parser, no search
    cert = tmp_path / "cert.json"
    assert run([*certify_argv, "--out", str(cert)])[0] == 0
    assert _imports_after(["certify", "--validate", str(cert)]) == (
        0, {"corktwist", "corktwist.cli", "corktwist.base", "corktwist.hfcert",
            "corktwist.intmat", "corktwist.mcg"}, {"hashlib"})


def test_unknot_search_imports_nothing_of_the_package():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import json, sys, corktwist.moves; print(json.dumps(list(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = {name for name in json.loads(proc.stdout) if name.split(".")[0] == "corktwist"}
    assert loaded == {"corktwist", "corktwist.moves"}


def test_shared_parser_keeps_no_state_between_calls(fixtures):
    """The parser is built once per process.  A usage error, a valid command and
    the same usage error again, run in one process, print and exit exactly as
    each does in a fresh process."""
    trefoil = str(fixtures / "trefoil.front")
    usage_error = ["tb", trefoil, "--budget", "5"]
    valid = ["tb", trefoil, "--format", "doc"]
    in_process = [run(argv) for argv in (usage_error, valid, usage_error)]
    src = Path(__file__).resolve().parent.parent / "src"
    fresh = []
    for argv in (usage_error, valid):
        proc = subprocess.run(
            [sys.executable, "-m", "corktwist.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert cli._build_parser() is cli._build_parser()
    assert in_process[0][0] == 2 and "unrecognized arguments: --budget 5" in in_process[0][2]
    assert in_process[1][0] == 0
    assert in_process == [fresh[0], fresh[1], fresh[0]]


def _spelled(fixtures, tmp_path, name, old, new):
    """A copy of fixture `name` with its first `old` spelled `new`, and its path."""
    text = (fixtures / name).read_text()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new, 1))
    return str(path)


# int() and Fraction() take `1_0` as 10 and non-ASCII digits such as `٣`
# and `２`; every number a file or a flag spells must be plain ASCII
@pytest.mark.parametrize("name, old, bad, argv", [
    ("mazur.palf", "genus 2", "genus 2_0", ["fill"]),
    ("mazur.palf", "genus 2", "genus ２", ["fill"]),
    ("mazur.palf", "handles 1 1", "handles 1_0 1", ["fill"]),
    ("mazur.kirby", "frame K2 0", "frame K2 ٠", ["homology"]),
    ("trefoil_inflation.spec", "framing 1", "framing 0_1", None),
    ("lens.front", "(4,2)", "(4_0,2)", ["tb"]),
    ("lens.front", "(4,2)", "(٤,2)", ["tb"]),
], ids=["palf-genus-separator", "palf-genus-fullwidth", "palf-handles", "kirby-frame",
        "inflation-framing", "front-rational-separator", "front-rational-arabic-indic"])
def test_numbers_in_files_must_be_plain_ascii(fixtures, tmp_path, name, old, bad, argv):
    path = _spelled(fixtures, tmp_path, name, old, bad)
    if argv is None:
        argv = ["certify", str(fixtures / "mazur.kirby"),
                str(fixtures / "mazur_inflated.palf"), path]
    else:
        argv = argv + [path]
    code, out, err = run(argv)
    assert code == 2, argv
    assert out == ""
    [token] = set(re.split(r"[ (,)]", bad)) - set(re.split(r"[ (,)]", old))
    assert err.startswith("error:") and token in err
    assert len(err.splitlines()) == 1


# a statement that sets one value may appear once; a second one would
# silently replace the first
@pytest.mark.parametrize("name, old, new, argv", [
    ("lens.front", "orient U +\n", "orient U +\norient U -\n", ["tb"]),
    ("lens.front", "knottype U unknot\n", "knottype U unknot\nknottype U right_trefoil\n",
     ["tb"]),
    ("trefoil_handle.front", "handle h1 : x=0 ", "handle h1 : x=0 x=20 ", ["tb"]),
    ("mazur.kirby", "rot180 6 0\n", "rot180 6 0\ninvolution K1 K2 : rot180 7 0\n",
     ["admissible"]),
    ("mazur.kirby", "stein component K2\n", "stein component K2\nstein component K2\n",
     ["admissible"]),
    ("trefoil_inflation.spec", "knot right_trefoil\n",
     "knot right_trefoil\nknot right_trefoil\n", None),
    ("trefoil_inflation.spec", "framing 1\n", "framing 1\nframing 5\n", None),
    ("trefoil_inflation.spec", "untwisted trefoil_handle.front K\n",
     "untwisted trefoil_handle.front K\nuntwisted trefoil.front K\n", None),
    ("trefoil_inflation.spec", "twisted trefoil.front K\n",
     "twisted trefoil.front K\ntwisted trefoil.front K\n", None),
    # a second genus would leave curve e, read at genus 2, in a genus-3 word
    ("mazur_inflated.palf", "curve e = [0, 1, 0, 1]\n",
     "curve e = [0, 1, 0, 1]\ngenus 3\n", ["fill"]),
    ("mazur_inflated.palf", "curve e = [0, 1, 0, 1]\n",
     "curve e = [0, 1, 0, 1]\ngenus 3\n", None),
    ("mazur.palf", "handles 1 1\n", "handles 1 1\nhandles 1 1\n", ["fill"]),
    ("mazur.palf", "handles 1 1\n", "handles 1 1\nhandles 1 1\n", None),
    ("mazur_inflated.palf", "curve e = [0, 1, 0, 1]\n",
     "curve e = [0, 1, 0, 1]\ncurve e = [1, 0, 0, 0]\n", ["fill"]),
    ("mazur_inflated.palf", "curve e = [0, 1, 0, 1]\n",
     "curve e = [0, 1, 0, 1]\ncurve e = [1, 0, 0, 0]\n", None),
    # the genus already gives c1, so a curve line for it would shadow a1
    ("mazur_inflated.palf", "curve e = [0, 1, 0, 1]\n",
     "curve e = [0, 1, 0, 1]\ncurve c1 = [0, 1, 0, 0]\n", ["fill"]),
    ("mazur_inflated.palf", "curve e = [0, 1, 0, 1]\n",
     "curve e = [0, 1, 0, 1]\ncurve c1 = [0, 1, 0, 0]\n", None),
], ids=["orient", "knottype", "handle-parameter", "involution", "stein-component",
        "spec-knot", "spec-framing", "spec-untwisted", "spec-twisted",
        "palf-genus-fill", "palf-genus-certify", "palf-handles-fill", "palf-handles-certify",
        "palf-curve-fill", "palf-curve-certify", "palf-chain-curve-fill",
        "palf-chain-curve-certify"])
def test_repeated_single_valued_statement_exits_2(fixtures, tmp_path, name, old, new, argv):
    text = (fixtures / name).read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    # the line that repeats the statement: the last line `new` touches
    line = text[: text.index(new) + len(new.rstrip("\n"))].count("\n") + 1
    path = tmp_path / name
    path.write_text(text)
    if argv is None:  # certify, with the edited file in its own slot
        for front_file in ("trefoil.front", "trefoil_handle.front"):
            (tmp_path / front_file).write_text((fixtures / front_file).read_text())
        palf = path if name.endswith(".palf") else fixtures / "mazur_inflated.palf"
        spec = path if name.endswith(".spec") else fixtures / "trefoil_inflation.spec"
        argv = ["certify", str(fixtures / "mazur.kirby"), str(palf), str(spec)]
    else:
        argv = argv + [str(path)]
    code, out, err = run(argv)
    assert code == 2, argv
    assert out == ""
    assert err.startswith("error:") and f"line {line}:" in err
    assert "second" in err or "given twice" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["admissible", "mazur.kirby", "--seed", "1_0"],
    ["admissible", "mazur.kirby", "--budget", "1_0"],
    ["mcg", "verify-chain", "1_0"],
    ["mcg", "verify-chain", "--genus", "２"],
], ids=["seed", "budget", "chain-genus", "genus-flag"])
def test_numbers_on_the_command_line_must_be_plain_ascii(fixtures, argv):
    argv = [str(fixtures / a) if a.endswith(".kirby") else a for a in argv]
    code, out, err = run(argv)
    assert code == 2, argv
    assert out == ""
    assert f"error: argument {argv[-2] if argv[-2].startswith('--') else 'chain_genus'}" in err
    assert f"invalid int value: {argv[-1]!r}" in err


# Python refuses to convert an integer literal of more than 4,300 digits and
# raises a plain ValueError, which json.loads and int() pass on; the
# conversion fails at once, so these inputs are cheap
HUGE = "1" + "0" * 5000


def _json_front(x):
    return json.dumps({
        "arcs": [{"component": "K", "points": [[0, 0], [x, 2], [8, 0]]},
                 {"component": "K", "points": [[8, 0], [4, -2], [0, 0]]}],
        "orient": {"K": "+"},
    })


def _json_kirby(fixtures, field):
    doc = kirby.kirby_to_doc(kirby.parse_kirby((fixtures / "mazur.kirby").read_text()))
    if field == "frame":
        doc["frames"]["K2"] = 987654321
    else:
        doc["front"]["arcs"][0]["points"][1][0] = 987654321
    return json.dumps(doc).replace("987654321", HUGE)


@pytest.mark.parametrize("site", [
    "front-json", "kirby-json-point", "kirby-json-frame", "palf-curve", "validate-json",
])
def test_oversized_json_integer_exits_2(fixtures, tmp_path, site):
    path = tmp_path / "huge"
    if site == "front-json":
        path.write_text(_json_front(987654321).replace("987654321", HUGE))
        argv = ["tb", str(path)]
    elif site.startswith("kirby"):
        path.write_text(_json_kirby(fixtures, site.split("-")[-1]))
        argv = ["homology", str(path)]
    elif site == "palf-curve":
        path.write_text(f"genus 1\ncurve e = [{HUGE}, 0]\nword T(e)\n")
        argv = ["fill", str(path)]
    else:
        path.write_text('{"steps": [], "verdict": ' + HUGE + "}")
        argv = ["certify", "--validate", str(path)]
    code, out, err = run(argv)
    assert code == 2, site
    assert out == ""
    assert err.startswith("error:") and "4300 digits" in err
    assert len(err.splitlines()) == 1


def _with_repeated_key(text, entry):
    """The JSON object text with entry appended inside its closing brace."""
    end = text.rindex("}")
    return text[:end] + ", " + entry + text[end:]


# a JSON object that names a key twice would let its last value win
@pytest.mark.parametrize("site", ["front-json", "kirby-json", "palf-curve", "validate-json"])
def test_repeated_json_key_exits_2(fixtures, certify_argv, tmp_path, site):
    path = tmp_path / "repeated"
    if site == "front-json":
        path.write_text(_with_repeated_key(_json_front(4), '"orient": {"K": "-"}'))
        argv, key = ["tb", str(path)], "orient"
    elif site == "kirby-json":
        doc = kirby.kirby_to_doc(kirby.parse_kirby((fixtures / "mazur.kirby").read_text()))
        path.write_text(_with_repeated_key(
            json.dumps(doc), '"involution": {"components": ["K1", "K2"], "center": ["7", "0"]}'))
        argv, key = ["admissible", str(path)], "involution"
    elif site == "palf-curve":
        path.write_text('genus 1\ncurve e = [1, {"a": 0, "a": 1}]\nword T(e)\n')
        argv, key = ["fill", str(path)], "a"
    else:
        code, _, _ = run(certify_argv + ["--out", str(path)])
        assert code == 0
        # the second verdict is the recorded one, so the digest still matches it
        text = path.read_text()
        path.write_text('{"verdict": "SAME", ' + text.lstrip()[1:])
        argv, key = ["certify", "--validate", str(path)], "verdict"
    code, out, err = run(argv)
    assert code == 2, site
    assert out == ""
    assert err.startswith("error:") and f"repeated key {key!r}" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("site", ["evidence-integer", "monodromy-entry"])
def test_validate_refuses_oversized_integer_in_evidence(certificate, tmp_path, site):
    if site == "evidence-integer":
        certificate["steps"][0]["side_conditions"][0]["evidence"]["lk"] = 987654321
    else:
        certificate["steps"][2]["side_conditions"][2]["evidence"]["monodromy"][0][0] = 987654321
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate).replace("987654321", HUGE))
    code, out, err = run(["certify", "--validate", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "4300 digits" in err
    assert len(err.splitlines()) == 1


def test_validate_reports_non_ascii_digit_in_condition(certificate, tmp_path):
    # `\u0661` is ARABIC-INDIC DIGIT ONE, which int() would read as 1
    code, out, err = _validate_with_condition(
        tmp_path, certificate, 1, 0, {"check": "unit_linking", "evidence": {"lk": "\u0661"}})
    assert code == 1
    assert out.splitlines() == [
        "invalid: step 1 (cork_admissible): unreadable side condition: "
        "evidence lk of check unit_linking is not an integer"
    ]
    assert err == ""


# 2^53 + 1, + 3, + 5: a float rounds the first and the last two to the same x
BIG_X = ["9007199254740993.0", "9007199254740995.0", "9007199254740997.0"]


def _json_front_spelled(xs):
    """The lens of `_json_front` with its three x values spelled as given, unquoted."""
    a, b, c = xs
    return ('{"arcs": [{"component": "K", "points": [[%s, 0], [%s, 2], [%s, 0]]}, '
            '{"component": "K", "points": [[%s, 0], [%s, -2], [%s, 0]]}], '
            '"orient": {"K": "+"}}' % (a, b, c, c, b, a))


def test_json_coordinates_keep_their_spelled_value(tmp_path):
    text = _json_front_spelled(BIG_X)
    exact = [Fraction(int(x[:-2])) for x in BIG_X]
    for d in (front.parse_front(text),
              kirby.parse_kirby('{"front": %s, "dots": ["K"]}' % text).front):
        assert [p[0] for p in d.arcs[0].points] == exact
        assert d.tb("K") == -1
    path = tmp_path / "big.front"
    path.write_text(text)
    code, out, _ = run(["tb", str(path)])
    assert code == 0 and "tb = -1" in out


@pytest.mark.parametrize("site", ["front", "kirby"])
def test_json_coordinate_with_an_exponent_exits_2(tmp_path, site):
    text = _json_front_spelled(["0", "1e5", "8"])
    if site == "kirby":
        text = '{"front": %s, "dots": ["K"]}' % text
    path = tmp_path / "exp"
    path.write_text(text)
    code, out, err = run(["tb" if site == "front" else "homology", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bad rational '1e5': no exponent" in err


def test_exponent_in_a_rational_exits_2_without_building_it(fixtures, tmp_path, monkeypatch):
    """`1e1000000` is seven characters, but Fraction would build 10^1000000."""
    def refuse(*args):
        assert not any("e" in str(a) for a in args), "Fraction called on an exponent token"
        return Fraction(*args)

    path = _spelled(fixtures, tmp_path, "lens.front", "(4,2)", "(1e1000000,2)")
    monkeypatch.setattr(front, "Fraction", refuse)
    code, out, err = run(["tb", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bad rational '1e1000000': no exponent" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("site", ["tb", "homology", "validate"])
def test_lone_surrogate_in_json_input_exits_2(fixtures, tmp_path, site):
    # json.loads reads an unpaired \udcff escape into a string that no UTF-8
    # stream can write; every JSON input refuses it as it is read
    if site == "tb":
        doc = json.loads(_lens_json())
        for arc in doc["arcs"]:
            arc["component"] = "\udcff"
        doc["orient"] = {"\udcff": "+"}
        argv = ["tb"]
    elif site == "homology":
        doc = json.loads(MAZUR_JSON.replace('"K2"', '"\\udcff"'))
        argv = ["homology", "--format", "doc"]
    else:
        doc = {"verdict": "\udcff", "steps": []}
        argv = ["certify", "--format", "doc", "--validate"]
    path = tmp_path / "lone.json"
    path.write_text(json.dumps(doc))  # ASCII: the surrogate is a \u escape
    assert "\\udcff" in path.read_text()
    proc = _cli_process([*argv, str(path)], "utf-8")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode("utf-8") == (
        f"error: {path}: not valid JSON: a string spells a lone surrogate\n")


@pytest.mark.parametrize("encoding", ["utf-8", "ascii", "latin-1", None])
def test_certify_out_path_that_is_not_utf8_is_reported(certify_argv, tmp_path, encoding):
    out = os.fsencode(tmp_path) + b"/\xff.json"
    proc = _cli_process([*certify_argv, "--out", out], encoding)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert os.path.exists(out)
    # the POSIX locale writes surrogate escapes back as the path's own bytes
    shown = out if encoding is None else os.fsencode(tmp_path) + b"/\\xff.json"
    assert proc.stdout.splitlines()[-1] == b"certificate written to " + shown


def test_stderr_is_utf8_whatever_its_encoding(fixtures, tmp_path):
    spec = tmp_path / "framing0.spec"
    spec.write_text(
        "knot right_trefoil\nframing 0\n"
        f"untwisted {fixtures / 'trefoil_handle.front'} K\n"
        f"twisted {fixtures / 'trefoil.front'} K\n"
    )
    argv = ["certify", str(fixtures / "mazur.kirby"), str(fixtures / "mazur_inflated.palf"),
            str(spec)]
    proc = _cli_process(argv, "ascii")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode("utf-8") == (
        "certification aborted: untwisted Stein check wants framing = tb − 1 = 1\n"
        "failing check: contact_framing(framing=0, tb=2)\n"
    )
    assert proc.stderr.decode("utf-8") == run(argv)[2]


_CINQUEFOIL = ("arc K : (0,0) (4,2) (8,0)\narc K : (8,0) (4,-2) (0,0)\norient K +\n"
               "knottype K cinquefoil\n")


@pytest.mark.parametrize("spec,message", [
    # both exhibits declare a knot with no registered facts
    ("knot cinquefoil\nframing 1\nuntwisted c.front K\ntwisted c.front K\n",
     "unregistered knot type 'cinquefoil'"),
    # neither exhibit declares its knot
    ("knot right_trefoil\nframing 1\nuntwisted bare_handle.front K\ntwisted bare.front K\n",
     "no registered facts for the attaching knot; twisted-side obstruction unavailable"),
    # the twisted exhibit over the handle reaches the framing
    ("knot right_trefoil\nframing 1\nuntwisted {handle} K\ntwisted {handle} K\n",
     "twisted-side attachment is not obstructed (exhibited tb 2, 2 handle passes); "
     "no separation"),
], ids=["unregistered", "undeclared", "over-handle"])
def test_certify_stein_side_aborts(fixtures, tmp_path, spec, message):
    (tmp_path / "c.front").write_text(_CINQUEFOIL)
    for name in ("trefoil_handle.front", "trefoil.front"):
        text = (fixtures / name).read_text().replace("knottype K right_trefoil\n", "")
        (tmp_path / name.replace("trefoil", "bare")).write_text(text)
    path = tmp_path / "inflation.spec"
    path.write_text(spec.format(handle=fixtures / "trefoil_handle.front"))
    code, out, err = run(["certify", str(fixtures / "mazur.kirby"),
                          str(fixtures / "mazur_inflated.palf"), str(path)])
    assert (code, out, err) == (1, "", f"certification aborted: {message}\n")
