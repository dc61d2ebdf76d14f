"""Pinned output of every subcommand on the shipped fixtures.

Each case records the exit code and the first 16 hex digits of the
sha256 of stdout.  A refactor that keeps these hashes keeps the output
byte-identical.
"""

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest

from corktwist import cli, kirby
from corktwist.base import dump_json

CERTIFY = ["certify", "mazur.kirby", "mazur_inflated.palf", "trefoil_inflation.spec"]
CERT_DIGEST = "de1e95981e571cf9940d93a67fd9b3200a93cd4ea4c028919863059fcb9ea42e"
# the first 16 hex digits of the sha256 of the file `certify --out` writes
CERT_FILE = "02950104108a39d7"

GOLDEN = [
    (["tb", "trefoil.front"], 0, "10d8086fb68e52bb"),
    (["tb", "lens.front"], 0, "e829e413cacf68e2"),
    (["tb", "trefoil_handle.front"], 0, "416be57fe2b435d6"),
    (["admissible", "mazur.kirby"], 0, "5bd46a1e1b993351"),
    (["admissible", "hopf.kirby"], 1, "6f340492f4e3550f"),
    (["admissible", "knotted.kirby"], 3, "1a4dc728e8ff469a"),
    (["homology", "mazur.kirby"], 0, "aceb8be0baf71089"),
    (["twist", "mazur.kirby"], 0, "4e520d16715a97e5"),
    (["fill", "mazur.palf"], 0, "734b0650a3f22a03"),
    (["fill", "mazur_inflated.palf"], 0, "edf52f9ab5a7897f"),
    (["mcg", "verify-chain", "2"], 0, "8b6c8c0e9441c293"),
    (CERTIFY, 0, "ff4dd31b7916eb33"),
]


def run_cli(argv, fixtures, fmt):
    resolved = [str(fixtures / a) if "." in a else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(resolved + ["--format", fmt])
    return code, out.getvalue()


def run_doc(argv, fixtures):
    return run_cli(argv, fixtures, "doc")


def digest_of(out):
    return hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN, ids=[" ".join(a[:2]) for a, _, _ in GOLDEN]
)
def test_doc_output_is_pinned(argv, code, digest, fixtures):
    got_code, out = run_doc(argv, fixtures)
    assert got_code == code
    assert digest_of(out) == digest


def _keys_are_strings(node):
    if isinstance(node, dict):
        return all(isinstance(k, str) and _keys_are_strings(v) for k, v in node.items())
    if isinstance(node, (list, tuple)):
        return all(_keys_are_strings(v) for v in node)
    return True


def test_emitted_documents_have_string_keys_only(fixtures, monkeypatch):
    # dump_json refuses a key that is not a string, where json.dumps would
    # convert it: no document a GOLDEN case emits has one
    emitted = []
    monkeypatch.setattr(cli, "dump_json", lambda doc: emitted.append(doc) or dump_json(doc))
    for argv, code, _ in GOLDEN:
        assert run_doc(argv, fixtures)[0] == code
    assert len(emitted) == len(GOLDEN)
    assert all(_keys_are_strings(doc) for doc in emitted)


def test_high_genus_output_is_pinned(tmp_path):
    # genus 6: the chain block's 26th power, and a plan of 2 relator
    # blocks, each stated by its letter and 12 chain images, that stand
    # for 2 * 311 trivializing letters
    palf = tmp_path / "g6.palf"
    palf.write_text("genus 6\nword T(c3) T(c7)\n")
    for argv, digest in ((["mcg", "verify-chain", "6"], "4bda15afaf1db230"),
                         (["fill", str(palf)], "ff554f7861d75ec4")):
        code, out = run_doc(argv, tmp_path)
        assert code == 0
        assert digest_of(out) == digest


def test_stabilized_plan_output_is_pinned(tmp_path):
    # a genus-1 page is stabilized once before planning, which the doc
    # records next to the cap (v0) and the closing piece, and the human
    # output states as "stabilized 1 times from genus 1"
    palf = tmp_path / "g1.palf"
    palf.write_text("genus 1\nword T(c1) T(c2)\n")
    for fmt, digest in (("doc", "77fddb838e29c4bf"), ("human", "bc2ce5a0c8cc959e")):
        code, out = run_cli(["fill", str(palf)], tmp_path, fmt)
        assert code == 0
        assert digest_of(out) == digest


def test_nontrivial_homology_output_is_pinned(tmp_path):
    # every shipped fixture has trivial homology; the linked pairs LHP(n)
    # have boundary H1 = Z^2 for n = 0 and Z/3 + Z/3 for n = 3
    pins = {
        0: {"human": "72e06b398271ae43", "doc": "01ec50a6959bd902"},
        3: {"human": "8ddcce0362d34671", "doc": "31058a572854a5bd"},
    }
    for n, digests in pins.items():
        path = tmp_path / f"lhp{n}.kirby"
        path.write_text(kirby.kirby_to_text(kirby.linked_handle_pair(n)))
        for fmt, digest in digests.items():
            code, out = run_cli(["homology", str(path)], tmp_path, fmt)
            assert code == 0
            assert digest_of(out) == digest


HUMAN = [
    (["tb", "trefoil.front"], 0, "89a165175d729bc6"),
    (["tb", "trefoil_handle.front"], 0, "3d7e45df05183b1a"),
    (["admissible", "mazur.kirby"], 0, "b10fd03b0322cc3c"),
    (["admissible", "hopf.kirby"], 1, "83d9c8c006f6c15c"),
    (["admissible", "knotted.kirby"], 3, "94e030fcb8b32686"),
    (["homology", "mazur.kirby"], 0, "3a8b33ead7188116"),
    (["twist", "mazur.kirby"], 0, "bcad7e680671c27b"),
    (["mcg", "verify-chain", "2"], 0, "09905a3f82b9543e"),
]


@pytest.mark.parametrize(
    "argv,code,digest", HUMAN, ids=[" ".join(a[:2]) for a, _, _ in HUMAN]
)
def test_human_output_is_pinned(argv, code, digest, fixtures):
    got_code, out = run_cli(argv, fixtures, "human")
    assert got_code == code
    assert digest_of(out) == digest


def test_human_fill_output_is_pinned(fixtures):
    code, out = run_cli(["fill", "mazur.palf"], fixtures, "human")
    assert code == 0
    assert digest_of(out) == "83a402456dd08674"


def test_human_certify_output_is_pinned(fixtures):
    code, out = run_cli(CERTIFY, fixtures, "human")
    assert code == 0
    assert digest_of(out) == "2fb59b68342264b2"


def test_certificate_digest_is_pinned(fixtures):
    code, out = run_doc(CERTIFY, fixtures)
    assert code == 0
    assert json.loads(out)["certificate"]["digest"] == CERT_DIGEST


def test_certificate_file_is_pinned(fixtures, tmp_path):
    path = tmp_path / "cert.json"
    code, _ = run_cli(CERTIFY + ["--out", str(path)], fixtures, "human")
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == CERT_FILE


# (a, b, c, d) of (x, z) -> (a x + b, c z + d): the identity, a stretch and
# shift, the x-mirror, the z-mirror, the point reflection and an x-stretch.
# With y = dz/dx sent to (c / a) y, each keeps the contact structure of
# dz - y dx, so no verdict may change.
CONTACTOMORPHISMS = [(1, 0, 1, 0), (3, 7, 3, -5), (-1, 0, 1, 0), (1, 0, -1, 0), (-1, 0, -1, 0),
                     (2, 0, 1, 0)]


def _moved(text, a, b, c, d):
    """text with every point, ball and half-turn centre moved by (x, z) -> (a x + b, c z + d)."""
    def x(v):
        return a * Fraction(v) + b

    def z(v):
        return c * Fraction(v) + d

    text = re.sub(r"\(([^,()]+),([^,()]+)\)", lambda m: f"({x(m[1])},{z(m[2])})", text)
    text = re.sub(
        r"x=(\S+) ytop=(\S+) ybot=(\S+)",
        lambda m: f"x={x(m[1])} ytop={max(z(m[2]), z(m[3]))} ybot={min(z(m[2]), z(m[3]))}",
        text,
    )
    return re.sub(r"rot180 (\S+) (\S+)", lambda m: f"rot180 {x(m[1])} {z(m[2])}", text)


@pytest.mark.parametrize("a,b,c,d", CONTACTOMORPHISMS)
def test_contactomorphisms_change_no_verdict(a, b, c, d, fixtures, tmp_path):
    """mazur.kirby, both exhibits of the spec and knotted.kirby, moved by a
    contactomorphism: certify prints the pinned document, the cork stays
    admissible with the same tb and the same self-crossing counts, and the
    knotted pair stays inconclusive."""
    for name in ("mazur.kirby", "trefoil_handle.front", "trefoil.front", "knotted.kirby"):
        (tmp_path / name).write_text(_moved((fixtures / name).read_text(), a, b, c, d))
    for name in ("mazur_inflated.palf", "trefoil_inflation.spec"):
        (tmp_path / name).write_text((fixtures / name).read_text())
    code, out = run_doc(CERTIFY, tmp_path)
    assert (code, digest_of(out)) == next((c, g) for argv, c, g in GOLDEN if argv == CERTIFY)

    def admissible(where):
        code, out = run_doc(["admissible", "mazur.kirby"], where)
        report = json.loads(out)["report"]
        crossings = {k: e["self_crossings"] for k, e in report["cond1_evidence"].items()}
        return code, report["verdict"], report["cond4prime"]["tb"], crossings

    assert admissible(tmp_path) == admissible(fixtures)
    assert admissible(tmp_path)[:2] == (0, "admissible")
    code, out = run_doc(["admissible", "knotted.kirby"], tmp_path)
    assert (code, json.loads(out)["report"]["verdict"]) == (3, "inconclusive")
