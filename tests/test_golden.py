"""Pinned `--format doc` output of every subcommand on the shipped fixtures.

Each case records the exit code and the first 16 hex digits of the
sha256 of stdout.  A refactor that keeps these hashes keeps the output
byte-identical.
"""

import contextlib
import hashlib
import io
import json

import pytest

from corktwist import cli

CERTIFY = ["certify", "mazur.kirby", "mazur_inflated.palf", "trefoil_inflation.spec"]
CERT_DIGEST = "e3ba909a5c20f5d4e85e8f05d779d7b4778d9016d53c168c4b252c90a357fefc"

GOLDEN = [
    (["tb", "trefoil.front"], 0, "10d8086fb68e52bb"),
    (["tb", "lens.front"], 0, "e829e413cacf68e2"),
    (["tb", "trefoil_handle.front"], 0, "416be57fe2b435d6"),
    (["admissible", "mazur.kirby"], 0, "abbf09b3dc57cc00"),
    (["admissible", "hopf.kirby"], 1, "05370a6f9a410474"),
    (["admissible", "knotted.kirby"], 3, "7aeb7c7de2fe4fc3"),
    (["homology", "mazur.kirby"], 0, "aceb8be0baf71089"),
    (["twist", "mazur.kirby"], 0, "4e520d16715a97e5"),
    (["fill", "mazur.palf"], 0, "db1446ed3ad2c686"),
    (["fill", "mazur_inflated.palf"], 0, "fe65e0d164a994f4"),
    (["mcg", "verify-chain", "2"], 0, "8b6c8c0e9441c293"),
    (CERTIFY, 0, "30ac5a356568389b"),
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


def test_high_genus_output_is_pinned(tmp_path):
    # genus 6: the chain block's 26th power, and a plan whose 2 * 311
    # trivializing letters all pass through the H1 identity check
    palf = tmp_path / "g6.palf"
    palf.write_text("genus 6\nword T(c3) T(c7)\n")
    for argv, digest in ((["mcg", "verify-chain", "6"], "4bda15afaf1db230"),
                         (["fill", str(palf)], "dfb176f235e9cfe6")):
        code, out = run_doc(argv, tmp_path)
        assert code == 0
        assert digest_of(out) == digest


def test_stabilized_plan_output_is_pinned(tmp_path):
    # a genus-1 page is stabilized once before planning, which the doc
    # records next to the cap (v0) and the closing piece
    palf = tmp_path / "g1.palf"
    palf.write_text("genus 1\nword T(c1) T(c2)\n")
    code, out = run_doc(["fill", str(palf)], tmp_path)
    assert code == 0
    assert digest_of(out) == "61f6dac2ee543e62"


def test_human_fill_output_is_pinned(fixtures):
    code, out = run_cli(["fill", "mazur.palf"], fixtures, "human")
    assert code == 0
    assert digest_of(out) == "83a402456dd08674"


def test_certificate_digest_is_pinned(fixtures):
    code, out = run_doc(CERTIFY, fixtures)
    assert code == 0
    assert json.loads(out)["certificate"]["digest"] == CERT_DIGEST
