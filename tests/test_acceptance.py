"""Acceptance checks for the package, one per shipped guarantee.

Each test prints a PASS or FAIL line naming its criterion, so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.  Oracles used
here are written inline and on purpose do not call the code under test
for the quantity they check.
"""

import contextlib
import copy
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

from corktwist import cli, fillings, front, hfcert, intmat, kirby, mcg
from corktwist.fillings import OpenBook, build_concave
from corktwist.mcg import TwistWord


@contextlib.contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label}")
        raise
    print(f"PASS criterion {n}: {label}")


def chain_word(g, power):
    chain = mcg.chain_curves(g)
    once = tuple((c, 1) for c in chain)
    return TwistWord(once * power)


def test_criterion_01_chain_relation_is_homologically_trivial():
    with criterion(1, "chain relation acts trivially at the stated power"):
        t0 = time.perf_counter()
        for g in (1, 2, 3, 4):
            action = mcg.h1_action(chain_word(g, 4 * g + 2))
            assert intmat.is_identity(action), g
        almost = mcg.h1_action(chain_word(1, 4 * 1 + 1))
        assert not intmat.is_identity(almost)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_positive_inversion_length_and_action():
    with criterion(2, "positive inversion has exact length and cancels"):
        t0 = time.perf_counter()
        rng = random.Random(11)
        for g in (1, 2):
            for _ in range(10):
                vec = [0] * (2 * g)
                while not any(vec) or not intmat.is_primitive(vec):
                    vec = [rng.randint(-3, 3) for _ in range(2 * g)]
                c = mcg.Curve("c", tuple(vec))
                (block,) = mcg.trivialize(TwistWord(((c, 1),)))
                # the block's letters: c2 ... c2g (c1 ... c2g)^(4g+1) read as S c_k
                conj = [(mcg.Curve(f"S c{k + 1}", v), 1) for k, v in enumerate(block.chain_images)]
                w = TwistWord(tuple(conj[1:] + conj * (4 * g + 1)))
                assert len(w.letters) == 2 * g * (4 * g + 2) - 1
                assert w.is_positive
                total = TwistWord(((c, 1),) + w.letters)
                assert intmat.is_identity(mcg.h1_action(total))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_tb_arithmetic(load):
    with criterion(3, "tb values and stabilization arithmetic are exact"):
        lens = front.parse_front(load("lens.front"))
        assert lens.tb("U") == -1
        d = front.parse_front(load("trefoil.front"))
        assert d.tb("K") == 1
        for step in range(10):
            d = front.stabilize(d, "K", 1 if step % 2 else -1)
            assert d.tb("K") == 1 - (step + 1)


def test_criterion_04_linked_pair_homology_against_snf_oracle():
    def perm_det(m):
        n = len(m)
        if n == 0:
            return 1
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [False] * n
            for i in range(n):
                if seen[i]:
                    continue
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            term = sign
            for i in range(n):
                term *= m[i][perm[i]]
            total += term
        return total

    def snf_factors(a):
        rows, cols = len(a), len(a[0]) if a else 0
        out, prev = [], 1
        for k in range(1, min(rows, cols) + 1):
            g = 0
            for rsel in itertools.combinations(range(rows), k):
                for csel in itertools.combinations(range(cols), k):
                    sub = [[a[r][c] for c in csel] for r in rsel]
                    g = math.gcd(g, abs(perm_det(sub)))
            if g == 0:
                break
            out.append(g // prev)
            prev = g
        return out

    with criterion(4, "linked-pair boundary homology matches the Smith oracle"):
        for n in range(6):
            d = kirby.linked_handle_pair(n)
            _, link = kirby.linking_matrix(d)
            raw = [list(r) for r in link]
            factors = snf_factors(raw)
            oracle_rank = len(raw) - len(factors)
            oracle_torsion = sorted(f for f in factors if f > 1)
            got = kirby.homology(d)["h_of_boundary"][1]
            assert got["rank"] == oracle_rank, n
            assert sorted(got["torsion"]) == oracle_torsion, n
            if n == 0:
                assert got["rank"] == 2 and not got["torsion"]
            elif n == 1:
                assert got["pretty"] == "0"
                rep = kirby.homology(d)
                assert rep["is_homology_sphere"]
                assert rep["is_contractible"]
            else:
                assert got["torsion"] == [n, n]


def test_criterion_05_stein_framing_rule_on_the_two_sides(load, fixtures):
    with criterion(5, "framing 1 is Stein untwisted and obstructed twisted"):
        spec = kirby.parse_inflation_spec(load("trefoil_inflation.spec"), fixtures)
        assert spec.framing == 1
        assert spec.untwisted_front.tb("K") == 2
        cork = kirby.parse_kirby(load("mazur.kirby"))
        palf = fillings.parse_palf(load("mazur_inflated.palf"))
        plan = build_concave(fillings.palf_to_openbook(palf))
        cert = hfcert.certify_distinct(cork, kirby.check_admissible(cork), spec, plan)

        untwisted = cert["steps"][1]
        assert untwisted["rule"] == "stein_untwisted_attachment"
        # exact: framing 1 = tb 2 - 1
        assert untwisted["side_conditions"] == [
            {"check": "contact_framing", "evidence": {"framing": 1, "tb": 2}}
        ]

        twisted = cert["steps"][6]
        assert twisted["rule"] == "twisted_adjunction_obstruction"
        # obstructed: framing 1 > max tb 1 - 1
        assert twisted["side_conditions"][0] == {
            "check": "tb_obstructed", "evidence": {"framing": 1, "max_tb": 1}
        }
        assert twisted["outputs"][0] == (
            "the twisted attachment is never Stein: "
            "framing 1 ≠ tb − 1 for exhibited tb ≤ 1"
        )


def test_criterion_06_filling_tallies_two_ways():
    with criterion(6, "concave filling tallies agree formula vs enumeration"):
        chain = mcg.chain_curves(2)
        word = TwistWord(tuple((chain[i], 1) for i in (0, 1, 2)))
        plan = build_concave(OpenBook(2, word))
        per_letter = 2 * 2 * (4 * 2 + 2) - 1
        # formula
        assert plan.relator_blocks * per_letter == 117
        assert plan.euler_char == 116
        # enumeration: each block's letters are c2 ... c4 (c1 ... c4)^9 read as S c_k
        letters = []
        for block in plan.blocks:
            conj = [(mcg.Curve(f"S c{k + 1}", v), 1) for k, v in enumerate(block.chain_images)]
            letters.extend(conj[1:] + conj * (4 * 2 + 1))
        trivializing = TwistWord(tuple(letters))
        assert len(trivializing.letters) == 117
        assert 1 + len(trivializing.letters) + (2 - 2 * 2) == 116
        assert plan.euler_char == 1 + plan.trivializing_handles - 2


def test_criterion_07_degree_formula_against_rational_oracle():
    with criterion(7, "degree formula matches the rational oracle"):
        rng = random.Random(7)
        for _ in range(20):
            c1sq, sigma, chi = (rng.randint(-50, 50) for _ in range(3))
            got = hfcert.degree_shift(hfcert.SpinCDecoration(c1sq, sigma, chi))
            oracle = (
                Fraction(c1sq, 4) - Fraction(3 * sigma, 4) - Fraction(chi, 2)
            )
            assert got == oracle
        zero = hfcert.degree_shift(hfcert.SpinCDecoration(0, 0, 0))
        assert hfcert.degree_shift(hfcert.SpinCDecoration(1, 0, 0)) - zero == (
            Fraction(1, 4)
        )
        assert hfcert.degree_shift(hfcert.SpinCDecoration(0, 1, 0)) - zero == (
            Fraction(-3, 4)
        )
        assert hfcert.degree_shift(hfcert.SpinCDecoration(0, 0, 1)) - zero == (
            Fraction(-1, 2)
        )


def test_criterion_08_adjunction_rule_exhaustive():
    with criterion(8, "adjunction rule agrees with the direct inequality"):
        for g in (1, 2, 3):
            for self_int in range(5):
                for pairing in range(-6, 7):
                    direct = abs(pairing) + self_int > 2 * g - 2
                    assert hfcert.adjunction_violated(
                        g, self_int, pairing
                    ) is direct
        for pairing in range(-6, 7):
            assert hfcert.adjunction_violated(1, 1, pairing) is True


def test_criterion_09_end_to_end_certificate(fixtures, tmp_path):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    with criterion(9, "certificate pipeline is distinct, fast, tamper-evident"):
        cert_path = tmp_path / "cert.json"
        t0 = time.perf_counter()
        code, out = run([
            "certify",
            str(fixtures / "mazur.kirby"),
            str(fixtures / "mazur_inflated.palf"),
            str(fixtures / "trefoil_inflation.spec"),
            "--format", "doc", "--out", str(cert_path),
        ])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 5.0

        bundle = json.loads(out)
        assert bundle["certificate"]["verdict"] == "DISTINCT"
        inv = bundle["relative_invariant"]
        assert inv["first"] == {"magnitude": 1, "sign_ambiguous": True}
        assert inv["second"] == 0
        assert "does not extend" in bundle["non_extension"]["statement"]
        assert "homeomorphic but not diffeomorphic" in (
            bundle["fake_pair"]["statement"]
        )

        cert_doc = json.loads(cert_path.read_text())
        assert hfcert.validate_certificate(cert_doc) == []
        for step in cert_doc["steps"]:
            for cond in step["side_conditions"]:
                assert hfcert.eval_condition(cond) is True

        # every single recorded evidence integer is load-bearing
        def integer_paths(value, path=()):
            if isinstance(value, dict):
                items = value.items()
            elif isinstance(value, list):
                items = enumerate(value)
            else:
                yield path
                return
            for key, item in items:
                yield from integer_paths(item, path + (key,))

        sites = 0
        for si, step in enumerate(cert_doc["steps"]):
            for ci, cond in enumerate(step["side_conditions"]):
                for *head, last in integer_paths(cond["evidence"]):
                    sites += 1
                    bad = copy.deepcopy(cert_doc)
                    target = bad["steps"][si]["side_conditions"][ci]["evidence"]
                    for key in head:
                        target = target[key]
                    target[last] += 1
                    bad_path = tmp_path / "mutated.json"
                    bad_path.write_text(json.dumps(bad))
                    vcode, _ = run(["certify", "--validate", str(bad_path)])
                    assert vcode == 1, (si, ci, head, last)
        assert sites >= 20

        # the replay layer catches a mutation even with a fresh digest
        forged = copy.deepcopy(cert_doc)
        relator = forged["steps"][2]["side_conditions"][1]
        assert relator["check"] == "relator_handles"
        relator["evidence"]["handles"] += 1
        forged["digest"] = hfcert.certificate_digest(forged)
        assert hfcert.validate_certificate(forged) != []


def test_criterion_10_three_sphere_towers():
    with criterion(10, "three-sphere tower groups match the published table"):
        for n in range(-20, 21):
            plus, minus = hfcert.hf_s3("+", n), hfcert.hf_s3("-", n)
            if n % 2 == 0 and n >= 0:
                assert plus.rank == 1 and not plus.torsion
            else:
                assert plus.is_trivial
            if n % 2 == 0 and n <= -2:
                assert minus.rank == 1 and not minus.torsion
            else:
                assert minus.is_trivial
