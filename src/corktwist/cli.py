"""Command-line front end.

Exit codes are uniform across subcommands: 0 affirmative, 1 negative or
aborted, 2 unreadable input, 3 inconclusive.  Structured output
(--format doc) is canonical JSON with sorted keys and no timestamps, so
the same invocation on the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import os
import sys
from pathlib import Path

# each handler imports the modules it uses, so that a call loads only its
# own subcommand's code
from .base import InputError, dump_json, load_json, parse_int, read_text, spell_path

PARSE_ERROR, ABORTED, INCONCLUSIVE = 2, 1, 3


def _load(parse, path: str):
    """parse(text of path), with the path prefixed to a parse error."""
    text = read_text(path)
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{spell_path(path)}: {exc}") from None


def _emit_doc(doc: dict) -> None:
    print(dump_json(doc))


def _shown_path(path: str) -> str:
    """path as stdout writes it: a byte that is not UTF-8, a lone surrogate in
    argv, as itself where stdout writes surrogate escapes, else as \\xNN."""
    if getattr(sys.stdout, "errors", None) == "surrogateescape":
        return path
    return spell_path(path)


def _search_settings(args: argparse.Namespace) -> tuple[int, int]:
    """--budget and --seed, with their defaults filled in where they were not given."""
    from .moves import DEFAULT_BUDGET, DEFAULT_SEED
    return (
        DEFAULT_BUDGET if args.budget is None else args.budget,
        DEFAULT_SEED if args.seed is None else args.seed,
    )


# -- subcommands --------------------------------------------------------------

def cmd_tb(args: argparse.Namespace) -> int:
    from . import front
    d = _load(front.parse_front, args.front_path)
    comps = d.components()
    component = args.component
    if component is None:
        if len(comps) != 1:
            raise InputError(
                f"front has components {comps}; pick one with --component"
            )
        component = comps[0]
    elif component not in comps:
        raise InputError(f"front has no component {component!r}")
    report = d.tb_report(component)
    if args.format == "doc":
        _emit_doc(report)
        return 0
    print(f"component {component}")
    for c in report["crossings"]:
        x, y = c["point"]
        print(f"  crossing at ({x}, {y}): sign {c['sign']:+d}")
    for x, y in report["cusps"]:
        print(f"  cusp at ({x}, {y})")
    print(f"writhe {report['writhe']}, cusps {report['cusp_count']}")
    if report["handle_passes"]:
        print(f"handle passes {report['handle_passes']} ({report['handle_convention']})")
    print(f"tb = {report['tb']}")
    return 0


def cmd_admissible(args: argparse.Namespace) -> int:
    from . import kirby
    d = _load(kirby.parse_kirby, args.diagram_path)
    budget, seed = _search_settings(args)
    try:
        rep = kirby.check_admissible(d, budget=budget, seed=seed)
    except kirby.KirbyError as exc:
        print(f"admissibility aborted: {exc}", file=sys.stderr)
        return ABORTED
    if args.format == "doc":
        _emit_doc({"report": rep, "budget": budget, "seed": seed})
    else:
        for comp, status in rep["cond1"].items():
            print(f"condition 1 [{comp}]: {status}")
        cond3, cond4 = rep["cond3"], rep["cond4prime"]
        print(f"condition 2: {rep['cond2']} ({rep['cond2_detail']})")
        print(f"condition 3: {cond3['status']} (linking number {cond3['value']})")
        print(f"condition 4': {cond4['status']} ({cond4['detail']})")
        print(f"budget {budget}, seed {seed}")
        print(f"verdict: {rep['verdict']}")
    if rep["verdict"] == "admissible":
        return 0
    if rep["verdict"] == "not admissible":
        return ABORTED
    return INCONCLUSIVE


def cmd_homology(args: argparse.Namespace) -> int:
    from . import kirby
    rep = kirby.homology(_load(kirby.parse_kirby, args.diagram_path))
    if args.format == "doc":
        _emit_doc(rep)
        return 0
    for i, g in enumerate(rep["h_of_W"]):
        print(f"H_{i}(W) = {g['pretty']}")
    for i, g in enumerate(rep["h_of_boundary"]):
        print(f"H_{i}(boundary) = {g['pretty']}")
    print(f"contractible: {rep['is_contractible']}")
    print(f"homology sphere boundary: {rep['is_homology_sphere']}")
    return 0


def cmd_twist(args: argparse.Namespace) -> int:
    from . import kirby
    d = _load(kirby.parse_kirby, args.diagram_path)
    try:
        t = kirby.cork_twist(d)
    except kirby.KirbyError as exc:
        print(f"twist aborted: {exc}", file=sys.stderr)
        return ABORTED
    if args.format == "doc":
        _emit_doc(kirby.kirby_to_doc(t))
    else:
        print(kirby.kirby_to_text(t), end="")
    return 0


def cmd_fill(args: argparse.Namespace) -> int:
    from . import fillings
    from .base import ASSUMPTIONS, PLAN_ASSUMPTIONS
    p = _load(fillings.parse_palf, args.palf_path)
    plan = fillings.build_concave(fillings.palf_to_openbook(p))
    if args.format == "doc":
        _emit_doc(plan.to_doc())
        return 0
    print(f"fiber genus {plan.fiber_genus} "
          f"(stabilized {plan.stabilizations} times from genus {p.page_genus})")
    print(f"trivializing handles {plan.trivializing_handles} "
          f"in {plan.relator_blocks} relator blocks")
    print(f"closing piece euler characteristic {2 - 2 * plan.fiber_genus}")
    print(f"plan euler characteristic {plan.euler_char}")
    for name in PLAN_ASSUMPTIONS:
        print(f"assumption [{name}]: {ASSUMPTIONS[name]}")
    return 0


def cmd_mcg(args: argparse.Namespace) -> int:
    from . import mcg
    genus = args.chain_genus if args.chain_genus is not None else args.genus
    if genus is None:
        raise InputError("mcg verify-chain needs a genus (positional or --genus)")
    if args.genus is not None and args.genus != genus:
        raise InputError(f"mcg verify-chain got genus {genus} and --genus {args.genus}")
    if not 1 <= genus <= mcg.MAX_GENUS:
        raise InputError(f"genus must be between 1 and {mcg.MAX_GENUS}, got {genus}")
    ok = mcg.verify_chain_relation(genus)
    if args.format == "doc":
        _emit_doc({"genus": genus, "chain_relation_holds": ok})
    else:
        power = 4 * genus + 2
        print(f"genus {genus}: the {power}-th power of the chain twist word "
              f"{'acts trivially' if ok else 'does NOT act trivially'} on H1")
    return 0 if ok else ABORTED


def _human_certificate(cert: dict) -> None:
    from .hfcert import condition_text
    lines = []
    for i, step in enumerate(cert["steps"], start=1):
        lines.append(f"step {i}: {step['rule']}")
        lines.append(f"    {step['quote']}")
        lines.extend(f"    check {condition_text(c, cert['facts'])}" for c in step["checks"])
        lines.extend(f"    => {out}" for out in step["outputs"])
    lines.append(f"verdict: {cert['verdict']}")
    print("\n".join(lines))


def cmd_certify(args: argparse.Namespace) -> int:
    from . import hfcert
    validate, out = args.validate, args.out
    if validate is not None:
        if args.inputs or out is not None or args.budget is not None or args.seed is not None:
            raise InputError(
                "certify --validate takes no DIAGRAM PALF INFLATION, --out, --budget or --seed"
            )
        doc = load_json(read_text(validate), InputError, f"{spell_path(validate)}: ")
        problems = hfcert.validate_certificate(doc)
        if args.format == "doc":
            fields = doc if isinstance(doc, dict) else {}
            steps, verdict = fields.get("steps"), fields.get("verdict")
            _emit_doc({
                "problems": problems,
                "steps": len(steps) if isinstance(steps, list) else 0,
                "valid": not problems,
                "verdict": verdict if isinstance(verdict, str) else None,
            })
        elif problems:
            for p in problems:
                print(f"invalid: {p}")
        else:
            print(f"certificate valid: verdict {doc.get('verdict')}, "
                  f"{len(doc.get('steps', []))} steps re-checked")
        return ABORTED if problems else 0

    if len(args.inputs) != 3:
        raise InputError("certify wants DIAGRAM PALF INFLATION, or --validate CERT_JSON")
    from . import fillings, kirby
    cork_path, palf_path, spec_path = args.inputs
    cork = _load(kirby.parse_kirby, cork_path)
    palf = _load(fillings.parse_palf, palf_path)
    pair = _load(lambda text: kirby.parse_inflation_spec(text, Path(spec_path).parent),
                 spec_path)

    budget, seed = _search_settings(args)
    try:
        adm = kirby.check_admissible(cork, budget=budget, seed=seed)
        if adm["verdict"] == "inconclusive":
            print(f"certification inconclusive: cork admissibility undecided "
                  f"at budget {budget}, seed {seed}", file=sys.stderr)
            return INCONCLUSIVE
        plan = fillings.build_concave(fillings.palf_to_openbook(palf))
        cert_doc = hfcert.certify_distinct(cork, adm, pair, plan)
    except hfcert.CertificateAbort as exc:
        print(f"certification aborted: {exc}", file=sys.stderr)
        if exc.check is not None:
            print(f"failing check: {hfcert.condition_text(exc.check, exc.facts)}", file=sys.stderr)
        return ABORTED
    except kirby.KirbyError as exc:
        print(f"certification aborted: {exc}", file=sys.stderr)
        return ABORTED

    if out is not None:
        try:
            Path(out).write_text(dump_json(cert_doc) + "\n", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {spell_path(out)}: {exc.strerror}") from None
        except ValueError as exc:  # a NUL in the path
            raise InputError(f"cannot write {spell_path(out)}: {exc}") from None
    non_extension = hfcert.non_extension_fact(cert_doc["digest"])
    first, second = non_extension["relative_values"]
    bundle = {
        "certificate": cert_doc,
        "relative_invariant": {"first": first, "second": second},
        "non_extension": non_extension,
        "fake_pair": hfcert.fake_pair_report(),
        "budget": budget,
        "seed": seed,
    }
    if args.format == "doc":
        _emit_doc(bundle)
    else:
        _human_certificate(cert_doc)
        print(f"relative invariant: (±{first['magnitude']}, {second})")
        print(non_extension["statement"])
        print(bundle["fake_pair"]["statement"])
        if out is not None:
            print(f"certificate written to {_shown_path(out)}")
    return 0


# -- argument plumbing --------------------------------------------------------

def _int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _budget(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no state in it."""
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("human", "doc"), default="human")
    searched = argparse.ArgumentParser(add_help=False, parents=[formatted])
    # None marks a flag not given: `certify --validate` rejects either one
    searched.add_argument("--budget", type=_budget, default=None)
    searched.add_argument("--seed", type=_int, default=None)

    parser = argparse.ArgumentParser(
        prog="corktwist",
        description="analyze symmetric 2-handlebody diagrams and their fillings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, parent, help):
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(run=run)
        return p

    p_tb = command("tb", cmd_tb, formatted, "Thurston-Bennequin number of a front")
    p_tb.add_argument("front_path")
    p_tb.add_argument("--component", default=None)
    command("admissible", cmd_admissible, searched,
            "run the four cork-candidate checks").add_argument("diagram_path")
    command("homology", cmd_homology, formatted,
            "homology of the handlebody and its boundary").add_argument("diagram_path")
    command("twist", cmd_twist, formatted,
            "exchange dot and zero-framing along the involution").add_argument("diagram_path")
    command("fill", cmd_fill, formatted,
            "plan a concave filling for a fibration word").add_argument("palf_path")

    p_mcg = command("mcg", cmd_mcg, formatted, "mapping-class sanity checks")
    p_mcg.add_argument("check", choices=("verify-chain",))
    p_mcg.add_argument("chain_genus", type=_int, nargs="?", default=None)
    p_mcg.add_argument("--genus", type=_int, default=None)

    p_cert = command("certify", cmd_certify, searched,
                     "emit or validate a distinctness certificate")
    p_cert.add_argument("inputs", nargs="*",
                        metavar="DIAGRAM PALF INFLATION",
                        help="cork diagram, fibration word, inflation spec")
    p_cert.add_argument("--validate", default=None, metavar="CERT_JSON")
    p_cert.add_argument("--out", default=None, metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    # stdout and stderr are written as UTF-8 whatever the locale, as input
    # files are read and --out files written, each with the stream's own
    # error handler; a stream that is not a text file, such as a StringIO,
    # is left as it is
    for stream in (sys.stdout, sys.stderr):
        if isinstance(stream, io.TextIOWrapper) and codecs.lookup(stream.encoding).name != "utf-8":
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else PARSE_ERROR
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so that the interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return ABORTED


if __name__ == "__main__":
    sys.exit(main())
