"""Command-line front end.

Exit codes are uniform across subcommands: 0 affirmative, 1 negative or
aborted, 2 unreadable input, 3 inconclusive.  Structured output
(--format doc) is canonical JSON with sorted keys and no timestamps, so
the same invocation on the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import fillings, front, hfcert, kirby, mcg

PARSE_ERROR, ABORTED, INCONCLUSIVE = 2, 1, 3


@dataclass(frozen=True)
class RunConfig:
    paths: tuple[str, ...]
    budget: int = 2000
    fmt: str = "human"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be non-negative")


class InputFailure(Exception):
    """Wraps any parse or IO failure so main can map it to exit 2."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputFailure(f"cannot read {path}: {exc.strerror}")


def _parse_front(path: str) -> front.FrontDiagram:
    try:
        return front.parse_front(_read(path))
    except front.FrontError as exc:
        raise InputFailure(f"{path}: {exc}")


def _parse_kirby(path: str) -> kirby.KirbyDiagram:
    try:
        return kirby.parse_kirby(_read(path))
    except (front.FrontError, kirby.KirbyError) as exc:
        raise InputFailure(f"{path}: {exc}")


def _parse_palf(path: str) -> fillings.PALF:
    try:
        return fillings.parse_palf(_read(path))
    except fillings.FillingError as exc:
        raise InputFailure(f"{path}: {exc}")


def _emit_doc(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False))


# -- subcommands --------------------------------------------------------------

def cmd_tb(cfg: RunConfig, component: str | None) -> int:
    d = _parse_front(cfg.paths[0])
    comps = d.components()
    if component is None:
        if len(comps) != 1:
            raise InputFailure(
                f"front has components {comps}; pick one with --component"
            )
        component = comps[0]
    elif component not in comps:
        raise InputFailure(f"front has no component {component!r}")
    report = d.tb_report(component)
    if cfg.fmt == "doc":
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


def cmd_admissible(cfg: RunConfig) -> int:
    d = _parse_kirby(cfg.paths[0])
    rep = kirby.check_admissible(d, budget=cfg.budget, seed=cfg.seed)
    if cfg.fmt == "doc":
        _emit_doc({"report": rep.to_doc(), "budget": cfg.budget, "seed": cfg.seed})
    else:
        for comp, status in rep.cond1:
            print(f"condition 1 [{comp}]: {status}")
        print(f"condition 2: {rep.cond2} ({rep.cond2_detail})")
        print(f"condition 3: {rep.cond3_status} (linking number {rep.cond3_value})")
        print(f"condition 4': {rep.cond4prime_status} ({rep.cond4prime_detail})")
        print(f"budget {cfg.budget}, seed {cfg.seed}")
        print(f"verdict: {rep.verdict}")
    if rep.verdict == "admissible":
        return 0
    if rep.verdict == "not admissible":
        return ABORTED
    return INCONCLUSIVE


def cmd_homology(cfg: RunConfig) -> int:
    d = _parse_kirby(cfg.paths[0])
    rep = kirby.homology(d)
    if cfg.fmt == "doc":
        _emit_doc(rep.to_doc())
        return 0
    for i, g in enumerate(rep.h_of_W):
        print(f"H_{i}(W) = {g.describe()}")
    for i, g in enumerate(rep.h_of_boundary):
        print(f"H_{i}(boundary) = {g.describe()}")
    print(f"contractible: {rep.is_contractible}")
    print(f"homology sphere boundary: {rep.is_homology_sphere}")
    return 0


def cmd_twist(cfg: RunConfig) -> int:
    d = _parse_kirby(cfg.paths[0])
    try:
        t = kirby.cork_twist(d)
    except kirby.KirbyError as exc:
        print(f"twist aborted: {exc}", file=sys.stderr)
        return ABORTED
    if cfg.fmt == "doc":
        _emit_doc(kirby.kirby_to_doc(t))
    else:
        print(kirby.kirby_to_text(t), end="")
    return 0


def cmd_fill(cfg: RunConfig) -> int:
    p = _parse_palf(cfg.paths[0])
    try:
        plan = fillings.build_concave(fillings.palf_to_openbook(p))
    except fillings.FillingError as exc:
        print(f"fill aborted: {exc}", file=sys.stderr)
        return ABORTED
    if cfg.fmt == "doc":
        _emit_doc(plan.to_doc())
        return 0
    print(f"fiber genus {plan.fiber_genus} "
          f"(stabilized {plan.stabilizations} times from genus {p.page_genus})")
    print(f"trivializing handles {len(plan.trivializing_handles)} "
          f"in {plan.relator_blocks} relator blocks")
    print(f"closing piece euler characteristic {2 - 2 * plan.fiber_genus}")
    print(f"plan euler characteristic {plan.euler_char}")
    for a in plan.assumptions:
        print(f"assumption [{a.name}]: {a.statement}")
    return 0


def cmd_mcg(cfg: RunConfig, genus: int) -> int:
    if genus < 1:
        raise InputFailure(f"genus must be at least 1, got {genus}")
    ok = mcg.verify_chain_relation(genus)
    if cfg.fmt == "doc":
        _emit_doc({"genus": genus, "chain_relation_holds": ok})
    else:
        power = 4 * genus + 2
        print(f"genus {genus}: the {power}-th power of the chain twist word "
              f"{'acts trivially' if ok else 'does NOT act trivially'} on H1")
    return 0 if ok else ABORTED


def _human_certificate(cert: hfcert.Certificate) -> None:
    for i, step in enumerate(cert.steps, start=1):
        print(f"step {i}: {step.rule}")
        print(f"    {step.quote}")
        for cond in step.side_conditions:
            print(f"    check {cond.expr}  [{cond.value}]")
        for out in step.outputs:
            print(f"    => {out}")
    print(f"verdict: {cert.verdict}")


def cmd_certify(cfg: RunConfig, validate: str | None, out: str | None) -> int:
    if validate is not None:
        try:
            doc = json.loads(_read(validate))
        except json.JSONDecodeError as exc:
            raise InputFailure(f"{validate}: not valid JSON: {exc}")
        except RecursionError:
            raise InputFailure(f"{validate}: JSON is nested too deeply") from None
        problems = hfcert.validate_certificate(doc)
        if problems:
            for p in problems:
                print(f"invalid: {p}")
            return ABORTED
        print(f"certificate valid: verdict {doc.get('verdict')}, "
              f"{len(doc.get('steps', []))} steps re-checked")
        return 0

    cork = _parse_kirby(cfg.paths[0])
    palf = _parse_palf(cfg.paths[1])
    spec_path = Path(cfg.paths[2])
    try:
        pair = kirby.parse_inflation_spec(_read(cfg.paths[2]), spec_path.parent)
    except (front.FrontError, kirby.KirbyError) as exc:
        raise InputFailure(f"{cfg.paths[2]}: {exc}")

    adm = kirby.check_admissible(cork, budget=cfg.budget, seed=cfg.seed)
    if adm.verdict == "inconclusive":
        print(f"certification inconclusive: cork admissibility undecided "
              f"at budget {cfg.budget}, seed {cfg.seed}", file=sys.stderr)
        return INCONCLUSIVE

    try:
        untwisted = kirby.inflate(
            cork, pair.untwisted_front, pair.framing, pair.untwisted_component
        )
        hfcert.require_untwisted_exact(untwisted)
        twisted_cork = kirby.cork_twist(cork)
        twisted = kirby.inflate(
            twisted_cork, pair.twisted_front, pair.framing, pair.twisted_component
        )
        plan = fillings.extend_with_cobordism(untwisted, palf)
        cert = hfcert.certify_distinct(cork, adm, untwisted, plan, twisted=twisted)
    except hfcert.CertificateAbort as exc:
        print(f"certification aborted: {exc}", file=sys.stderr)
        if exc.condition is not None:
            print(
                f"failing side condition: {exc.condition['expr']} "
                f"is {exc.condition['value']}",
                file=sys.stderr,
            )
        return ABORTED
    except (kirby.KirbyError, fillings.FillingError, hfcert.HFError) as exc:
        print(f"certification aborted: {exc}", file=sys.stderr)
        return ABORTED

    cert_doc = cert.to_doc()
    if out is not None:
        Path(out).write_text(
            json.dumps(cert_doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        )
    non_extension = hfcert.non_extension_fact(cert_doc["digest"])
    first, second = non_extension["relative_values"]
    bundle = {
        "certificate": cert_doc,
        "relative_invariant": {"first": first, "second": second},
        "non_extension": non_extension,
        "fake_pair": hfcert.fake_pair_report(plan),
        "budget": cfg.budget,
        "seed": cfg.seed,
    }
    if cfg.fmt == "doc":
        _emit_doc(bundle)
    else:
        _human_certificate(cert)
        print(f"relative invariant: (±{first['magnitude']}, {second})")
        print(non_extension["statement"])
        print(bundle["fake_pair"]["statement"])
        if out is not None:
            print(f"certificate written to {out}")
    return 0


# -- argument plumbing --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "doc"), default="human")
    common.add_argument("--budget", type=int, default=2000)
    common.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="corktwist",
        description="analyze symmetric 2-handlebody diagrams and their fillings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tb = sub.add_parser("tb", parents=[common],
                          help="Thurston-Bennequin number of a front")
    p_tb.add_argument("front_path")
    p_tb.add_argument("--component", default=None)

    p_adm = sub.add_parser("admissible", parents=[common],
                           help="run the four cork-candidate checks")
    p_adm.add_argument("diagram_path")

    p_hom = sub.add_parser("homology", parents=[common],
                           help="homology of the handlebody and its boundary")
    p_hom.add_argument("diagram_path")

    p_twist = sub.add_parser("twist", parents=[common],
                             help="exchange dot and zero-framing along the involution")
    p_twist.add_argument("diagram_path")

    p_fill = sub.add_parser("fill", parents=[common],
                            help="plan a concave filling for a fibration word")
    p_fill.add_argument("palf_path")

    p_mcg = sub.add_parser("mcg", parents=[common],
                           help="mapping-class sanity checks")
    p_mcg.add_argument("check", choices=("verify-chain",))
    p_mcg.add_argument("chain_genus", type=int, nargs="?", default=None)
    p_mcg.add_argument("--genus", type=int, default=None)

    p_cert = sub.add_parser("certify", parents=[common],
                            help="emit or validate a distinctness certificate")
    p_cert.add_argument("inputs", nargs="*",
                        metavar="DIAGRAM PALF INFLATION",
                        help="cork diagram, fibration word, inflation spec")
    p_cert.add_argument("--validate", default=None, metavar="CERT_JSON")
    p_cert.add_argument("--out", default=None, metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else PARSE_ERROR

    paths: tuple[str, ...] = ()
    if args.command == "tb":
        paths = (args.front_path,)
    elif args.command in ("admissible", "homology", "twist"):
        paths = (args.diagram_path,)
    elif args.command == "fill":
        paths = (args.palf_path,)
    elif args.command == "certify":
        paths = tuple(args.inputs)

    try:
        cfg = RunConfig(
            paths=paths, budget=args.budget, fmt=args.format, seed=args.seed
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR

    try:
        if args.command == "tb":
            return cmd_tb(cfg, args.component)
        if args.command == "admissible":
            return cmd_admissible(cfg)
        if args.command == "homology":
            return cmd_homology(cfg)
        if args.command == "twist":
            return cmd_twist(cfg)
        if args.command == "fill":
            return cmd_fill(cfg)
        if args.command == "mcg":
            genus = args.chain_genus if args.chain_genus is not None else args.genus
            if genus is None:
                raise InputFailure("mcg verify-chain needs a genus (positional or --genus)")
            return cmd_mcg(cfg, genus)
        if args.command == "certify":
            if args.validate is None and len(cfg.paths) != 3:
                raise InputFailure(
                    "certify wants DIAGRAM PALF INFLATION, or --validate CERT_JSON"
                )
            return cmd_certify(cfg, args.validate, args.out)
        raise InputFailure(f"unknown command {args.command!r}")
    except InputFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
