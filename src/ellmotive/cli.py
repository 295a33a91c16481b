"""Command-line interface.

Subcommands:
  verify <suite>     run one of projectors | divisors | boundaries | bar | all
  build-motive       assemble the motive chain for the configured functions
  report             run every suite and emit the combined report

Exit codes: 0 = all checks pass (flagged records allowed), 1 = at least one
failure, 2 = invalid input.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, default_config, load_config
from .report import Report, emit_report
from .suites import run_suite

SUITES = ("projectors", "divisors", "boundaries", "bar", "all")


def make_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering flags given before the
    # subcommand; defaults are applied after parsing
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="path to a JSON config file")
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="override the config seed"
    )
    common.add_argument("--out", default=argparse.SUPPRESS, help="write the report to this path")

    parser = argparse.ArgumentParser(
        prog="ellmotive",
        description="exact verification of elliptic-curve cycle identities",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite", parents=[common])
    p_verify.add_argument("suite", choices=SUITES)

    p_build = sub.add_parser("build-motive", help="assemble a motive chain", parents=[common])
    p_build.add_argument("--n", type=int, default=1, help="number of functions to use")

    sub.add_parser("report", help="run all suites and emit the report", parents=[common])
    return parser


def _load(args):
    config_path = getattr(args, "config", None)
    cfg = load_config(config_path) if config_path else default_config()
    seed = getattr(args, "seed", None)
    if seed is not None:
        cfg.seed = seed
        cfg.raw = dict(cfg.raw, seed=seed)
    return cfg


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    args.format = getattr(args, "format", "json")
    args.out = getattr(args, "out", None)
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            report = run_suite(cfg, args.suite)
        elif args.command == "report":
            report = run_suite(cfg, "all")
        elif args.command == "build-motive":
            report = _build_motive(cfg, args.n)
        else:  # pragma: no cover - argparse enforces the choices
            return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        payload = emit_report(report, args.format, args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(payload)
    return 1 if report.failed else 0


def _build_motive(cfg, n: int) -> Report:
    from . import barcx
    from .divisors import DegeneracyError

    report = Report(cfg.raw)
    if not 1 <= n <= len(cfg.functions):
        raise ConfigError(f"--n must be between 1 and {len(cfg.functions)}")
    gs = cfg.functions[:n]
    anchor = "the chain of successive boundaries defines a cohomology class"
    try:
        mc = barcx.build_motive_chain(cfg.curve, gs, mode=cfg.mode)
    except (barcx.ChainConstructionError, DegeneracyError) as exc:
        # a failed construction is a failed check (exit 1), not bad input
        report.add(f"build-motive:n={n}", anchor, False, exc.args[0])
        return report
    ok, _ = barcx.verify_cocycle(mc.chain)
    report.add(
        f"build-motive:n={n}",
        anchor,
        ok,
        {
            "words": len(mc.chain),
            "lengths": mc.chain.lengths(),
            "layers": [
                {"coeff": str(c), "word": [d[0] for d in descs]} for c, descs in mc.layers
            ],
        },
    )
    cert = barcx.nontriviality_witness(mc.chain)
    report.add(
        f"build-motive:witness:n={n}",
        "the final term is generically not a coboundary",
        cert.nontrivial,
        cert.reason,
    )
    return report


if __name__ == "__main__":
    sys.exit(main())
