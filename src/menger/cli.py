"""Command line interface: check, embed, verify, oracle.

Exit codes are a total function of the outcome class: 0 success, 1 input
error, 2 hypothesis failure, 3 construction failure, 4 verification
failure.  All output is deterministic: no timestamps, sorted JSON keys,
seeded sampling only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any

from . import __version__
from .covers import BACKEND_BRICKS, BACKEND_CELLS
from .errors import (
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_VERIFICATION,
    InputError,
    MengerError,
    VerificationError,
)
from .io import (
    fr_str,
    hash_file,
    hypothesis_doc,
    load_action,
    load_certificate,
    load_coords,
    load_family,
    load_observable,
    load_space,
    parse_fraction,
    require_metric,
    verify_certificate,
    write_certificate,
    write_json,
    write_orbit_csv,
)
from .fixtures import run_cover_oracle
from .gate import action_stages, check_hypotheses_action, check_hypotheses_family
from .pipeline import embed_equivariant, embed_family
from .space import DEFAULT_GROUP_CAP, as_index
from .witness import run_witness_oracle


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors: one line, exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _margin_text(margin_str: str) -> str:
    return "infinite (vacuous)" if margin_str == "inf" else margin_str


def cmd_check(args: argparse.Namespace) -> int:
    # check is the front door for the triangle inequality: the loaders test
    # only the O(n^2) axioms, and embed and verify need no more
    space = load_space(args.space)
    require_metric(space, args.space)
    if args.action:
        action, stages = load_action(args.action, space, args.group_cap)
        report = check_hypotheses_action(action, args.r, action_stages(action, stages, args.r))
    else:
        family = load_family(args.family, space)
        if family.source is not space:
            require_metric(family.source, args.family)
        report = check_hypotheses_family(family, args.r)
    for check in report.checks:
        print(check.describe())
    verdict = "PASS" if report.passed else "FAIL"
    print(f"hypotheses: {verdict} ({len(report.checks)} checks, r={args.r})")
    if args.out:
        write_json(args.out, hypothesis_doc(report))
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def cmd_embed(args: argparse.Namespace) -> int:
    out = args.out or "certificate.json"
    # the orbit table goes to the certificate's name with a .csv extension,
    # so a certificate named *.csv would be overwritten by its own table
    if os.path.splitext(out)[1].lower() == ".csv":
        raise InputError(f"{out}: the certificate cannot end in .csv, the orbit table's extension")
    # each loader reads its file once and records the hash of those bytes
    input_hashes: dict[str, str] = {}
    space = load_space(args.space, record=input_hashes)
    eps = parse_fraction(args.eps, "--eps")
    coords = load_coords(args.coords, record=input_hashes) if args.coords else None
    f0 = load_observable(args.f0, space, record=input_hashes) if args.f0 else None

    if args.action:
        action, stages = load_action(args.action, space, args.group_cap, record=input_hashes)
        cert = embed_equivariant(
            action,
            args.r,
            eps,
            f0=f0,
            seed=args.seed,
            stages=stages,
            backend=args.backend,
            coords=coords,
        )
    else:
        family = load_family(args.family, space, record=input_hashes)
        cert = embed_family(
            family,
            args.r,
            eps,
            f0=f0,
            seed=args.seed,
            backend=args.backend,
            coords=coords,
        )

    config = {"group_cap": args.group_cap}
    payload = write_certificate(out, cert, config, input_hashes)
    csv_files = write_orbit_csv(os.path.splitext(out)[0] + ".csv", payload)

    print(f"perturbations: {len(cert.blocks)} blocks")
    print(f"margin: {_margin_text(payload['margin'])}")
    print(f"displacement: {fr_str(cert.displacement)} (budget {fr_str(cert.eps)})")
    print(f"certificate: {out}")
    for name in csv_files:
        print(f"orbit table: {name}")
    return EXIT_OK


def _recorded_cap(cert: dict[str, Any]) -> int:
    """The group cap the certificate was made with; a malformed record fails verification."""
    config = cert.get("config", {})
    if not isinstance(config, dict):
        raise VerificationError("config: expected an object of settings")
    raw = config.get("group_cap")
    if raw is None:
        return DEFAULT_GROUP_CAP
    try:
        return as_index(raw, "group_cap")
    except InputError:
        raise VerificationError(f"config: group_cap must be an integer, got {raw!r}") from None


def cmd_verify(args: argparse.Namespace) -> int:
    cert = load_certificate(args.cert)
    # a loaded input records the hash of the bytes it parsed; without a
    # space an action or family cannot be loaded, so only its hash is taken
    input_hashes: dict[str, str] = {}
    space = load_space(args.space, record=input_hashes) if args.space else None
    action = None
    stages = None
    family = None
    if args.action:
        if space is None:
            input_hashes["action"] = hash_file(args.action)
        else:
            cap = _recorded_cap(cert)
            action, stages = load_action(args.action, space, cap, record=input_hashes)
    if args.family:
        if space is None:
            input_hashes["family"] = hash_file(args.family)
        else:
            family = load_family(args.family, space, record=input_hashes)

    issues = verify_certificate(
        cert,
        space=space,
        action=action,
        family=family,
        input_hashes=input_hashes,
        stages=stages,
    )
    if issues:
        for issue in issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_VERIFICATION
    print(f"certificate OK: margin {_margin_text(cert['margin'])}, "
          f"displacement {cert['displacement']}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    failures = 0
    summary: dict[str, Any] = {}
    if args.scope in ("lemmas", "all"):
        res = run_witness_oracle(4, 3, 3)
        print(
            f"witness oracle: {len(res.failures)} failures / {res.instances} instances "
            f"(kind A: {res.a_witnesses}, kind B: {res.b_witnesses})"
        )
        failures += len(res.failures)
        summary["lemmas"] = {
            "instances": res.instances,
            "a_witnesses": res.a_witnesses,
            "b_witnesses": res.b_witnesses,
            "failures": list(res.failures),
        }
    if args.scope in ("covers", "all"):
        res = run_cover_oracle()
        print(f"cover oracle: {res.violations} violations / {res.builds} builds")
        failures += res.violations
        summary["covers"] = {
            "builds": res.builds,
            "violations": res.violations,
            "details": list(res.details),
        }
    if args.out:
        write_json(args.out, summary)
    return EXIT_OK if failures == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="menger",
        description="Certified injective orbit maps on finite metric samples.",
    )
    parser.add_argument("--version", action="version", version=f"menger {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_inputs(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--space", required=True, help="metric space JSON file")
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--action", help="group action JSON file (generators)")
        group.add_argument("--family", help="map family JSON file")

    check = sub.add_parser("check", help="run the dimension hypothesis checks")
    add_inputs(check)
    check.add_argument("--r", type=int, required=True, help="target cube dimension")
    check.add_argument("--group-cap", type=int, default=DEFAULT_GROUP_CAP)
    check.add_argument("--out", help="write the report as JSON here")
    check.set_defaults(func=cmd_check)

    embed = sub.add_parser("embed", help="construct a certified injective orbit map")
    add_inputs(embed)
    embed.add_argument("--r", type=int, required=True)
    embed.add_argument("--eps", required=True, help="perturbation budget, e.g. 0.05 or 1/20")
    embed.add_argument("--seed", type=int, default=None, help="seed for f0 sampling")
    embed.add_argument("--f0", help="starting observable JSON file")
    embed.add_argument(
        "--backend", choices=[BACKEND_CELLS, BACKEND_BRICKS], default=BACKEND_CELLS
    )
    embed.add_argument("--coords", help="declared coordinates JSON (bricks backend)")
    embed.add_argument("--group-cap", type=int, default=DEFAULT_GROUP_CAP)
    embed.add_argument("--out", help="certificate path (default certificate.json)")
    embed.set_defaults(func=cmd_embed)

    verify = sub.add_parser("verify", help="re-verify a certificate bit-exactly")
    verify.add_argument("--cert", required=True, help="certificate JSON file")
    verify.add_argument("--space", help="metric space JSON file")
    verify.add_argument("--action", help="group action JSON file")
    verify.add_argument("--family", help="map family JSON file")
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="run the exhaustive self-test oracles")
    oracle.add_argument("--scope", choices=["lemmas", "covers", "all"], default="all")
    oracle.add_argument("--out", help="write the summary as JSON here")
    oracle.set_defaults(func=cmd_oracle)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call.

    Reuse is safe: each parse starts from a fresh namespace filled from the
    declared defaults, none of which is mutable.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MengerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
