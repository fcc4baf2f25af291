"""Command line interface.

    pvx run <scenario-file> [--seed N] [--format text|structured] [--report PATH]
    pvx matrix --mode supported|mediated [--credentialed]
    pvx attack --sampler uniform|age-biased --ring-size K --trials T [--seed N]

Exit codes for `run`: 0 all expectations met, 1 expectation mismatch,
2 parse/config error, 3 consensus safety violation.
"""

from __future__ import annotations

import argparse
import sys

from .blindsig import (
    credential_finalize,
    credential_issue,
    credential_request,
    issuer_keygen,
)
from .consensus import SafetyViolation
from .group import get_profile
from .observer import HEURISTICS, make_spend_corpus, run_link_attack
from .policy import Mode, RuleSet, authorize_matrix
from .scenario import (
    INT_RANGES,
    ScenarioError,
    emit_report,
    load_scenario,
    run_scenario,
)
from .txbuild import SAMPLERS, make_sampler


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_scenario(scenario, seed=args.seed)
    except SafetyViolation as exc:
        print(f"CONSENSUS SAFETY VIOLATION: {exc}", file=sys.stderr)
        return 3
    report = emit_report(result, args.format)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(emit_report(result, "structured"))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(report, end="")
    return 1 if result.mismatches else 0


def _cmd_matrix(args) -> int:
    mode = Mode.SUPPORTED if args.mode == "supported" else Mode.MEDIATED
    credential = None
    trusted = ()
    if args.credentialed:
        keypair = issuer_keygen(b"pvx-matrix-demo-issuer")
        request = credential_request(keypair.public, serial=1,
                                     unblinder=0xC0FFEE)
        credential = credential_finalize(
            keypair.public, request, credential_issue(keypair, request.blinded))
        trusted = (keypair.public,)
    ruleset = RuleSet(mode, credential_issuers=trusted)
    cells = authorize_matrix(ruleset, credential)
    print(f"policy matrix, mode={mode.value}"
          + (", with valid credential" if credential else ""))
    print(f"{'kind':<20} {'source':<28} {'dest':<28} verdict")
    print("-" * 92)
    for cell in cells:
        src = f"{cell.source_class.value}/{cell.source_kind.value}"
        dst = f"{cell.dest_class.value}/{cell.dest_kind.value}"
        verdict = cell.verdict
        if cell.reason is not None:
            verdict += f"({cell.reason.value})"
        print(f"{cell.tx_kind.value:<20} {src:<28} {dst:<28} {verdict}")
    counts = {}
    for cell in cells:
        counts[cell.verdict] = counts.get(cell.verdict, 0) + 1
    print("-" * 92)
    print(f"{len(cells)} cells: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _int_of(kind: str):
    """argparse type for an integer in the scenario parser's range for
    `kind`, so the command line accepts what a document does."""
    lo, hi = INT_RANGES[kind]

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"must be at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(
                f"must be at most {hi}, got {value}")
        return value

    return parse


def _cmd_attack(args) -> int:
    corpus = make_spend_corpus(get_profile("test"), args.trials,
                               args.ring_size, make_sampler(args.sampler),
                               seed=args.seed)
    print(f"decoy sampler={args.sampler} ring={args.ring_size} "
          f"trials={args.trials} seed={args.seed}")
    print(f"{'heuristic':<18} {'accuracy':>9} {'baseline':>9} {'z-score':>9}")
    for heuristic in HEURISTICS:
        stats = run_link_attack(corpus, heuristic, seed=args.seed)
        print(f"{heuristic:<18} {stats.accuracy:>9.4f} "
              f"{stats.baseline:>9.4f} {stats.z_score:>+9.2f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pvx",
        description="Deterministic simulator for institutionally supported "
                    "and mediated private value exchange.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=_int_of("seed"), default=None,
                       help="override the scenario's consensus seed")
    p_run.add_argument("--format", choices=("text", "structured"),
                       default="text")
    p_run.add_argument("--report", help="also write a structured report here")
    p_run.set_defaults(func=_cmd_run)

    p_matrix = sub.add_parser("matrix", help="print the policy allow/deny matrix")
    p_matrix.add_argument("--mode", choices=("supported", "mediated"),
                          required=True)
    p_matrix.add_argument("--credentialed", action="store_true",
                          help="decide the matrix for credentialed actors")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_attack = sub.add_parser("attack", help="run the linkability experiment")
    p_attack.add_argument("--sampler", choices=tuple(SAMPLERS),
                          default="uniform")
    p_attack.add_argument("--ring-size", type=_int_of("ring size"),
                          default=11)
    p_attack.add_argument("--trials", type=_int_of("positive"), default=10_000)
    p_attack.add_argument("--seed", type=_int_of("seed"), default=0)
    p_attack.set_defaults(func=_cmd_attack)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
