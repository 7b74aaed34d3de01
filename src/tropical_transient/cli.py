"""Command line interface.

Subcommands: validate, derive, bound, check, transient.  Exit codes:

    0  success
    1  unreadable input or bad usage
    2  assumption (validation) failure
    3  rank-one check failure
    4  work budget exceeded

Every subcommand runs one pipeline: load the family, report it and its
validation, then add the subcommand's sections (and a deviations section
under --expected).  Validation is a gate: on a family that fails it, a
subcommand stops after the validation section with exit code 2.  Only
``transient``, whose scan assumes nothing of the family, and ``derive
--force``, which then reports the boundary matrices alone, go on.

Reports print to stdout as pretty text or JSON (--format); error
messages go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .bounds import explicit_bound, implicit_sequence_bound
from .errors import (
    AssumptionError,
    BudgetExceededError,
    FamilyFileError,
    TropicalError,
)
from .io import column_tokens, load_expected, load_family, load_sequence, matrix_tokens
from .matrix import rank_one_factor
from .products import estimate_transient, fold
from .report import (
    attach_deviations,
    base_report,
    bound_section,
    boundary_section,
    derived_section,
    lemma_section,
    render,
    transient_section,
    validation_section,
)
from .trellis import build_trellis, check_lemma_bounds, final_weights_all, initial_weights_all

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSUMPTION = 2
EXIT_RANK_ONE = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through our exit codes.
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it."""
    parser = _Parser(
        prog="tropical-transient",
        description="Max-plus matrix families: validation, transient bounds "
        "and rank-one product checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("family", help="family file (JSON)")
        p.add_argument(
            "--format",
            choices=("json", "pretty"),
            default="pretty",
            help="report format (default: pretty)",
        )

    p = sub.add_parser("validate", help="check the family assumptions")
    add_common(p)

    p = sub.add_parser("derive", help="boundary matrices and path data")
    add_common(p)
    p.add_argument(
        "--force",
        action="store_true",
        help="emit what is computable even when validation fails",
    )
    p.add_argument("--expected", help="expected-value file for a deviations section")

    p = sub.add_parser("bound", help="transient bounds (explicit, plus implicit for a sequence)")
    add_common(p)
    p.add_argument("sequence", nargs="?", help="sequence file for the implicit bound")
    p.add_argument("--expected", help="expected-value file for a deviations section")

    p = sub.add_parser("check", help="fold a sequence and test rank-one factorization")
    add_common(p)
    p.add_argument("sequence", help="sequence file (JSON array of member indices)")
    p.add_argument("--expected", help="expected-value file for a deviations section")
    p.add_argument(
        "--lemmas",
        action="store_true",
        help="also run the walk-structure checks on the trellis",
    )

    p = sub.add_parser("transient", help="scan product lengths for rank-one onset")
    add_common(p)
    p.add_argument("--horizon", type=int, required=True, help="largest length to scan")
    p.add_argument(
        "--mode",
        choices=("exhaustive", "sampled"),
        default="sampled",
        help="scan every sequence or a seeded sample (default: sampled)",
    )
    p.add_argument("--samples", type=int, default=100, help="sequences per length (sampled)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (sampled)")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the product-count budget",
    )

    return parser


def cmd_derive(args, family, report) -> int:
    if report["validation"]["passed"]:
        report["derived"] = derived_section(family)
    else:
        # Forced: only the assumption-free boundary data.
        report["derived"] = boundary_section(family)
    return EXIT_OK


def cmd_bound(args, family, report) -> int:
    report["derived"] = derived_section(family)
    explicit = explicit_bound(family)
    bounds = {}
    if args.sequence:
        seq = load_sequence(args.sequence)
        implicit = implicit_sequence_bound(family, seq)
        k = len(seq)
        bounds["explicit"] = bound_section(explicit, k)
        bounds["implicit"] = bound_section(implicit, k)
    else:
        bounds["explicit"] = bound_section(explicit)
    report["bounds"] = bounds
    return EXIT_OK


def cmd_check(args, family, report) -> int:
    seq = load_sequence(args.sequence)
    product = fold(family, seq)
    trellis = build_trellis(family, seq)
    wstar = initial_weights_all(trellis)
    vstar = final_weights_all(trellis)
    # check runs only past the validation gate, which needs every member's
    # (1,1) entry to be 0, so the product's pivot is finite.
    factors = rank_one_factor(product)
    # Tokens are written in lowest terms, so equal weights give equal
    # tokens.
    product_tokens = matrix_tokens(product)
    w_tokens, v_tokens = column_tokens(wstar), column_tokens(vstar)
    column_ok = [row[0] for row in product_tokens] == w_tokens
    row_ok = product_tokens[0] == v_tokens
    section = {
        "length": len(seq),
        "product": product_tokens,
        "rank_one": factors is not None,
        "w_star": w_tokens,
        "v_star": v_tokens,
        "column_matches_w_star": column_ok,
        "row_matches_v_star": row_ok,
        "consistent": column_ok and row_ok,
    }
    if factors is not None:
        x, y = factors
        section["factors"] = {"column": column_tokens(x), "row": column_tokens(y)}
    report["check"] = section
    if args.lemmas:
        report["lemma_checks"] = lemma_section(check_lemma_bounds(trellis))
    ok = factors is not None and section["consistent"]
    return EXIT_OK if ok else EXIT_RANK_ONE


def cmd_transient(args, family, report) -> int:
    if args.horizon < 1:
        raise UsageError("--horizon must be at least 1")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.budget is not None and args.budget < 1:
        raise UsageError("--budget must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    kwargs = {}
    if args.budget is not None:
        kwargs["max_products"] = args.budget
    estimate = estimate_transient(
        family,
        horizon=args.horizon,
        mode=args.mode,
        samples_per_length=args.samples,
        seed=args.seed,
        **kwargs,
    )
    report["transient"] = transient_section(estimate)
    return EXIT_OK


# Each handler adds its sections to a report that already holds the
# header and the validation, and returns the exit code.
_HANDLERS = {
    "validate": lambda args, family, report: EXIT_OK,
    "derive": cmd_derive,
    "bound": cmd_bound,
    "check": cmd_check,
    "transient": cmd_transient,
}


def _run(args) -> tuple[int, dict]:
    family, names = load_family(args.family)
    report = base_report(args.command, family, names)
    validation = family.validation
    report["validation"] = validation_section(validation)
    if not (validation.passed or args.command == "transient" or getattr(args, "force", False)):
        return EXIT_ASSUMPTION, report
    code = _HANDLERS[args.command](args, family, report)
    expected = getattr(args, "expected", None)
    attach_deviations(report, load_expected(expected) if expected else None)
    return code, report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, report = _run(args)
        sys.stdout.write(render(report, args.format))
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FamilyFileError, IndexError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssumptionError as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TropicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
