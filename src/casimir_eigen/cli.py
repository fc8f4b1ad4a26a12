"""Command-line front end.

Subcommands:

  elementary   eigenvalue and cycle table of one elementary operator
  casimir      eigenvalue of the order-m Casimir operator at rank n
  closed-form  rank-symbolic eigenvalue of the order-m Casimir operator
  verify       cross-check the fast path against the jet oracle
  tables       per-case symbolic eigenvalue tables for m = 2, 3

Every invocation is fully determined by argv (randomized verification
requires an explicit seed), and identical argv produces byte-identical
stdout.  Exit codes: 0 success, 1 verification mismatch, 2 invalid input,
141 (128 + SIGPIPE) when the reader of stdout closed it early.

A process loads only what its subcommand runs: the jet oracle is imported
by verify_tuples and the tables module by the tables handler.  JSON is
only written here (the *_to_obj helpers; closed-form's emit_polynomial_json).

run() is the process entry of the console script and of ``python -m
casimir_eigen.cli``.  It freezes the import-time heap (gc.freeze) before
it calls main(), so neither a collection during the request nor the one
at interpreter exit walks or frees the ~13,000 objects the imports made;
that saves about 7-9 ms per request.  main() leaves the collector alone,
so its other callers see no change.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from .casimir import (
    ABOVE_MACHINE_SIZE,
    CasimirRequest,
    Exhaustive,
    RandomSample,
    VerifyReport,
    casimir_eigenvalue_patterned,
    closed_form,
    verify_tuples,
)
from .ratpoly import ClosedForm, MPoly, PowerSumPoly, format_mpoly, to_power_sum
from .tuplegraph import IndexTuple, SignConvention, elementary_eigenvalue, enumerate_cycles


# -- canonical JSON ----------------------------------------------------------


def _rat_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def mpoly_to_obj(p: MPoly) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [{"c": _rat_str(c), "e": list(e)} for e, c in p.sorted_terms()],
    }


def closed_form_to_obj(cf: ClosedForm) -> dict:
    return {
        "partitions": [
            {"parts": list(lam), "coeff_n": [_rat_str(c) for c in cs]}
            for lam, cs in cf.sorted_items()
        ]
    }


def power_sum_to_obj(q: PowerSumPoly) -> dict:
    # A power-sum value is a closed form with rank-constant coefficients.
    return closed_form_to_obj(ClosedForm({lam: (c,) for lam, c in q.coeffs.items()}))


def verify_report_to_obj(report: VerifyReport) -> dict:
    return {
        "total": report.total,
        "zero": report.zero,
        "match_literal": report.match_literal,
        "match_alternating": report.match_alternating,
        "mismatch": [list(entries) for entries in report.mismatches],
    }


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def emit_polynomial_json(form: ClosedForm) -> str:
    """Canonical byte-reproducible JSON for a closed form."""
    return _dump(closed_form_to_obj(form))


# -- rendering ---------------------------------------------------------------


def format_mpoly_latex(p: MPoly) -> str:
    return format_mpoly(p, lambda i: f"\\alpha_{{{i + 1}}}")


def _format_value(p: MPoly, latex: bool) -> str:
    return format_mpoly_latex(p) if latex else format_mpoly(p)


# -- subcommands -------------------------------------------------------------


def _cmd_elementary(args) -> int:
    t = IndexTuple.parse(args.tuple, n=args.n)
    args.n = t.n  # the rank, which defaults to the largest entry, for main's error line
    shifted = not args.raw
    value = elementary_eigenvalue(t, shifted=shifted, sign=SignConvention(args.sign))
    cycles = enumerate_cycles(t)
    if args.json:
        obj = {
            "tuple": list(t.entries),
            "n": t.n,
            "shifted": shifted,
            "sign": args.sign,
            "eigenvalue": mpoly_to_obj(value),
            "cycles": [
                {
                    "start": c.start_pos,
                    "end": c.end_pos,
                    "sublist": list(c.sublist),
                    "proper": c.proper,
                    "v1": c.v1,
                    "v2": c.v2,
                }
                for c in cycles
            ],
        }
        print(_dump(obj))
        return 0
    print(f"eigenvalue: {_format_value(value, args.latex)}")
    print("cycles (consecutive occurrences of each value in the closed tuple):")
    rows = [
        (
            f"{c.start_pos}..{c.end_pos}",
            "(" + ",".join(str(x) for x in c.sublist) + ")",
            "yes" if c.proper else "no",
            str(c.v1),
            "inf" if c.v2 is None else str(c.v2),
        )
        for c in cycles
    ]
    header = ("positions", "sub-list", "proper", "v1", "v2")
    widths = [max(len(r[k]) for r in rows + [header]) for k in range(5)]
    print("  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  " + "  ".join(x.ljust(w) for x, w in zip(r, widths)))
    return 0


def _cmd_casimir(args) -> int:
    request = CasimirRequest(
        m=args.m,
        n=args.n,
        shifted=not args.raw,
        sign=SignConvention(args.sign),
    )
    value = casimir_eigenvalue_patterned(request)
    note = "m > n lies outside the standard range 1 <= m <= n" if request.outside_standard_range else None
    reduced = to_power_sum(value) if args.basis == "power-sum" else None
    if args.json:
        obj = {
            "m": request.m,
            "n": request.n,
            "shifted": request.shifted,
            "basis": args.basis,
            "eigenvalue": mpoly_to_obj(value) if reduced is None else power_sum_to_obj(reduced),
        }
        if note:
            obj["note"] = note
        print(_dump(obj))
        return 0
    print(f"eigenvalue: {_format_value(value, args.latex) if reduced is None else reduced}")
    if note:
        print(f"note: {note}")
    return 0


def _cmd_closed_form(args) -> int:
    form = closed_form(args.m)
    if args.json:
        print(emit_polynomial_json(form))
    else:
        print(str(form))
    return 0


def _cmd_verify(args) -> int:
    if args.random is not None and args.seed is None:
        raise ValueError("--random requires an explicit --seed")
    if args.random is None and args.seed is not None:
        raise ValueError("--seed applies only to --random")
    selection = Exhaustive() if args.exhaustive else RandomSample(args.random, args.seed)
    report = verify_tuples(args.m, args.n, selection)
    mismatches = report.mismatches
    if args.json:
        print(_dump(verify_report_to_obj(report)))
    else:
        print(f"verify m={report.m} n={report.n} {report.selection}")
        print(
            f"total={report.total} zero={report.zero} "
            f"match_literal={report.match_literal} match_alternating={report.match_alternating}"
        )
        print(f"consistent convention: {report.convention or 'NONE'}")
        if mismatches:
            print(f"MISMATCH under the alternating convention: {list(mismatches[:10])}")
        else:
            print("OK: fast path agrees with the oracle under the alternating convention")
    return 1 if mismatches else 0


def _cmd_tables(args) -> int:
    from .tables import eigenvalue_table  # only this command needs the tables

    rows = eigenvalue_table(args.m)
    values = [row.computed.render() if row.computed else "0" for row in rows]
    if args.format == "json":
        obj = {
            "m": args.m,
            "rows": [
                {
                    "case": row.label,
                    "value": value,
                    "printed": row.variant.render() if row.variant else None,
                    "discrepancy": row.discrepancy,
                }
                for row, value in zip(rows, values)
            ],
        }
        print(_dump(obj))
        return 0
    print(f"eigenvalues of order-{args.m} elementary operators (shifted parameters)")
    print("| case | eigenvalue |")
    print("|---|---|")
    for row, value in zip(rows, values):
        if row.discrepancy:
            value = f"computed: {value} ; printed: {row.variant.render()} **DISCREPANCY**"
        print(f"| {row.label} | {value} |")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-eigen",
        description="Exact eigenvalues of elementary and Casimir differential operators "
        "for GL(n,R) in Langlands parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elementary", help="eigenvalue of one elementary operator")
    p.add_argument("--tuple", required=True, help="comma-separated indices, e.g. 1,9,2,5,5,9,6,8,4,5")
    p.add_argument("--n", type=int, default=None, help="ambient rank (default: largest index)")
    p.add_argument("--raw", action="store_true", help="plain parameters instead of the rho-shift")
    p.add_argument("--sign", choices=["literal", "alternating"], default="alternating")
    p.add_argument("--json", action="store_true")
    p.add_argument("--latex", action="store_true", help="render variables as \\alpha_i, in monomial text output only")
    p.set_defaults(handler=_cmd_elementary)

    p = sub.add_parser("casimir", help="eigenvalue of the order-m Casimir operator")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", choices=["monomial", "power-sum"], default="monomial")
    p.add_argument("--raw", action="store_true")
    p.add_argument("--sign", choices=["literal", "alternating"], default="alternating")
    p.add_argument("--json", action="store_true")
    p.add_argument("--latex", action="store_true", help="render variables as \\alpha_i, in monomial text output only")
    p.set_defaults(handler=_cmd_casimir)

    p = sub.add_parser("closed-form", help="rank-symbolic Casimir eigenvalue")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_closed_form)

    p = sub.add_parser("verify", help="fast path vs jet oracle")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", type=int, metavar="COUNT")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("tables", help="per-case symbolic eigenvalue tables")
    p.add_argument("--m", type=int, choices=[2, 3], required=True)
    p.add_argument("--format", choices=["md", "json"], default="md")
    p.set_defaults(handler=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that went away shows here, not in the interpreter's last flush
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError):
        # Python refuses an index beyond a machine-size int, or an n-long list too large for memory, at once
        if "n" not in args:  # closed-form and tables take no rank
            raise
        reason = "too large for memory"
        if args.n > sys.maxsize:
            reason = ABOVE_MACHINE_SIZE
        print(f"error: rank n = {args.n} is {reason}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Nothing more can reach the reader; point stdout at devnull so the final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


def run() -> None:
    # The imports leave about 13,000 tracked classes, functions and module
    # dicts that live as long as the process.  Frozen into the permanent
    # generation, no later collection walks or frees them, the one at
    # interpreter exit included; the OS reclaims them with the process.
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
