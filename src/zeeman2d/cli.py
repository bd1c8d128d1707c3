"""Command-line front end.

Subcommands:

* ``coeff``    exact perturbative coefficients of one state (or a sweep);
* ``energy``   term-by-term exact energy at a given field strength;
* ``table``    the published n <= 4 coefficient table, byte-stable markdown;
* ``validate`` the full cross-validation suite with a process exit code.

``validate`` fits every state up to ``--max-n`` through the oracle's one
entry point, ``fit_field_series``, on its one contour, so the CLI and the
library check the same numbers.  The oracle (and with it numpy and scipy's
LAPACK extension) is imported only when a fit runs: ``coeff``, ``energy``,
``table`` and ``validate --max-n 0`` stay on the exact layers.  Importing
the oracle sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1 unless
either is already set (`zeeman2d._single_threaded_blas`).

Exit codes: 0 success, 1 validation failure, a reader that closed stdout
early (as ``| head`` does) or a ``--json`` report that could not be written,
2 usage error.  All rationals
are printed as ``p/q`` strings that re-parse exactly; decimals are rendered
from the exact rationals at print time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import reference
from .coulomb import QuantumState
from .exactmath import format_factorized, parse_rational, render_decimal
from .perturb import (
    assemble_energy,
    coefficient_set,
    disputed_value_report,
    eps2_closed,
    eps2_integral,
    eps4_closed,
    eps4_sturmian,
)

SECOND_ORDER_REL_TOL = 1e-6
QUARTIC_SIGMAS = 3  # the ground-state c4 error may reach this many reported uncertainties
DUAL_ROUTE_MAX_N = 12


def _render_markdown(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _render_csv(headers: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit_table(args, headers: list[str], rows: list[list[str]], json_payload) -> None:
    if args.format == "markdown":
        print(_render_markdown(headers, rows))
    elif args.format == "csv":
        print(_render_csv(headers, rows))
    else:
        print(_render_json(json_payload))


def _coeff_row(n: int, l: int, names: tuple[str, ...], digits: int | None = None) -> tuple[list[str], dict]:
    """The row and JSON entry of (n, l) that ``coeff``, ``table`` and validate's table check print:
    each named coefficient exact, factorized and, when ``digits`` is given, decimal."""
    cs = coefficient_set(n, l)
    row: list[str] = [str(n), str(l)]
    payload = {"n": n, "l": l}
    for name in names:
        value = getattr(cs, name)
        forms = {"exact": str(value), "factorized": format_factorized(value)}
        if digits is not None:
            forms["decimal"] = render_decimal(value, digits)
        row += forms.values()
        payload[name] = forms
    return row, payload


def cmd_coeff(args) -> int:
    if args.all_up_to is not None:
        states = [(n, l) for n in range(1, args.all_up_to + 1) for l in range(n)]
    else:
        states = [(args.n, args.l)]
    headers = [
        "n", "l",
        "eps0", "eps0 factorized", "eps0 decimal",
        "eps2", "eps2 factorized", "eps2 decimal",
        "eps4", "eps4 factorized", "eps4 decimal",
    ]
    rows, payload = [], []
    for n, l in states:
        row, entry = _coeff_row(n, l, ("eps0", "eps2", "eps4"), args.digits)
        rows.append(row)
        payload.append(entry)
    _emit_table(args, headers, rows, payload)
    return 0


def cmd_energy(args) -> int:
    state = QuantumState(args.n, args.l, args.ml, args.ms)
    result = assemble_energy(state, Z=args.Z, b=args.B_over_B0, order=args.order, spin=args.spin)
    headers = ["order", "term (Hartree)", "decimal"]
    rows = [
        [str(k), str(v), render_decimal(v, args.digits)]
        for k, v in sorted(result.terms.items())
    ]
    rows.append(["total", str(result.total), render_decimal(result.total, args.digits)])
    payload = {
        "state": {"n": state.n, "l": state.l, "m_l": state.m_l,
                  "m_s": str(state.m_s) if state.m_s is not None else None},
        "Z": str(result.Z),
        "B_over_B0": str(result.b),
        "order": result.order,
        "spin": result.spin_included,
        "terms": {str(k): str(v) for k, v in sorted(result.terms.items())},
        "total": {"exact": str(result.total),
                  "decimal": render_decimal(result.total, args.digits)},
        "regime_warning": result.regime_warning,
        "truncation_note": result.truncation_note,
    }
    if args.tesla:
        payload["B_tesla"] = float(result.b) * reference.B0_TESLA
    _emit_table(args, headers, rows, payload)
    if args.format != "json":
        if args.tesla:
            print(f"B = {float(result.b) * reference.B0_TESLA:.6g} T (B0 = {reference.B0_TESLA:.3g} T)")
        print(f"note: {result.truncation_note}")
        if result.regime_warning:
            print("warning: quartic term exceeds quadratic term; perturbative window exceeded")
    return 0


def cmd_table(args) -> int:
    headers = ["n", "l", "eps2", "eps2 factorized", "eps4", "eps4 factorized"]
    rows, payload = [], []
    for n, l in sorted(reference.TABLE_EPS2):
        row, entry = _coeff_row(n, l, ("eps2", "eps4"))
        rows.append(row)
        payload.append(entry)
    _emit_table(args, headers, rows, payload)
    return 0


def cmd_validate(args) -> int:
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    mismatches = [
        (n, l)
        for n in range(1, DUAL_ROUTE_MAX_N + 1)
        for l in range(n)
        if eps2_integral(n, l) != eps2_closed(n, l) or eps4_sturmian(n, l) != eps4_closed(n, l)
    ]
    total_states = DUAL_ROUTE_MAX_N * (DUAL_ROUTE_MAX_N + 1) // 2
    record(
        "dual-route coefficients",
        not mismatches,
        f"closed form vs integral route, {total_states} states with n <= {DUAL_ROUTE_MAX_N}"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )

    published = {"eps2": (reference.TABLE_EPS2, reference.TABLE_EPS2_FACTORED),
                 "eps4": (reference.TABLE_EPS4, reference.TABLE_EPS4_FACTORED)}
    table_bad = []
    for n, l in reference.TABLE_EPS2:  # the forms `table` prints, against the published ones
        _, entry = _coeff_row(n, l, tuple(published))
        table_bad += [(n, l, name) for name, (exact, factored) in published.items()
                      if entry[name] != {"exact": str(exact[n, l]), "factorized": factored[n, l]}]
    record(
        "published coefficient table",
        not table_bad,
        f"{len(reference.TABLE_EPS2)} states with n <= {max(n for n, _ in reference.TABLE_EPS2)}, "
        "exact and factorized forms" + (f"; mismatches: {table_bad}" if table_bad else ""),
    )

    oracle_payload: list[dict] = []
    ground_fit = None
    if args.max_n >= 1:
        from . import oracle

        for state in (QuantumState(n, l, l) for n in range(1, args.max_n + 1) for l in range(n)):
            fit = oracle.fit_field_series(state, basis_size=args.basis_size)
            exact = float(eps2_closed(state.n, state.l))
            rel = abs(fit.coefficients[2] - exact) / abs(exact)
            ok = rel <= SECOND_ORDER_REL_TOL
            record(
                f"oracle quadratic coefficient ({state.n},{state.l})",
                ok,
                f"fitted {fit.coefficients[2]:.12g}, exact {exact:.12g}, rel err {rel:.2e}",
            )
            if (state.n, state.l) == (1, 0):
                ground_fit = fit
            tolerances, verdicts = {"c2_rel": SECOND_ORDER_REL_TOL}, {"c2_rel_err": rel, "c2_ok": ok}
            oracle_payload.append({**fit.as_dict(), "tolerances": tolerances, "verdicts": verdicts})

    report = disputed_value_report(
        oracle_estimate=None if ground_fit is None else ground_fit.coefficients[4],
        oracle_uncertainty=None if ground_fit is None else ground_fit.coefficient_uncertainty(4),
    )
    if ground_fit is not None:
        c4, gap = report.oracle_estimate, float(report.half_gap)
        err_exact = abs(c4 - float(report.closed_form))
        err_lit = abs(c4 - float(report.literature))
        record(
            "oracle quartic coefficient (1,0)",
            report.literature_rejected,
            f"fitted {c4:.9g}; |err vs exact| {err_exact:.2e} < half-gap {gap:.2e} < |err vs literature| {err_lit:.2e}",
        )
        sigma = report.oracle_uncertainty
        record(
            "oracle quartic uncertainty (1,0)",
            err_exact <= QUARTIC_SIGMAS * sigma,
            f"|err vs exact| {err_exact:.2e} = {err_exact / sigma:.2f} x uncertainty {sigma:.2e} "
            f"(limit {QUARTIC_SIGMAS})",
        )

    record(
        "disputed ground-state quartic value",
        report.routes_agree and (report.literature_rejected in (True, None)),
        report.summary_line(),
    )

    all_passed = all(c["passed"] for c in checks)
    print(f"validate: {'all checks passed' if all_passed else 'FAILURES detected'}")
    if args.json is not None:
        payload = {
            "checks": checks,
            "all_passed": all_passed,
            "oracle_fits": oracle_payload,
            "disputed_value": report.as_dict(),
        }
        try:
            with args.json:
                args.json.write(_render_json(payload) + "\n")
        except OSError as exc:  # a full disk may only show when the buffer is flushed at close
            print(f"{args.parser.prog}: error: cannot write the --json report {args.json.name}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    return 0 if all_passed else 1


def _add_format_args(parser: argparse.ArgumentParser, decimals: bool = True) -> None:
    parser.add_argument("--format", choices=["markdown", "csv", "json"], default="markdown")
    if decimals:
        parser.add_argument("--digits", type=int, default=12, help="significant digits for decimals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeeman2d",
        description="Exact weak-field level shifts of the planar hydrogen-like atom.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="exact perturbative coefficients of a state")
    p_coeff.add_argument("n", type=int, nargs="?", help="principal quantum number")
    p_coeff.add_argument("l", type=int, nargs="?", help="angular quantum number magnitude")
    p_coeff.add_argument("--all-up-to", type=int, metavar="N", help="sweep every state with n <= N")
    _add_format_args(p_coeff)
    p_coeff.set_defaults(func=cmd_coeff, parser=p_coeff)

    p_energy = sub.add_parser("energy", help="term-by-term exact energy at a field strength")
    p_energy.add_argument("--n", type=int, required=True)
    p_energy.add_argument("--l", type=int, required=True)
    p_energy.add_argument("--ml", type=int, required=True)
    p_energy.add_argument("--ms", type=parse_rational, default=None, help="spin projection, +1/2 or -1/2")
    p_energy.add_argument("--Z", type=parse_rational, default=Fraction(1), help="nuclear charge (rational)")
    p_energy.add_argument("--B-over-B0", type=parse_rational, required=True, dest="B_over_B0",
                          help="field in units of B0, parsed exactly")
    p_energy.add_argument("--order", type=int, choices=[0, 1, 2, 4], default=4)
    p_energy.add_argument("--spin", action="store_true", help="include the 2 m_s first-order shift")
    p_energy.add_argument("--tesla", action="store_true", help="also display the field in tesla")
    _add_format_args(p_energy)
    p_energy.set_defaults(func=cmd_energy, parser=p_energy)

    p_table = sub.add_parser("table", help="published n <= 4 coefficient table")
    _add_format_args(p_table, decimals=False)
    p_table.set_defaults(func=cmd_table, parser=p_table)

    p_val = sub.add_parser("validate", help="run the cross-validation suite")
    p_val.add_argument("--max-n", type=int, default=3, help="run oracle fits for states up to this n (0 skips them)")
    p_val.add_argument("--basis-size", type=int, default=120)
    p_val.add_argument("--json", metavar="PATH", help="also write a machine-readable report")
    p_val.set_defaults(func=cmd_validate, parser=p_val)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = args.parser.error  # the usage line of the subcommand that parsed argv
    if args.command == "coeff":
        if args.all_up_to is None and (args.n is None or args.l is None):
            error("coeff needs n and l (or --all-up-to N)")
        if args.all_up_to is not None and args.n is not None:
            error("coeff takes n and l or --all-up-to N, not both")
        if args.all_up_to is not None and args.all_up_to < 1:
            error("--all-up-to must be at least 1")
    if args.command == "validate":
        if args.max_n < 0:
            error("--max-n must be non-negative")
        # the fit of (max_n, 0) tracks n_r = max_n - 1 and needs n_r + 20 functions;
        # --max-n 0 runs no fit but is held to the same bound, so no bad size passes
        if args.basis_size < args.max_n + 19:
            error(f"--basis-size must be at least {args.max_n + 19} for --max-n {args.max_n}")
        if args.json is not None:  # opened before any check runs, closed before main returns
            try:
                args.json = open(args.json, "w", encoding="utf-8")
            except OSError as exc:
                error(f"cannot write the --json report {args.json}: {exc.strerror}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        error(str(exc))
        return 2  # unreachable; error raises SystemExit(2)
    finally:
        if getattr(args, "json", None) is not None:
            args.json.close()


if __name__ == "__main__":
    sys.exit(main())
