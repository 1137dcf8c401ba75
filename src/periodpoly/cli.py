"""Command-line front end.

Subcommands
-----------
analyze     full pipeline for one dataset: ingest a coefficient file or a
            curve (with a symmetric-power index), compute completed special
            values, verify the axioms, build the period polynomials, run
            the sufficient-condition gate, locate roots against the unit
            circle, and push the result through the unit-circle-to-critical-
            line transform with its independent closed form.
disc-table  reproduce the disc-zero count table c_{d,N} over a conductor
            range, marking the transition conductors.
am-table    tabulate the gate constants A_m.
cache       inspect a special-values cache directory.

Exit codes: 0 all checks pass, 1 verification failure (a mathematical
assertion failed), 2 input error, 3 certification failure (a numerical
procedure could not certify its result).  Reports are canonical JSON:
identical inputs and settings produce byte-identical bytes.
"""

import argparse
import math
import os
import sys

from mpmath import mp

from . import __version__
from .errors import CertificationError, InputError, VerificationError
from .files import (FORMAT_REPORT, SpecialValuesCache, canonical_report_text,
                    data_digest, digits_for_bits, parse_coefficient_file,
                    parse_curve_file, parse_eps_overrides, sha256_file,
                    write_report)
from .gates import compute_A_m
from .lfunc import AfePlan, Precision, special_values
from .numutil import fmt_mpf
from .pipeline import analyze, scale_estimate
from .sympow import sym_header, sym_lfunction_data
from .zeros import disc_transition_table


def _check_args(args):
    """Reject settings no subcommand can run with (argparse supplies the
    defaults)."""
    if getattr(args, "precision_bits", 64) < 64:
        raise InputError("precision must be at least 64 bits")
    target = getattr(args, "target_error", None)
    if target is not None and not 0 < target < math.inf:
        raise InputError("target error must be finite and positive")
    if getattr(args, "coeff_limit", None) is not None and args.coeff_limit < 1:
        raise InputError("--coeff-limit must be at least 1")
    for name in ("coeffs_path", "curve_path", "eps_overrides_path"):
        path = getattr(args, name, None)
        if path is not None and not os.path.exists(path):
            raise InputError("input file not found: %s" % path)
    if args.output and (os.path.isdir(args.output) or not os.path.isdir(
            os.path.dirname(os.path.abspath(args.output)))):
        raise InputError("output must be a file in an existing directory: %s"
                         % args.output)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir and os.path.exists(cache_dir) and not os.path.isdir(
            cache_dir):
        raise InputError("cache directory is a file: %s" % cache_dir)


def _pair(v, e, digits):
    return [fmt_mpf(v, digits), fmt_mpf(e, digits)]


def _emit(args, command, report, lines):
    """Write the report (with its format header) or the table lines."""
    report = dict(report, format=FORMAT_REPORT, library_version=__version__,
                  command=command)
    table_text = "\n".join(lines) + "\n"
    body = table_text if args.table else canonical_report_text(report)
    if args.output:
        if args.table:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(table_text)
        else:
            write_report(args.output, report)
    else:
        sys.stdout.write(body)


def _ingest(args, inputs):
    """Resolve the input files into (header, sym, load),
    load(plan) giving the LFunctionData the sums of that AfePlan run on."""
    if (args.coeffs_path is None) == (args.curve_path is None):
        raise InputError("exactly one of --coeffs or --curve is required")
    if args.coeffs_path:
        curve_only = [flag for flag, value in (
            ("--sym", args.sym), ("--label", args.label),
            ("--eps-overrides", args.eps_overrides_path),
            ("--coeff-limit", args.coeff_limit)) if value is not None]
        if curve_only:
            raise InputError("flags for --curve input given with --coeffs: %s"
                             % ", ".join(curve_only))
        inputs[os.path.basename(args.coeffs_path)] = sha256_file(
            args.coeffs_path)
        data = parse_coefficient_file(args.coeffs_path,
                                      bits=args.precision_bits)
        return data.header, 0, lambda plan: data
    if args.sym is None:
        raise InputError("--curve needs --sym, an odd n >= 3")
    inputs[os.path.basename(args.curve_path)] = sha256_file(
        args.curve_path)
    curves = parse_curve_file(args.curve_path)
    if args.label:
        matches = [c for c in curves if c.label == args.label]
        if not matches:
            raise InputError("label %r not found in %s (have: %s)"
                             % (args.label, args.curve_path,
                                ", ".join(c.label for c in curves)))
        curve = matches[0]
    elif len(curves) == 1:
        curve = curves[0]
    else:
        raise InputError("curve file holds %d curves; pick one with --label"
                         % len(curves))

    recorded = None
    if args.eps_overrides_path:
        inputs[os.path.basename(args.eps_overrides_path)] = sha256_file(
            args.eps_overrides_path)
        table = parse_eps_overrides(args.eps_overrides_path)
        recorded = table.get((curve.label, args.sym))
    header = sym_header(curve, args.sym)

    def load(plan):
        # count what the sums read, or --coeff-limit when given; a count
        # short of the plan is refused before any point is counted
        limit = args.coeff_limit
        plan.check_reach(10000 if limit is None else limit)
        data = sym_lfunction_data(curve, args.sym,
                                  plan.required if limit is None else limit)
        # the recorded sign is a cross-check of the exact one, never a
        # source
        if recorded not in (None, data.root_number):
            raise InputError("%s Sym^%d: %s records root number %+d, but "
                             "the local data give %+d"
                             % (curve.label, args.sym,
                                os.path.basename(args.eps_overrides_path),
                                recorded, data.root_number))
        return data

    return header, args.sym, load


def cmd_analyze(args):
    inputs = {}
    header, sym, load = _ingest(args, inputs)
    target = args.target_error
    if target is None:
        target = scale_estimate(header) * 1e-25
    plan = AfePlan(header, Precision(mantissa_bits=args.precision_bits,
                                     target_abs_error=target))
    data = load(plan)
    label = data.label or "dataset"

    cache = SpecialValuesCache(args.cache_dir) if args.cache_dir else None
    vals = None
    if cache is not None:
        digest = data_digest(data)
        vals = cache.load(label, sym, args.precision_bits, data.weight,
                          target, digest)
    if vals is None:
        vals = special_values(data, plan)
        if cache is not None:
            cache.store(label, sym, vals, digest)

    result = analyze(data, vals)
    _emit(args, "analyze", _analysis_report(result, args, inputs, sym),
          _analysis_lines(result))
    checks = result.checks
    if not checks["all_pass"]:
        raise VerificationError(
            "analysis checks failed: "
            + ", ".join(k for k, v in checks.items() if not v and
                        k != "all_pass"))
    return 0


def _rouche_obj(result):
    rt = result.rouche
    if rt is not None:
        return {
            "certified": rt.certified,
            "min_t_on_circle": fmt_mpf(rt.min_t, 12),
            "remainder_bound": fmt_mpf(rt.remainder_bound, 12),
            "t_disc_zeros": rt.t_disc_zeros,
            "f_disc_zeros": rt.f_disc_zeros,
            "q_disc_zeros": rt.q_disc_zeros,
        }
    if result.rouche_error is not None:
        return {"certified": False, "error": result.rouche_error}
    return {"skipped": "m = 1: the gate is unconditional"}


def _analysis_report(result, args, inputs, sym):
    """The canonical JSON report of an analysis."""
    data, vals, ratios = result.data, result.vals, result.ratios
    scan, gate = result.trig, result.gate
    zp, zcheck = result.zeta, result.zeta_check
    dstar_lo, dstar_hi = scan.dstar or (None, None)
    bits = args.precision_bits
    digits = digits_for_bits(bits)
    return {
        "inputs": inputs,
        "precision_bits": bits,
        "target_error_requested": (None if args.target_error is None
                                   else float(args.target_error)),
        "target_error_effective": float(vals.target),
        "label": data.label or "dataset",
        "sym": sym,
        "weight": data.weight,
        "degree": data.degree,
        "conductor": data.conductor,
        "hodge": list(data.hodge),
        "root_number": data.root_number,
        "coefficients_used": len(data.coefficients),
        "special_values": {
            str(s): _pair(vals.values[s][0], vals.values[s][1], digits)
            for s in sorted(vals.values)
        },
        "hypothesis_violations": list(result.violations),
        "polynomials": {
            "p": result.p.to_json_obj(digits),
            "p_deflated": result.p_hat.to_json_obj(digits),
            "P": result.big_p.to_json_obj(digits),
            "Q": result.big_q.to_json_obj(digits),
            "forced_root_at_one": data.root_number == -1,
        },
        "ratios": {
            "r": [_pair(v, e, digits) for v, e in ratios.ratios],
            "central": _pair(ratios.central[0], ratios.central[1],
                             digits),
        },
        "q_identity": {
            "residual": fmt_mpf(result.q_residual, 12),
            "remainder_bound": fmt_mpf(result.remainder_bound, 12),
        },
        "circle": {
            "angles": (None if scan.angles is None else
                       [_pair(lo, hi, digits) for lo, hi in scan.angles]),
            "dstar_lo": dstar_lo,
            "dstar_hi": dstar_hi,
        },
        "trig_certificate": {
            "kind": scan.kind,
            "sign_changes": list(scan.changes),
            "certified_on_circle": scan.certified_on_circle,
            "failing_intervals": list(scan.failing),
            "boundary_zero": scan.kind == "sin",
        },
        "gate": {
            "case": gate.case,
            "satisfied": gate.satisfied,
            "m": gate.m,
            "hodge_ok": gate.hodge_ok,
            "hodge_lhs": gate.hodge_lhs,
            "hodge_rhs": gate.hodge_rhs,
            "a_m": (None if gate.a_m is None else fmt_mpf(gate.a_m, 12)),
            "a_m_power_d": (None if gate.a_m_power_d is None
                            else fmt_mpf(gate.a_m_power_d, 12)),
            "margins_11": [_pair(v, e, 12) for v, e in gate.margins_11],
            "margin_22": (None if gate.margin_22 is None
                          else _pair(gate.margin_22[0],
                                     gate.margin_22[1], 12)),
            "notes": list(gate.notes),
        },
        "rouche": _rouche_obj(result),
        "zeta": {
            "e": zp.degree,
            "eps": zp.eps,
            "coefficients": [_pair(v, err, digits)
                             for v, err in zp.coeffs],
            "roots": [[fmt_mpf(mp.re(z), digits),
                       fmt_mpf(mp.im(z), digits)]
                      for z in zcheck.roots],
            "fe_residual": zcheck.fe_residual,
            "max_line_deviation": zcheck.max_line_deviation,
            "line_ok": zcheck.line_ok,
        },
        "checks": result.checks,
    }


def _analysis_lines(result):
    """The human-readable rendering of an analysis."""
    data, vals, violations = result.data, result.vals, result.violations
    scan, zcheck = result.trig, result.zeta_check
    lines = [
        "dataset %s  (weight %d, degree %d, conductor %d, eps %+d)"
        % (data.label or "dataset", data.weight, data.degree, data.conductor,
           data.root_number),
        "special values:",
    ]
    for s in sorted(vals.values):
        lines.append("  Lambda(%d) = %s +- %s"
                     % (s, fmt_mpf(vals.values[s][0], 20),
                        fmt_mpf(vals.values[s][1], 4)))
    lines.append("hypothesis violations: %s"
                 % (", ".join(violations) if violations else "none"))
    lines.append("gate: %s (satisfied: %s)"
                 % (result.gate.case, result.gate.satisfied))
    lines.append("trig certificate: %d roots certified on the circle, "
                 "failing intervals %s" % (scan.certified_on_circle,
                                           list(scan.failing)))
    if scan.dstar is not None:
        lines.append("circle: D* in [%.12f, %.12f], angles in" % scan.dstar)
        lines += ["  [%s, %s]" % (fmt_mpf(lo, 12), fmt_mpf(hi, 12))
                  for lo, hi in scan.angles]
    if data.root_number == -1:
        lines.append("forced root at z = 1 (eps = -1)")
    lines.append("zeta: FE residual %.3e, line deviation %.3e, closed form %s"
                 % (zcheck.fe_residual, zcheck.max_line_deviation,
                    "equal" if result.closed_form_ok else "DIFFERS"))
    lines.append("checks: %s" % ("all pass" if result.checks["all_pass"]
                                 else "FAILED"))
    return lines


def cmd_disc_table(args):
    d = int(args.degree)
    if d % 2 != 0 or not 2 <= d <= 12:
        raise InputError("degree must be even with 2 <= d <= 12")
    n_max = int(args.n_max)
    if n_max < 1:
        raise InputError("--n-max must be positive")
    failures = []
    try:
        transitions = disc_transition_table(d, n_max, radius=args.radius)
    except CertificationError as exc:
        failures.append(str(exc))
        transitions = []

    segments = []
    for i, (n0, count) in enumerate(transitions):
        n1 = (transitions[i + 1][0] - 1) if i + 1 < len(transitions) \
            else n_max
        segments.append({"from": n0, "to": n1, "count": count})
    report = {
        "degree": d,
        "n_max": n_max,
        "radius": float(args.radius),
        "transitions": [{"n": n, "count": c} for n, c in transitions],
        "segments": segments,
        "certification_failures": failures,
    }
    lines = ["disc-zero counts c_{%d,N} inside |z| < %g" % (d, args.radius)]
    for seg in segments:
        lines.append("  N in [%d, %d]: %d" % (seg["from"], seg["to"],
                                              seg["count"]))
    for f in failures:
        lines.append("  certification failure: %s" % f)
    _emit(args, "disc-table", report, lines)
    if failures:
        raise CertificationError("; ".join(failures))
    return 0


def cmd_am_table(args):
    m_max = int(args.m_max)
    if m_max < 2:
        raise InputError("--m-max must be at least 2")
    bits = args.precision_bits
    rows = []
    with mp.workprec(bits):
        for m in range(2, m_max + 1):
            rows.append({"m": m, "a_m": fmt_mpf(compute_A_m(m, bits=bits),
                                                20)})
    report = {"precision_bits": bits, "rows": rows}
    lines = ["gate constants A_m (decreasing to 2 pi)"]
    for row in rows:
        lines.append("  A_%d = %s" % (row["m"], row["a_m"]))
    _emit(args, "am-table", report, lines)
    return 0


def cmd_cache(args):
    if not args.cache_dir:
        raise InputError("--dir is required")
    cache = SpecialValuesCache(args.cache_dir)
    entries = [
        {"label": label, "sym": sym, "bits": bits, "weight": vals.weight,
         "target": target, "data_sha256": digest}
        for (label, sym, bits, target, digest), vals in cache.records()
    ]
    report = {
        "path": cache.path,
        "total_records": len(entries),
        "entries": entries,
    }
    lines = ["cache %s: %d records" % (cache.path, len(entries))]
    for e in entries:
        lines.append("  %s sym=%d bits=%d target=%s weight=%d"
                     % (e["label"], e["sym"], e["bits"], e["target"],
                        e["weight"]))
    _emit(args, "cache", report, lines)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="periodpoly",
        description="Completed special values of self-dual motivic "
                    "L-functions and the unit-circle geometry of their "
                    "period polynomials.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def precision(p):
        p.add_argument("--precision-bits", type=int, default=192,
                       help="working mantissa bits (default %(default)s, "
                            "min 64)")

    def common(p):
        p.add_argument("--table", action="store_true",
                       help="emit a human-readable table instead of the "
                            "canonical JSON report")
        p.add_argument("--output", help="write the report here instead of "
                                        "stdout")

    pa = sub.add_parser("analyze", help="full pipeline for one dataset")
    pa.add_argument("--coeffs", dest="coeffs_path",
                    help="coefficient file (format=periodpoly-coeffs-1)")
    pa.add_argument("--curve", dest="curve_path",
                    help="curve file (format=periodpoly-curves-1)")
    pa.add_argument("--sym", type=int,
                    help="odd symmetric-power index n >= 3 (curve input "
                         "only)")
    pa.add_argument("--label", help="curve label to pick from the file "
                                    "(curve input only)")
    pa.add_argument("--eps-overrides", dest="eps_overrides_path",
                    help="recorded root numbers to check the computed "
                         "ones against (format=periodpoly-eps-1; curve "
                         "input only)")
    pa.add_argument("--target-error", type=float, default=None,
                    help="absolute error target for completed values "
                         "(default: value scale * 1e-25)")
    pa.add_argument("--coeff-limit", type=int,
                    help="how many Dirichlet coefficients to count from a "
                         "curve (default: as many as the AFE reads at the "
                         "requested target, at most 10000; a limit short of "
                         "that is refused before counting; curve input "
                         "only)")
    pa.add_argument("--cache-dir", help="special-values cache directory")
    precision(pa)
    common(pa)

    pd = sub.add_parser("disc-table", help="disc-zero count table c_{d,N}")
    pd.add_argument("--degree", type=int, required=True,
                    help="even degree d, 2 <= d <= 12")
    pd.add_argument("--n-max", type=int, default=800,
                    help="top of the conductor range (default 800)")
    pd.add_argument("--radius", type=float, default=1.0,
                    help="disc radius (default 1.0)")
    common(pd)

    pm = sub.add_parser("am-table", help="gate constants A_m")
    pm.add_argument("--m-max", type=int, default=50,
                    help="tabulate A_2..A_m (default 50)")
    precision(pm)
    common(pm)

    pc = sub.add_parser("cache", help="inspect a special-values cache")
    pc.add_argument("--dir", dest="cache_dir", required=True,
                    help="cache directory")
    common(pc)
    return parser


_DISPATCH = {
    "analyze": cmd_analyze,
    "disc-table": cmd_disc_table,
    "am-table": cmd_am_table,
    "cache": cmd_cache,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return _DISPATCH[args.subcommand](args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except VerificationError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1
    except CertificationError as exc:
        print("certification failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
