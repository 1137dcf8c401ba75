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
import os
import sys

from mpmath import mp

from . import __version__
from .errors import (CertificationError, ConventionError, InputError,
                     InsufficientCoefficients, QuadratureError,
                     VerificationError)
from .files import (FORMAT_REPORT, SpecialValuesCache, canonical_report_text,
                    data_digest, parse_coefficient_file, parse_curve_file,
                    parse_eps_overrides, sha256_file, write_report)
from .gates import compute_A_m
from .lfunc import Precision, special_values
from .numutil import fmt_mpf
from .pipeline import analyze, scale_estimate
from .sympow import determine_root_number, sym_lfunction_data
from .zeros import disc_transition_table


def _check_args(args):
    """Reject settings no subcommand can run with (argparse supplies the
    defaults)."""
    if args.precision_bits < 64:
        raise InputError("precision must be at least 64 bits")
    target = getattr(args, "target_error", None)
    if target is not None and not target > 0:
        raise InputError("target error must be positive")
    for name in ("coeffs_path", "curve_path", "eps_overrides_path"):
        path = getattr(args, name, None)
        if path is not None and not os.path.exists(path):
            raise InputError("input file not found: %s" % path)


def _pair(v, e, digits):
    return [fmt_mpf(v, digits), fmt_mpf(e, digits)]


def _poly_obj(p, digits):
    with mp.workprec(p.bits + 16):
        return p.to_json_obj(digits)


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
    """Resolve the input files into (LFunctionData, sym, curve-or-None)."""
    if (args.coeffs_path is None) == (args.curve_path is None):
        raise InputError("exactly one of --coeffs or --curve is required")
    if args.coeffs_path:
        inputs[os.path.basename(args.coeffs_path)] = sha256_file(
            args.coeffs_path)
        data = parse_coefficient_file(args.coeffs_path,
                                      bits=args.precision_bits)
        return data, 0, None
    if args.sym < 1 or args.sym % 2 == 0:
        raise InputError("--sym must be an odd positive integer "
                         "(self-dual odd weight)")
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

    eps = None
    if args.eps_overrides_path:
        inputs[os.path.basename(args.eps_overrides_path)] = sha256_file(
            args.eps_overrides_path)
        table = parse_eps_overrides(args.eps_overrides_path)
        eps = table.get((curve.label, args.sym))
    if eps is None:
        # No recorded sign: determine it by comparing the two-sided value
        # at s = w against the direct series.  Costly but self-contained.
        eps, _margin = determine_root_number(curve, args.sym)
    data = sym_lfunction_data(curve, args.sym, args.coeff_limit, eps)
    return data, args.sym, curve


def cmd_analyze(args):
    inputs = {}
    data, sym, curve = _ingest(args, inputs)
    label = data.label or "dataset"
    target = args.target_error
    if target is None:
        target = scale_estimate(data) * 1e-25
    prec = Precision(mantissa_bits=args.precision_bits,
                     target_abs_error=target)

    cache = SpecialValuesCache(args.cache_dir) if args.cache_dir else None
    vals = None
    if cache is not None:
        digest = data_digest(data)
        vals = cache.load(label, sym, args.precision_bits, data.weight,
                          target, digest)
    if vals is None:
        vals = special_values(data, prec)
        if cache is not None:
            cache.store(label, sym, vals, digest)

    sym_context = (2, sym, curve.conductor) if curve is not None else None
    result = analyze(data, vals, sym_context)
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
    circ, scan, gate = result.circle, result.trig, result.gate
    zp, zcheck, s_parts = result.zeta, result.zeta_check, result.s_parts
    bits = args.precision_bits
    digits = int(bits * 0.30103) + 8
    with mp.workprec(bits + 16):
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
                "p": _poly_obj(result.p, digits),
                "p_deflated": _poly_obj(result.p_hat, digits),
                "P": _poly_obj(result.big_p, digits),
                "Q": _poly_obj(result.big_q, digits),
                "forced_root_at_one": data.root_number == -1,
            },
            "ratios": {
                "r": [_pair(v, e, digits) for v, e in ratios.ratios],
                "central": _pair(ratios.central[0], ratios.central[1],
                                 digits),
            },
            "q_identity": {
                "residual": fmt_mpf(result.q_residual, 12),
                "max_abs_remainder": fmt_mpf(result.q_max_remainder, 12),
                "remainder_bound": (None if s_parts is None else {
                    "series": fmt_mpf(s_parts.series, 12),
                    "central": fmt_mpf(s_parts.central, 12),
                    "corner": fmt_mpf(s_parts.corner, 12),
                    "total": fmt_mpf(s_parts.total, 12),
                }),
            },
            "circle": {
                "tolerance": circ.tolerance,
                "roots": [
                    {
                        "re": fmt_mpf(mp.re(z), digits),
                        "im": fmt_mpf(mp.im(z), digits),
                        "radius": fmt_mpf(r, 8),
                        "verdict": v,
                    }
                    for z, r, v in zip(circ.roots, circ.radii, circ.verdicts)
                ],
                "num_on": circ.num_on,
                "num_off": circ.num_off,
                "num_uncertain": circ.num_uncertain,
                "star_discrepancy": result.discrepancy,
            },
            "trig_certificate": {
                "kind": scan.kind,
                "sign_changes": list(scan.changes),
                "certified_on_circle": scan.certified_on_circle,
                "failing_intervals": list(scan.failing),
                "boundary_zero": scan.boundary_zero,
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
                "e": zp.e,
                "eps": zp.eps,
                "coefficients": [_pair(v, err, digits)
                                 for v, err in zp.coeffs],
                "roots": [[fmt_mpf(mp.re(z), digits),
                           fmt_mpf(mp.im(z), digits)]
                          for z in zcheck.roots],
                "fe_residual": zcheck.fe_residual,
                "max_line_deviation": zcheck.max_line_deviation,
                "line_ok": zcheck.ok,
                "closed_form_winner": result.closed_form_winner,
                "closed_form_agreement": result.closed_form_agreement,
                "convention_report": {
                    k: float(v)
                    for k, v in result.closed_form_report.items()},
            },
            "checks": result.checks,
        }


def _analysis_lines(result):
    """The human-readable rendering of an analysis."""
    data, vals, violations = result.data, result.vals, result.violations
    circ, zcheck = result.circle, result.zeta_check
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
    lines.append("circle: %d on / %d off / %d uncertain, discrepancy %.4f"
                 % (circ.num_on, circ.num_off, circ.num_uncertain,
                    result.discrepancy))
    if data.root_number == -1:
        lines.append("forced root at z = 1 (eps = -1)")
    lines.append("trig certificate: %d roots certified on the circle"
                 % result.trig.certified_on_circle)
    lines.append("zeta: FE residual %.3e, line deviation %.3e, "
                 "closed form %s agrees to %.3e"
                 % (zcheck.fe_residual, zcheck.max_line_deviation,
                    result.closed_form_winner, result.closed_form_agreement))
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
    keys = sorted(cache.existing_keys())
    groups = {}
    for label, sym, s, bits, target, digest in keys:
        groups.setdefault((label, sym, bits, target, digest), []).append(s)
    entries = [
        {"label": label, "sym": sym, "bits": bits, "target": target,
         "data_sha256": digest, "s_values": sorted(ss), "records": len(ss)}
        for (label, sym, bits, target, digest), ss in sorted(groups.items())
    ]
    report = {
        "path": cache.path,
        "total_records": len(keys),
        "entries": entries,
    }
    lines = ["cache %s: %d records" % (cache.path, len(keys))]
    for e in entries:
        lines.append("  %s sym=%d bits=%d target=%s s=%s"
                     % (e["label"], e["sym"], e["bits"], e["target"],
                        e["s_values"]))
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

    def common(p):
        p.add_argument("--precision-bits", type=int, default=192,
                       help="working mantissa bits (default %(default)s, "
                            "min 64)")
        p.add_argument("--json", dest="table", action="store_false",
                       default=False, help="emit a canonical JSON report "
                                           "(default)")
        p.add_argument("--table", dest="table", action="store_true",
                       help="emit a human-readable table instead of JSON")
        p.add_argument("--output", help="write the report here instead of "
                                        "stdout")

    pa = sub.add_parser("analyze", help="full pipeline for one dataset")
    pa.add_argument("--coeffs", dest="coeffs_path",
                    help="coefficient file (format=periodpoly-coeffs-1)")
    pa.add_argument("--curve", dest="curve_path",
                    help="curve file (format=periodpoly-curves-1)")
    pa.add_argument("--sym", type=int, default=0,
                    help="odd symmetric-power index (curve input only)")
    pa.add_argument("--label", help="curve label to pick from the file")
    pa.add_argument("--eps-overrides", dest="eps_overrides_path",
                    help="recorded root numbers (format=periodpoly-eps-1)")
    pa.add_argument("--target-error", type=float, default=None,
                    help="absolute error target for completed values "
                         "(default: value scale * 1e-25)")
    pa.add_argument("--coeff-limit", type=int, default=10000,
                    help="how many Dirichlet coefficients to generate from "
                         "a curve (default %(default)s)")
    pa.add_argument("--cache-dir", help="special-values cache directory")
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
    except (VerificationError, ConventionError) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1
    except (CertificationError, QuadratureError,
            InsufficientCoefficients) as exc:
        print("certification failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
