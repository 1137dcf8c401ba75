"""Acceptance criteria for the library, one test per criterion.

Each test prints a single machine-greppable verdict line

    criterion[<name>]: PASS/FAIL (<measured quantities>)

before asserting, so a failing run still reports every measured number.
Tolerances and time budgets are part of the criteria and are asserted,
not just printed.  This file collects first alphabetically, so it pays
the session-fixture construction costs and its timing criteria measure
the real builds.
"""

import math
import random
import time

import mpmath as mp
import pytest

from periodpoly import (
    CurveSpec,
    LFunctionData,
    Precision,
    RealPolynomial,
    SpecialValues,
    binomial_weight,
    build_p_poly,
    check_zeta_properties,
    circle_report,
    compute_A_m,
    deflate_at_one,
    dirichlet_l,
    disc_transition_table,
    gamma_completed,
    l_value_ratios,
    maclaurin_coefficients,
    poly_roots,
    q_decomposition_residual,
    rv_transform,
    special_values,
    star_discrepancy,
    sym_lfunction_data,
    theorem_gate,
    verify_hypothesis,
    zeta_poly_closed_form,
    zeta_polynomial,
)


def criterion(name, ok, detail):
    print("criterion[%s]: %s (%s)" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def real_poly(values, bits=192):
    with mp.workprec(bits):
        return RealPolynomial(tuple((mp.mpf(v), mp.mpf(0)) for v in values),
                              bits=bits)


def synthetic_m1(delta, h0, bits=192):
    """Weight-3, eps = +1, Lambda = (1, delta, 1), Hodge (h0, 1)."""
    data = LFunctionData(weight=3, degree=2 * (h0 + 1), conductor=5,
                         hodge=(h0, 1), root_number=1,
                         coefficients=(mp.mpf(1),),
                         label="m1-%g-%d" % (delta, h0))
    with mp.workprec(bits + 16):
        tiny = mp.mpf(2) ** (-bits)
        vals = SpecialValues(weight=3, values={
            1: (mp.mpf(1), tiny),
            2: (mp.mpf(delta), tiny),
            3: (mp.mpf(1), tiny),
        }, bits=bits, target=float(tiny), label=data.label)
    return data, vals


def test_am_growth_table():
    t0 = time.perf_counter()
    a2 = compute_A_m(2)
    a3 = compute_A_m(3)
    worst_mid = max(float(compute_A_m(m)) for m in range(4, 51))
    drift = abs(float(compute_A_m(1000)) - 2 * math.pi)
    elapsed = time.perf_counter() - t0
    ok = (
        23.80 < float(a2) <= 23.83
        and 11.90 < float(a3) <= 11.92
        and worst_mid <= 8.0
        and drift < 0.01
        and elapsed < 5.0
    )
    criterion(
        "a_m-growth-table", ok,
        "A_2=%.6f A_3=%.6f max(A_4..A_50)=%.6f |A_1000-2pi|=%.2e %.2fs"
        % (float(a2), float(a3), worst_mid, drift, elapsed),
    )


def test_disc_zero_transition_tables():
    t0 = time.perf_counter()
    tab4 = disc_transition_table(4, 800)
    tab6 = disc_transition_table(6, 46000)
    elapsed = time.perf_counter() - t0
    ok4 = tab4 == [(1, 4), (2, 3), (5, 2), (27, 1), (746, 0)]
    ok6 = tab6 == [(1, 5), (2, 4), (7, 3), (38, 2), (495, 1), (45607, 0)]
    with mp.workprec(128):
        bessel = [
            int(mp.floor((16 * mp.pi ** 2 / mp.besseljzero(0, k) ** 2) ** 2)) + 1
            for k in (1, 2, 3, 4)
        ]
    okb = [t for t, _ in tab4[1:]][::-1] == bessel == [746, 27, 5, 2]
    ok = ok4 and ok6 and okb and elapsed < 120.0
    criterion(
        "disc-zero-transitions", ok,
        "d=4 %s, d=6 %s, bessel-floors %s, %.2fs" % (tab4, tab6, bessel, elapsed),
    )


def test_weight_three_root_structure():
    # eps = -1 forces p proportional to 1 - z^2: roots exactly at -1, +1,
    # and the deflated polynomial keeps only the root at -1.
    with mp.workprec(208):
        tiny = mp.mpf(2) ** (-192)
        data = LFunctionData(weight=3, degree=4, conductor=7, hodge=(1, 1),
                             root_number=-1, coefficients=(mp.mpf(1),),
                             label="m1-neg")
        vals = SpecialValues(weight=3, values={
            1: (mp.mpf(-5), tiny), 2: (mp.mpf(0), tiny), 3: (mp.mpf(5), tiny),
        }, bits=192, target=float(tiny), label=data.label)
    p = build_p_poly(data, vals)
    roots = sorted(poly_roots(p), key=lambda zr: mp.re(zr[0]))
    neg_ok = (
        len(roots) == 2
        and abs(roots[0][0] + 1) < 1e-12
        and abs(roots[1][0] - 1) < 1e-12
    )
    quotient = deflate_at_one(p, -1)
    qroots = poly_roots(quotient)
    neg_ok = neg_ok and len(qroots) == 1 and abs(qroots[0][0] + 1) < 1e-12

    # eps = +1 family: roots e^{+-i theta} with cos(theta) = -2^{h0-1} delta,
    # so the angles sit within 2 delta 2^{h0-1} of +-pi/2.
    worst = 0.0
    plus_ok = True
    for h0 in (0, 1):
        for delta in (1e-4, 1e-3, 1e-2):
            d2, v2 = synthetic_m1(delta, h0)
            roots = poly_roots(build_p_poly(d2, v2))
            plus_ok = plus_ok and len(roots) == 2
            allowed = 2 * delta * 2 ** (h0 - 1) + 1e-9
            for z, _ in roots:
                plus_ok = plus_ok and abs(abs(z) - 1) < 1e-20
                ang = float(mp.arg(z)) % (2 * math.pi)
                dev = min(abs(ang - math.pi / 2), abs(ang - 3 * math.pi / 2))
                worst = max(worst, dev / (2 * delta * 2 ** (h0 - 1)))
                plus_ok = plus_ok and dev <= allowed
    ok = neg_ok and plus_ok
    criterion(
        "weight-three-root-structure", ok,
        "eps=-1 roots {-1,+1} ok=%s; eps=+1 worst dev/bound=%.3f" % (neg_ok, worst),
    )


def test_sym3_end_to_end():
    t0 = time.perf_counter()
    curve = CurveSpec(0, -1, 1, -10, -20, 11, "11a1")
    data = sym_lfunction_data(curve, 3, 10000, 1)
    vals = special_values(data, Precision(192, 1e-25))
    p = build_p_poly(data, vals)
    rep = circle_report(p, tolerance=1e-6)
    with mp.workprec(192):
        afe = mp.mpf(vals.value(3))
        afe_err = mp.mpf(vals.error(3))
        lser, tail = dirichlet_l(3, data, Precision(192, 100.0))
        scale = mp.power(data.conductor, mp.mpf(3) / 2) * gamma_completed(
            3, data, bits=192
        )
        direct = scale * lser
        diff = abs(afe - direct)
        bound = afe_err + scale * tail
        rel = float(afe_err / abs(afe))
    elapsed = time.perf_counter() - t0
    ok = (
        rep.num_on == 2
        and rep.num_off == 0
        and rep.num_uncertain == 0
        and diff <= bound
        and rel < 1e-15
        and elapsed < 60.0
    )
    criterion(
        "sym3-end-to-end", ok,
        "roots on=%d/2 |afe-direct|=%.3e <= %.3e rel_err=%.1e D*=%.4f %.1fs"
        % (rep.num_on, float(diff), float(bound), rel, float(rep.discrepancy),
           elapsed),
    )


def test_bound_coverage_sym3(sym3_data, sym3_vals):
    # the 64-bit, 1e-3 values against the 192-bit, 1e-25 ones: the true
    # error must lie inside the sum of the two reported bounds
    low = special_values(sym3_data, Precision(64, 1e-3))
    ok = True
    shares = []
    with mp.workprec(256):
        for s in sorted(low.values):
            v, e = low.values[s]
            v_ref, e_ref = sym3_vals.values[s]
            gap = abs(mp.mpf(v) - v_ref)
            ok = ok and gap <= e + e_ref
            shares.append("s=%d %.2e/%.2e (%.2f%%)"
                          % (s, float(gap), float(e), 100 * float(gap / e)))
    criterion("bound-coverage-sym3", ok,
              "true error / bound at 64 bits, 1e-3: " + ", ".join(shares))


def test_sym5_central_ratio(request):
    t0 = time.perf_counter()
    vals = request.getfixturevalue("sym5_vals")
    elapsed = time.perf_counter() - t0
    data = request.getfixturevalue("sym5_data")
    w = binomial_weight(2, (1, 1, 1), 1)
    with mp.workprec(vals.bits):
        central = mp.mpf(vals.value(3))
        ratio = abs(w * mp.mpf(vals.value(4)) / mp.mpf(vals.value(5)))
    ok = (
        data.root_number == -1
        and central == 0
        and w == 24
        and ratio <= 1
        and elapsed < 600.0
    )
    criterion(
        "sym5-central-ratio", ok,
        "eps=%+d Lambda(3)=%s |24 Lambda(4)/Lambda(5)|=%.6f build %.1fs"
        % (data.root_number, mp.nstr(central, 5), float(ratio), elapsed),
    )


def test_rv_random_circle_suite():
    rng = random.Random(20260816)
    t0 = time.perf_counter()
    line_failures = []
    mac_failures = []
    mac_checked = 0
    for i in range(200):
        n_quad = rng.randint(1, 18)
        j_plus = rng.randint(0, min(4, 40 - 2 * n_quad))
        with mp.workprec(192):
            coeffs = [mp.mpf(1)]
            for _ in range(n_quad):
                theta = mp.mpf(rng.uniform(0.05, math.pi - 0.02))
                coeffs = conv(coeffs, [mp.mpf(1), -2 * mp.cos(theta), mp.mpf(1)])
            for _ in range(j_plus):
                coeffs = conv(coeffs, [mp.mpf(1), mp.mpf(1)])
        u = real_poly(coeffs)
        z = rv_transform(u)
        chk = check_zeta_properties(z, tol_fe=1e-18, tol_line=1e-8)
        if not chk.ok:
            line_failures.append(i)
        if i % 5 == 0:
            mac_checked += 1
            e = len(coeffs) - 1
            count = 3 * e + 1
            mac = maclaurin_coefficients(u, e, count)
            with mp.workprec(192):
                series = [mp.mpf(c) for c in coeffs]
                series += [mp.mpf(0)] * (count - len(series))
                series = series[:count]
                for _ in range(e + 1):  # multiply by 1/(1-z), term by term
                    acc = mp.mpf(0)
                    for idx in range(count):
                        acc += series[idx]
                        series[idx] = +acc
                for got, want in zip(mac, series):
                    if abs(got - want) > mp.mpf("1e-12") * (1 + abs(want)):
                        mac_failures.append(i)
                        break
    elapsed = time.perf_counter() - t0
    ok = not line_failures and not mac_failures
    criterion(
        "rv-random-circle-suite", ok,
        "200 transforms, line failures %s, maclaurin checked %d failures %s, %.1fs"
        % (line_failures, mac_checked, mac_failures, elapsed),
    )


def test_closed_form_equivalence(sym3_data, sym3_vals, sym5_data, sym5_vals):
    outcomes = []
    ok = True
    for data, vals in ((sym3_data, sym3_vals), (sym5_data, sym5_vals)):
        zp, winner, report = zeta_poly_closed_form(
            data, vals, zeta_polynomial(data, vals))
        outcomes.append("%s: winner %s A-dev %.1e B-dev %.1e"
                        % (data.label, winner, float(report["A"]),
                           float(report["B"])))
        ok = ok and winner == "A" and report["B"] > report["A"]
    criterion("zeta-closed-form-equivalence", ok, "; ".join(outcomes))


def test_q_identity(sym3_data, sym3_vals, sym5_data, sym5_vals):
    outcomes = []
    ok = True
    for data, vals in ((sym3_data, sym3_vals), (sym5_data, sym5_vals)):
        resid, s_max = q_decomposition_residual(
            data, l_value_ratios(data, vals))
        outcomes.append("%s: residual %.2e (max |S| %.3f)"
                        % (data.label, float(resid), float(s_max)))
        ok = ok and resid < mp.mpf("1e-20")
    criterion("q-decomposition-identity", ok, "; ".join(outcomes))


def _large_n_synthetic():
    """m = 2 dataset with conductor above A_2^6 and finite L ratios == 1."""
    hodge = (1, 1, 1)
    n_cond = 200000007
    data = LFunctionData(weight=5, degree=6, conductor=n_cond, hodge=hodge,
                         root_number=1, coefficients=(mp.mpf(1),),
                         label="large-n")
    with mp.workprec(192):
        tiny = mp.mpf(2) ** (-120)
        values = {}
        for s in (3, 4, 5):
            lam = mp.power(n_cond, mp.mpf(s) / 2) * gamma_completed(
                s, data, bits=192
            )
            values[s] = (+lam, tiny)
        values[1] = values[5]  # functional-equation mirrors; the gamma
        values[2] = values[4]  # factors at s <= 2 are never consulted
        vals = SpecialValues(weight=5, values=values, bits=192, target=1e-20,
                             label=data.label)
    return data, vals


def test_gate_implication(sym3_data, sym3_vals, sym5_data, sym5_vals,
                          sym7_data, sym7_vals, trend_sym3):
    reports = [
        theorem_gate(sym3_data, sym3_vals),
        theorem_gate(sym5_data, sym5_vals),
        theorem_gate(sym7_data, sym7_vals),
    ]
    for label, (data, vals) in sorted(trend_sym3.items()):
        reports.append(theorem_gate(data, vals))
    ln_data, ln_vals = _large_n_synthetic()
    reports.append(theorem_gate(ln_data, ln_vals))

    cases = []
    ok = True
    non_vacuous = 0
    for rep in reports:
        cases.append("%s:%s" % (rep.label, rep.case))
        ok = ok and rep.satisfied == (rep.case in ("M1", "LARGE_N"))
        if rep.case == "M1":
            ok = ok and rep.m == 1 and rep.hodge_ok
        if rep.case == "LARGE_N":
            ok = ok and rep.hodge_ok
            ok = ok and mp.mpf(rep.conductor) > rep.a_m_power_d
            measured = list(rep.margins_11)
            if rep.margin_22 is not None:
                measured.append(rep.margin_22)
            non_vacuous += len(measured)
            for value, err in measured:
                ok = ok and value > err >= 0
    ok = ok and non_vacuous > 0
    criterion(
        "gate-implications", ok,
        "%s; LARGE_N margins checked: %d" % (", ".join(cases), non_vacuous),
    )


def test_hypothesis_checks(sym3_data, sym3_vals, sym5_data, sym5_vals,
                           sym7_data, sym7_vals, trend_sym3):
    datasets = [
        (sym3_data, sym3_vals),
        (sym5_data, sym5_vals),
        (sym7_data, sym7_vals),
    ]
    datasets.extend(pair for _, pair in sorted(trend_sym3.items()))
    clean = {d.label: verify_hypothesis(d, v) for d, v in datasets}
    all_clean = all(not v for v in clean.values())

    # doctored growth: |lambda(2)| = 50 violates d_2(2) 2^{3/2}
    with mp.workprec(208):
        tiny = mp.mpf(2) ** (-120)
        grc_data = LFunctionData(
            weight=3, degree=2, conductor=5, hodge=(0, 1), root_number=1,
            coefficients=(1, 50) + (0,) * 48, label="doctored-growth")
        grc_vals = SpecialValues(weight=3, values={
            1: (mp.mpf(1), tiny), 2: (mp.mpf("0.5"), tiny), 3: (mp.mpf(1), tiny),
        }, bits=192, target=1e-20, label=grc_data.label)
        sign_data = LFunctionData(
            weight=3, degree=2, conductor=5, hodge=(0, 1), root_number=1,
            coefficients=(1,), label="doctored-sign")
        sign_vals = SpecialValues(weight=3, values={
            1: (mp.mpf(1), tiny), 2: (mp.mpf("-0.5"), tiny), 3: (mp.mpf(1), tiny),
        }, bits=192, target=1e-20, label=sign_data.label)
    grc_hits = verify_hypothesis(grc_data, grc_vals)
    sign_hits = verify_hypothesis(sign_data, sign_vals)
    caught = (
        any(v.startswith("grc:") for v in grc_hits)
        and any(v.startswith("central-sign:") for v in sign_hits)
    )
    ok = all_clean and caught
    criterion(
        "hypothesis-verification", ok,
        "clean on %s; doctored growth -> %d hit(s), doctored sign -> %d hit(s)"
        % (sorted(clean), len(grc_hits), len(sign_hits)),
    )


def test_equidistribution_trend(sym3_data, sym3_vals, sym5_data, sym5_vals,
                                sym7_data, sym7_vals, trend_sym3):
    entries = [
        ("11a1 n=3", sym3_data, sym3_vals),
        ("11a1 n=5", sym5_data, sym5_vals),
        ("11a1 n=7", sym7_data, sym7_vals),
    ]
    for label, (data, vals) in sorted(trend_sym3.items()):
        if label != "11a1":
            entries.append(("%s n=3" % label, data, vals))
    trend = []
    ok = True
    for name, data, vals in entries:
        p = build_p_poly(data, vals)
        phat = deflate_at_one(p, data.root_number)
        # 1e-5 accommodates the reduced-precision n = 7 values, whose
        # inclusion radii run to ~2e-6
        rep = circle_report(phat, tolerance=1e-5)
        angles = rep.on_angles()
        if data.root_number == -1:
            angles = angles + [0.0]  # count the forced root at z = 1 too
        dstar = float(star_discrepancy(angles))
        trend.append("%s deg=%d D*=%.4f" % (name, phat.degree, dstar))
        ok = (
            ok
            and rep.all_on
            and rep.num_on == phat.degree
            and dstar <= 0.75
        )
    criterion("equidistribution-trend", ok, " | ".join(trend))
