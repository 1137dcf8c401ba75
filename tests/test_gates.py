"""Gate thresholds A_m, the Hodge-exponent inequality, and the verdicts.

A_2 has a one-term closed form, 2 pi (zeta(3/2)/zeta(5/2))^2, recomputed
here directly from mpmath as the oracle for the frozen digits.
"""

from types import SimpleNamespace

import mpmath
import pytest
from mpmath import mp

from periodpoly import gates, lfunc, zeros
from periodpoly import (
    InputError,
    LFunctionData,
    RealPolynomial,
    binomial_weight,
    build_P_poly,
    build_Q_poly,
    build_p_poly,
    compute_A_m,
    coefficient_inequalities,
    gamma_completed,
    hodge_condition,
    partial_sum_T,
    poly_roots,
    rouche_transfer,
    s_tail_parts,
    theorem_gate,
)


class TestAm:
    def test_a2_closed_form(self):
        with mp.workprec(128):
            want = 2 * mp.pi * (mp.zeta(mp.mpf(3) / 2) / mp.zeta(mp.mpf(5) / 2)) ** 2
            assert abs(compute_A_m(2) - want) < mp.mpf("1e-35")

    def test_frozen_digits(self):
        with mp.workprec(128):
            assert abs(compute_A_m(2) - mp.mpf("23.82746931321984366077")) < 1e-19
            assert abs(compute_A_m(3) - mp.mpf("11.91373465660992183039")) < 1e-19
            assert abs(compute_A_m(4) - mp.mpf("7.942489771073281220258")) < 1e-19

    def test_a3_is_half_a2(self):
        # the j = 1 term dominates at m = 3 with denominator m - j = 2
        with mp.workprec(128):
            assert abs(compute_A_m(3) - compute_A_m(2) / 2) < mp.mpf("1e-30")

    def test_tends_to_two_pi(self):
        with mp.workprec(128):
            for m in (50, 200, 1000):
                assert abs(compute_A_m(m) - 2 * mp.pi) < 0.3

    def test_rejects_m1(self):
        with pytest.raises(InputError):
            compute_A_m(1)


class TestHodgeCondition:
    @pytest.mark.parametrize(
        "m,hodge,want",
        [
            (1, (0, 1), (True, 2, 1)),
            (1, (1, 1), (True, 2, 2)),
            (2, (1, 1, 1), (True, 8, 3)),
            (2, (3, 0, 0), (False, 16, 27)),
            (3, (2, 0, 0, 1), (True, 2 * 3 ** 3, 4 ** 2)),
        ],
    )
    def test_table(self, m, hodge, want):
        assert hodge_condition(m, hodge) == want

    def test_rational_form_equivalence(self):
        from fractions import Fraction

        for m in range(1, 6):
            for h0 in range(0, 4):
                for hm in range(0, 3):
                    hodge = (h0,) + (0,) * (m - 1) + (hm,)
                    ok, _, _ = hodge_condition(m, hodge)
                    alt = 2 * Fraction(m) ** hm >= (1 + Fraction(1, m)) ** h0
                    assert ok == alt, (m, h0, hm)


def _big_p(data, vals):
    return build_P_poly(build_p_poly(data, vals))


def _gamma_route(data, vals):
    """The margins as the L-value inequalities state them, with
    N^{s/2} L_inf(s) stripped from each Lambda(s) by gamma_completed:
    margins[j-1] = sqrt(N/(2 pi)^d) L(m+j+2) - (m-j)^{-d/2} L(m+j+1), and
    central = [prod_nu (m+1-nu)^{-h_nu}] Lambda(m+2)
    - (1/2) [prod_nu m^{-h_nu}] Lambda(m+1), each with its error."""
    m, d, n = data.m, data.degree, data.conductor

    def finite_l(s):
        den = mp.power(n, mp.mpf(s) / 2) * gamma_completed(s, data,
                                                            bits=vals.bits)
        return mp.mpf(vals.value(s)) / den, mp.mpf(vals.error(s)) / den

    with mp.workprec(vals.bits):
        pref = mp.sqrt(mp.mpf(n) / (2 * mp.pi) ** d)
        margins = []
        for j in range(1, m):
            la, ea = finite_l(m + j + 1)
            lb, eb = finite_l(m + j + 2)
            wgt = mp.mpf(m - j) ** (-mp.mpf(d) / 2)
            margins.append((pref * lb - wgt * la, pref * eb + wgt * ea))
        prod_a = prod_b = mp.mpf(1)
        for nu, h in enumerate(data.hodge):
            prod_a *= mp.mpf(m) ** (-h)
            prod_b *= mp.mpf(m + 1 - nu) ** (-h)
        va, ea = vals.values[m + 1]
        vb, eb = vals.values[m + 2]
        central = (prod_b * vb - prod_a * va / 2, prod_b * eb + prod_a * ea / 2)
    return margins, central


class TestGateVerdicts:
    def test_sym3_m1(self, sym3_data, sym3_vals):
        g = theorem_gate(sym3_data, _big_p(sym3_data, sym3_vals),
                         sym_context=(3, 11))
        assert g.case == "M1"
        assert g.satisfied
        assert g.a_m is None
        assert g.margins_11 == ()
        v, e = g.margin_22
        # P_1 - P_0: b_1 = 2 times the Gamma-route central margin
        assert abs(v - mp.mpf("20.4458615439182574")) < 1e-13
        assert float(e) < 1e-20

    def test_sym5_none_with_margins(self, sym5_data, sym5_vals):
        g = theorem_gate(sym5_data, _big_p(sym5_data, sym5_vals),
                         sym_context=(5, 11))
        assert g.case == "NONE"
        assert not g.satisfied
        assert g.hodge_ok
        # N = 11^5 sits far below A_2^6
        with mp.workprec(128):
            assert mp.mpf(11 ** 5) < g.a_m_power_d
        assert any("does not exceed" in n for n in g.notes)
        assert any("gap range" in n for n in g.notes)
        # the measured inequalities still hold with room to spare
        assert len(g.margins_11) == 1
        mv, me = g.margins_11[0]
        assert mv > 10 * me > 0
        cv, ce = g.margin_22
        assert cv > 10 * ce > 0

    def test_synthetic_large_n(self):
        data = LFunctionData(
            weight=5,
            degree=6,
            conductor=2 * 10 ** 8 + 7,
            hodge=(1, 1, 1),
            root_number=1,
            coefficients=(mp.mpf(1),),
            label="synthetic-large",
        )
        g = theorem_gate(data)
        assert g.case == "LARGE_N"
        assert g.satisfied
        assert g.margins_11 == ()  # no values supplied
        with mp.workprec(128):
            assert mp.mpf(data.conductor) > g.a_m_power_d

    def test_hodge_failure_reported(self):
        data = LFunctionData(
            weight=5,
            degree=6,
            conductor=2 * 10 ** 8 + 7,
            hodge=(3, 0, 0),
            root_number=1,
            coefficients=(mp.mpf(1),),
            label="synthetic-bad-hodge",
        )
        g = theorem_gate(data)
        assert g.case == "NONE"
        assert any("Hodge condition fails" in n for n in g.notes)

    def test_coefficient_inequalities_shape(self, sym5_data, sym5_vals):
        margins, central = coefficient_inequalities(_big_p(sym5_data,
                                                           sym5_vals))
        assert len(margins) == sym5_data.m - 1
        assert central is not None

    @pytest.mark.parametrize("fixture", ["sym3", "sym5", "sym7", "large_n"])
    def test_steps_are_scaled_gamma_route_margins(self, request, fixture):
        # P_{j+1} - P_j = N^{w/2} L_inf(w) y^{m-j}/((m-j-1)!)^{d/2} times the
        # Gamma route's margin, and P_1 - P_0 = b_m m^{sum h} times its
        # central one; the errors scale alike, up to rounding
        if fixture == "large_n":
            data, vals = request.getfixturevalue("large_n_synthetic")
        else:
            data = request.getfixturevalue(fixture + "_data")
            vals = request.getfixturevalue(fixture + "_vals")
        m, d, n, w = data.m, data.degree, data.conductor, data.weight
        margins, central = coefficient_inequalities(_big_p(data, vals))
        old_margins, old_central = _gamma_route(data, vals)
        assert len(margins) == len(old_margins) == m - 1
        with mp.workprec(vals.bits):
            lam_w = mp.power(n, mp.mpf(w) / 2) * gamma_completed(
                w, data, bits=vals.bits)
            y = mp.power(2 * mp.pi, mp.mpf(d) / 2) / mp.sqrt(n)
            factors = [lam_w * y ** (m - j)
                       / mp.factorial(m - j - 1) ** (mp.mpf(d) / 2)
                       for j in range(1, m)]
            factors.append(binomial_weight(m, data.hodge, 0)
                           * m ** sum(data.hodge))
            tol = mp.mpf(2) ** (8 - vals.bits)
            for (v, e), (ov, oe), f in zip(
                    list(margins) + [central],
                    old_margins + [old_central], factors):
                assert (v > 0) == (ov > 0) and (v > e) == (ov > oe)
                assert abs(v / (f * ov) - 1) < tol
                assert abs((e / abs(v)) / (oe / abs(ov)) - 1) < 1e-10

    def test_gate_evaluates_no_gamma(self, monkeypatch, sym5_data,
                                     sym5_vals):
        big_p = _big_p(sym5_data, sym5_vals)
        calls = []

        def spy(real):
            def inner(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return inner

        monkeypatch.setattr(lfunc, "gamma_completed",
                            spy(lfunc.gamma_completed))
        # an import by name would escape the patch of lfunc
        monkeypatch.setattr(gates, "gamma_completed",
                            spy(lfunc.gamma_completed), raising=False)
        monkeypatch.setattr(mpmath, "gamma", spy(mpmath.gamma))
        monkeypatch.setattr(mp, "gamma", spy(mp.gamma))
        g = theorem_gate(sym5_data, big_p, sym_context=(5, 11))
        assert len(g.margins_11) == 1
        assert calls == []


class TestRoucheTransfer:
    def test_sym5_consistency(self, sym5_data, sym5_vals):
        m, d, n = sym5_data.m, sym5_data.degree, sym5_data.conductor
        q = build_Q_poly(build_P_poly(build_p_poly(sym5_data, sym5_vals)),
                         sym5_vals)
        t = partial_sum_T(m, d, n, bits=q.bits)
        rt = rouche_transfer(sym5_data, s_tail_parts(q, t), t)
        assert rt.f_disc_zeros >= 0
        assert rt.certified
        assert rt.min_t > rt.remainder_bound
        assert rt.t_disc_zeros == 0
        assert rt.q_disc_zeros == m
        # the implication itself: Q's roots, isolated directly, all lie in
        # the open unit disc
        assert sum(1 for z, rad in poly_roots(q) if abs(z) + rad < 1) == m
        # coverage: on a 4x finer grid at twice the bits, with T rebuilt
        # there, the remainder stays below its bound and |T| above min_t
        bits = 2 * q.bits
        t2 = partial_sum_T(m, d, n, bits=bits).values()[::-1]
        qs = q.values()[::-1]
        gap = low = None
        with mp.workprec(bits):
            for i in range(16384):
                z = mp.expj(2 * mp.pi * i / 16384)
                tz = mp.polyval(t2, z)
                diff = abs(mp.polyval(qs, z) - z ** m * mp.polyval(t2, 1 / z))
                gap = diff if gap is None else max(gap, diff)
                low = abs(tz) if low is None else min(low, abs(tz))
        assert gap <= rt.remainder_bound
        assert rt.min_t <= low

    def test_rejects_m1(self, sym3_data):
        with pytest.raises(InputError):
            rouche_transfer(sym3_data, None, None)

    def test_near_double_root_certifies(self):
        # T = (z - 1/2)(z - 1/2 - 2^-100): the two inclusion discs about 1/2
        # meet, but the winding of the circle samples counts both zeros
        data = LFunctionData(weight=5, degree=6, conductor=2 * 10 ** 8 + 7,
                             hodge=(1, 1, 1), root_number=1,
                             coefficients=(mp.mpf(1),), label="near-double")
        with mp.workprec(128):
            e = mp.mpf(2) ** -100
            t = RealPolynomial(((mp.mpf(0.25) + e / 2, 0), (-(1 + e), 0),
                                (1, 0)), bits=128)
        (z1, r1), (z2, r2) = poly_roots(t)
        assert abs(z1 - z2) <= r1 + r2
        assert all(abs(z) + r < 1 for z, r in ((z1, r1), (z2, r2)))
        rt = rouche_transfer(data, mp.mpf("0.01"), t)
        assert rt.min_t > rt.remainder_bound
        assert rt.certified
        assert rt.t_disc_zeros == 2
        assert rt.q_disc_zeros == 0

    def test_zero_on_the_circle_withholds(self):
        # T = (z - 1)(z - 1/2): |T(1)| = 0, so no min_t > 0 and no count
        t = RealPolynomial(((mp.mpf(0.5), 0), (-1.5, 0), (1, 0)), bits=128)
        rt = rouche_transfer(_transfer_data(2, 6, 10 ** 8), mp.mpf(0), t)
        assert rt.min_t <= 0
        assert not rt.certified
        assert rt.t_disc_zeros is None
        assert rt.q_disc_zeros is None

    def test_winding_matches_inclusion_discs(self):
        # the oracle: T's roots isolated by poly_roots, counted inside the
        # disc; the grid holds 0 to 6 zeros, and (6, 2, 5) a zero too near
        # the circle for the samples (min_t <= 0, no count)
        cases = [(m, d, n) for m in range(2, 7) for d in (2, 8)
                 for n in (1, 5, 100, 1000, 10 ** 4)]
        cases += [(2, 4, n) for n in (1, 100, 10 ** 4)]  # T = (1 + yz/2)^2
        # 14a1, 37a1 and 53a1 Sym^5, 37a1 Sym^7 and 11a1 Sym^9
        cases += [(2, 6, 14 ** 5), (2, 6, 37 ** 5), (2, 6, 53 ** 5),
                  (3, 8, 37 ** 7), (4, 10, 11 ** 9)]
        counts = []
        for m, d, n in cases:
            t = partial_sum_T(m, d, n, bits=128)
            rt = rouche_transfer(_transfer_data(m, d, n), mp.mpf(0), t)
            if rt.min_t > 0:
                located = poly_roots(t)
                assert not any(abs(z) - r <= 1 <= abs(z) + r
                               for z, r in located)
                want = sum(1 for z, r in located if abs(z) + r < 1)
            else:
                want = None
            assert rt.t_disc_zeros == want, (m, d, n)
            counts.append(want)
        assert set(counts) == {None, 0, 1, 2, 3, 4, 5, 6}
        assert counts[-5:] == [0] * 5

    def test_transfer_locates_no_roots(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return poly_roots(*args, **kwargs)

        monkeypatch.setattr(zeros, "poly_roots", spy)
        # an import by name would escape the patch of zeros
        monkeypatch.setattr(gates, "poly_roots", spy, raising=False)
        t = partial_sum_T(3, 8, 11 ** 7, bits=128)
        rt = rouche_transfer(_transfer_data(3, 8, 11 ** 7), mp.mpf(0), t)
        assert rt.t_disc_zeros == 0
        assert calls == []


def _transfer_data(m, d, n):
    """The fields of a dataset that rouche_transfer reads."""
    return SimpleNamespace(m=m, degree=d, conductor=n)
