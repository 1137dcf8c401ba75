"""Special-value polynomials, ratios, and the gamma-normalized family.

Frozen decimal expectations were produced by the completed-value engine
at 192 bits with a 1e-25 absolute target and are asserted far above
their certified error bounds.
"""

import pytest
from mpmath import mp

from periodpoly import (
    ApproximantSeries,
    InputError,
    RealPolynomial,
    binomial_weight,
    build_P_poly,
    build_Q_poly,
    build_p_poly,
    l_value_ratios,
    partial_sum_T,
    q_decomposition_residual,
    s_tail_parts,
    VerificationError,
)


def near(x, s, tol):
    with mp.workprec(256):
        return abs(mp.mpf(x) - mp.mpf(s)) <= mp.mpf(tol)


class TestBinomialWeights:
    def test_m1_weight2_pattern(self):
        # hodge (1, 1): center doubled, edges 1
        assert binomial_weight(1, (1, 1), 0) == 2
        assert binomial_weight(1, (1, 1), 1) == 1

    def test_m2_weight2_pattern(self):
        assert binomial_weight(2, (1, 1, 1), 0) == 18
        assert binomial_weight(2, (1, 1, 1), 1) == 24
        assert binomial_weight(2, (1, 1, 1), 2) == 1

    def test_hodge_zero_slots_do_not_contribute(self):
        assert binomial_weight(2, (1, 0, 1), 1) == 4 * 2
        assert binomial_weight(2, (0, 0, 1), 0) == 1  # C(2,2)


class TestSym3Polynomials:
    def test_p_coefficients(self, sym3_data, sym3_vals):
        p = build_p_poly(sym3_data, sym3_vals)
        assert p.degree == 2
        want = (
            "44.919088391528016466489",
            "48.946453695219518270397",
            "44.919088391528016466489",
        )
        for got, expect in zip(p.values(), want):
            assert near(got, expect, "1e-20")
        # palindromic exactly (identical products at both ends)
        assert p.values()[0] == p.values()[2]

    def test_P_coefficients(self, sym3_data, sym3_vals):
        P = build_P_poly(sym3_data, sym3_vals)
        assert P.degree == 1
        assert near(P.values()[0], "24.473226847609759135198", "1e-20")
        assert near(P.values()[1], "44.919088391528016466489", "1e-20")

    def test_fold_identity(self, sym3_data, sym3_vals):
        # p(z) = eps z^m (P(z) + eps P(1/z)) away from z = 0
        p = build_p_poly(sym3_data, sym3_vals)
        P = build_P_poly(sym3_data, sym3_vals)
        eps = sym3_data.root_number
        m = sym3_data.m
        with mp.workprec(192):
            for z in (mp.mpf(2), mp.mpf("0.4"), mp.expj(mp.mpf("0.9")),
                      mp.mpc(-1, 1) / 3):
                lhs = p(z)
                rhs = eps * z ** m * (P(z) + eps * P(1 / z))
                assert abs(lhs - rhs) < mp.mpf("1e-45") * abs(lhs)

    def test_ratios(self, sym3_data, sym3_vals):
        r = l_value_ratios(sym3_data, sym3_vals)
        # r_0 = L(w)/L(w) is exactly 1
        assert r.ratios[0][0] == 1
        assert near(r.central[0], "1.00697708686343655932", "1e-18")

    def test_Q_coefficients(self, sym3_data, sym3_vals):
        Q = build_Q_poly(sym3_data, l_value_ratios(sym3_data, sym3_vals))
        assert Q.degree == 1
        assert near(Q.values()[0], "0.544829107712380524", "1e-15")
        assert Q.values()[1] == 1  # c_0 r_0 exactly

    def test_q_decomposition_residual(self, sym3_data, sym3_vals):
        res, smax = q_decomposition_residual(
            sym3_data, l_value_ratios(sym3_data, sym3_vals))
        assert res < mp.mpf("1e-50")
        assert float(smax) == pytest.approx(1.0821083, rel=1e-5)

    def test_s_tail_requires_m_at_least_two(self, sym3_data, sym3_vals):
        r = l_value_ratios(sym3_data, sym3_vals)
        with pytest.raises(InputError):
            s_tail_parts(sym3_data, r)


class TestRatioFailure:
    def test_central_zero_top_is_fine(self):
        # a vanishing central value is no obstacle; a vanishing Lambda(w) is
        from periodpoly import LFunctionData, SpecialValues

        with mp.workprec(208):
            tiny = mp.mpf(2) ** (-192)
            data = LFunctionData(weight=3, degree=2, conductor=7,
                                 hodge=(0, 1), root_number=-1,
                                 coefficients=(mp.mpf(1),), label="t")
            vals = SpecialValues(weight=3, values={
                1: (mp.mpf(-3), tiny), 2: (mp.mpf(0), tiny),
                3: (mp.mpf(3), tiny)}, bits=192, target=float(tiny),
                label="t")
        r = l_value_ratios(data, vals)
        assert r.ratios[0][0] == 1
        bad = SpecialValues(weight=3, values={
            1: (mp.mpf(0), tiny), 2: (mp.mpf(0), tiny),
            3: (mp.mpf(0), tiny)}, bits=192, target=float(tiny), label="t")
        with pytest.raises(VerificationError):
            l_value_ratios(data, bad)


class TestApproximantSeries:
    def test_term_budget_and_value(self):
        F = ApproximantSeries(4, 1331, bits=192)
        assert F.J == 20
        assert near(F.eval(2), "4.65834510864966844", "1e-14")

    def test_tail_bound_monotone_in_budget(self):
        F = ApproximantSeries(4, 1331, bits=192)
        with mp.workprec(192):
            assert F.tail_bound(2, 24) < F.tail_bound(2, 20)
            assert F.tail_bound(2) <= mp.mpf(F.target) * 4

    def test_eval_refuses_outside_certificate(self):
        F = ApproximantSeries(4, 1331, bits=192)
        with mp.workprec(192):
            r = 4
            assert F.tail_bound(r) > mp.mpf(F.target) * 4
        with pytest.raises(InputError):
            F.eval(r)

    def test_rejects_odd_degree(self):
        with pytest.raises(InputError):
            ApproximantSeries(3, 100)

    def test_partial_sum_matches_series_terms(self):
        T = partial_sum_T(3, 4, 1331, bits=192)
        F = ApproximantSeries(4, 1331, bits=192)
        assert T.values()[0] == 1
        with mp.workprec(192):
            y = F._y()
            for j in (1, 2, 3):
                want = y ** j / mp.factorial(j) ** 2
                assert abs(T.values()[j] - want) < mp.mpf("1e-50") * want


class TestRealPolynomial:
    def test_eval_and_error_propagation(self):
        p = RealPolynomial(((1, 0.25), (2, 0.5)), bits=64)
        v, e = p.eval_with_error(3)
        assert v == 7
        assert abs(e - (0.25 + 1.5)) < 1e-12

    def test_degenerate_marking(self):
        p = RealPolynomial(((1, 0), (1e-30, 1e-20)), bits=64)
        assert p.degenerate

    def test_derivative_and_scale(self):
        p = RealPolynomial(((5, 0), (3, 0), (2, 0)), bits=64)
        assert [float(c) for c in p.derivative().values()] == [3.0, 4.0]
        assert [float(c) for c in p.scale(2).values()] == [10.0, 6.0, 4.0]

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            RealPolynomial(())
