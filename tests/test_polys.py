"""Special-value polynomials, Q = P/Lambda(w), the ratios read off it, and
the limit series.

Frozen decimal expectations were produced by the completed-value engine
at 192 bits with a 1e-25 absolute target and are asserted far above
their certified error bounds.
"""

from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import to_rational

from periodpoly import (
    InputError,
    RealPolynomial,
    binomial_weight,
    build_P_poly,
    build_Q_poly,
    build_p_poly,
    gamma_completed,
    l_value_ratios,
    partial_sum_T,
    q_decomposition_residual,
    s_tail_parts,
    VerificationError,
)


def near(x, s, tol):
    with mp.workprec(256):
        return abs(mp.mpf(x) - mp.mpf(s)) <= mp.mpf(tol)


def q_route(data, vals):
    """(Q, T, ratios) the way pipeline.analyze builds them: P -> Q -> T ->
    ratios."""
    q = build_Q_poly(build_P_poly(build_p_poly(data, vals)), vals)
    t = partial_sum_T(data.m, data.degree, data.conductor, bits=q.bits)
    return q, t, l_value_ratios(q, t)


def gamma_route(data, vals):
    """Reference ratios [L(w-j)/L(w) for j < m] + [L(m+1)/L(w)], with
    N^{s/2} L_inf(s) stripped from each Lambda(s) by gamma_completed at 64
    bits above vals.bits."""
    w, bits = data.weight, vals.bits + 64
    with mp.workprec(bits):
        def finite(s):
            return mp.mpf(vals.value(s)) / (
                mp.power(data.conductor, mp.mpf(s) / 2)
                * gamma_completed(s, data, bits=bits))

        top = finite(w)
        return [finite(s) / top for s in [w - j for j in range(data.m)]
                + [data.m + 1]]


def hodge01_dataset():
    """Weight 3 with hodge (0, 1): one Gamma_C(s - 1) factor, degree 2."""
    from periodpoly import LFunctionData, SpecialValues

    with mp.workprec(208):
        tiny = mp.mpf(2) ** (-192)
        data = LFunctionData(weight=3, degree=2, conductor=7,
                             hodge=(0, 1), root_number=1,
                             coefficients=(mp.mpf(1),), label="t")
        vals = SpecialValues(weight=3, values={
            1: (mp.mpf(3), tiny), 2: (mp.mpf("1.7"), tiny),
            3: (mp.mpf(3), tiny)}, bits=192, target=float(tiny),
            label="t")
    return data, vals


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

    @pytest.mark.parametrize("name", ["sym3", "sym5"])
    def test_p_errors_cover_their_rounding(self, request, name):
        # the stored Lambda carry more than vals.bits bits, so rounding them
        # and the products moves p; recomputed at 4x the bits, that move
        # lies inside the part of each error beyond b err(Lambda)
        data = request.getfixturevalue(name + "_data")
        vals = request.getfixturevalue(name + "_vals")
        p = build_p_poly(data, vals)
        m, w = data.m, data.weight
        gaps = []
        with mp.workprec(4 * vals.bits):
            for j, (v, e) in enumerate(p.coeffs):
                b = binomial_weight(m, data.hodge, abs(m - j))
                gap = abs(v - b * vals.value(w - j))
                assert gap <= e - b * vals.error(w - j), j
                gaps.append(gap)
        assert max(gaps) > 0

    def test_p_needs_values_of_the_data_weight(self, sym3_vals):
        from periodpoly import LFunctionData

        data = LFunctionData(weight=5, degree=2, conductor=3,
                             hodge=(0, 0, 1), root_number=1,
                             coefficients=(1,), label="w5")
        with pytest.raises(InputError, match="weight 3 for data of weight 5"):
            build_p_poly(data, sym3_vals)

    def test_P_coefficients(self, sym3_data, sym3_vals):
        P = build_P_poly(build_p_poly(sym3_data, sym3_vals))
        assert P.degree == 1
        assert near(P.values()[0], "24.473226847609759135198", "1e-20")
        assert near(P.values()[1], "44.919088391528016466489", "1e-20")

    def test_fold_identity(self, sym3_data, sym3_vals):
        # p(z) = eps z^m (P(z) + eps P(1/z)) away from z = 0
        p = build_p_poly(sym3_data, sym3_vals)
        P = build_P_poly(p)
        eps = sym3_data.root_number
        m = sym3_data.m
        with mp.workprec(192):
            for z in (mp.mpf(2), mp.mpf("0.4"), mp.expj(mp.mpf("0.9")),
                      mp.mpc(-1, 1) / 3):
                lhs = mp.polyval(p.values()[::-1], z)
                rhs = eps * z ** m * (mp.polyval(P.values()[::-1], z) + eps
                                      * mp.polyval(P.values()[::-1], 1 / z))
                assert abs(lhs - rhs) < mp.mpf("1e-45") * abs(lhs)

    def test_ratios(self, sym3_data, sym3_vals):
        r = q_route(sym3_data, sym3_vals)[2]
        # r_0 = L(w)/L(w) is exactly 1
        assert r.ratios[0][0] == 1
        assert near(r.central[0], "1.00697708686343655932", "1e-18")

    def test_Q_coefficients(self, sym3_data, sym3_vals):
        Q = q_route(sym3_data, sym3_vals)[0]
        assert Q.degree == 1
        assert near(Q.values()[0], "0.544829107712380524", "1e-15")
        assert Q.values()[1] == 1  # P_m/Lambda(w) exactly

    def test_q_decomposition_residual(self, sym3_data, sym3_vals):
        q, t, r = q_route(sym3_data, sym3_vals)
        res = q_decomposition_residual(r, q, t)
        assert res < mp.mpf("1e-50")

    def test_remainder_bound(self, sym3_data, sym3_vals):
        # m = 1: Q - z T(1/z) = Q_0 - c_1 + (Q_1 - 1) z; the bound is the
        # exact sum of the coefficient gaps and errors, rounded up
        q, t, _ = q_route(sym3_data, sym3_vals)
        bound = s_tail_parts(q, t)
        frac = lambda x: Fraction(*to_rational(x._mpf_))
        exact = sum(abs(frac(qv) - frac(tv)) + frac(qe) + frac(te)
                    for (qv, qe), (tv, te) in zip(q.coeffs, t.coeffs[::-1]))
        assert exact <= frac(bound) <= exact * (1 + Fraction(1, 2 ** 190))
        assert float(bound) == pytest.approx(0.53727914444, rel=1e-9)
        with pytest.raises(InputError):
            s_tail_parts(q, partial_sum_T(2, 4, 1331, bits=q.bits))


class TestGammaRoute:
    """P = Lambda(w) Q needs no Gamma; the Gamma route, which strips
    N^{s/2} L_inf(s) from each Lambda(s), is kept here as the reference."""

    @pytest.mark.parametrize("fixture", ["sym3", "sym5", "sym7", "hodge01"])
    def test_ratios_and_Q_within_their_bounds(self, fixture, request):
        if fixture == "hodge01":
            data, vals = hodge01_dataset()
        else:
            data = request.getfixturevalue(fixture + "_data")
            vals = request.getfixturevalue(fixture + "_vals")
        q, t, r = q_route(data, vals)
        ref = gamma_route(data, vals)
        m = data.m
        with mp.workprec(vals.bits + 64):
            c = partial_sum_T(m, data.degree, data.conductor,
                              bits=vals.bits + 64).values()
            q_ref = [c[m] * ref[m] / 2] + [c[j] * ref[j]
                                           for j in range(m - 1, -1, -1)]
            for (v, e), want in zip(r.ratios + (r.central,), ref):
                assert abs(v - want) <= e
            for (v, e), want in zip(q.coeffs, q_ref):
                assert abs(v - want) <= e
        assert q.values()[m] == 1 and r.ratios[0][0] == 1

    def test_ratios_need_matching_degrees(self, sym3_data, sym3_vals):
        q = q_route(sym3_data, sym3_vals)[0]
        with pytest.raises(InputError):
            l_value_ratios(q, partial_sum_T(2, 4, 1331, bits=q.bits))

    def test_Q_needs_values_of_the_weight(self, sym3_data, sym3_vals,
                                          sym5_vals):
        big_p = build_P_poly(build_p_poly(sym3_data, sym3_vals))
        with pytest.raises(InputError, match="weight 5 for P of degree 1"):
            build_Q_poly(big_p, sym5_vals)


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
        r = q_route(data, vals)[2]
        assert r.ratios[0][0] == 1
        bad = SpecialValues(weight=3, values={
            1: (mp.mpf(0), tiny), 2: (mp.mpf(0), tiny),
            3: (mp.mpf(0), tiny)}, bits=192, target=float(tiny), label="t")
        big_p = build_P_poly(build_p_poly(data, bad))
        with pytest.raises(VerificationError, match="not certified nonzero"):
            build_Q_poly(big_p, bad)


class TestApproximantSeries:
    """The limit series F_{d,N}(z) = sum_j c_j z^j at d = 4, N = 1331."""

    def test_partial_sum_matches_series_terms(self):
        T = partial_sum_T(3, 4, 1331, bits=192)
        assert T.values()[0] == 1
        with mp.workprec(192):
            y = (2 * mp.pi) ** 2 / mp.sqrt(1331)
            for j in (1, 2, 3):
                want = y ** j / mp.factorial(j) ** 2
                assert abs(T.values()[j] - want) < mp.mpf("1e-50") * want


class TestRealPolynomial:
    def test_degenerate_marking(self):
        p = RealPolynomial(((1, 0), (1e-30, 1e-20)), bits=64)
        assert p.degenerate

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            RealPolynomial(())
