import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from periodpoly import (InputError, LFunctionData, PoleError, Precision,
                        SpecialValues, dirichlet_l, gamma_completed,
                        special_values, verify_hypothesis, zeta_ratio_bound)
from periodpoly.lfunc import (_OFFSETS, _AfeEngine, _Rung, _min_offset,
                              log_abs_gamma_bound)
from periodpoly.numutil import divisor_count_at


def toy_data(**kw):
    args = dict(weight=3, degree=2, conductor=7, hodge=(0, 1),
                root_number=1,
                coefficients=(mp.mpf(1), mp.mpf("0.5"), mp.mpf("-0.25")),
                label="toy")
    args.update(kw)
    return LFunctionData(**args)


class TestDataValidation:
    def test_accepts_valid(self):
        data = toy_data()
        assert data.m == 1
        assert data.coefficients[1] == mp.mpf("0.5")

    def test_rejects_even_weight(self):
        with pytest.raises(InputError):
            toy_data(weight=4)

    def test_rejects_weight_one(self):
        with pytest.raises(InputError):
            toy_data(weight=1, hodge=(1,))

    def test_rejects_degree_mismatch(self):
        with pytest.raises(InputError):
            toy_data(degree=4)

    def test_rejects_zero_hodge(self):
        with pytest.raises(InputError):
            toy_data(hodge=(0, 0), degree=0)

    def test_rejects_bad_root_number(self):
        with pytest.raises(InputError):
            toy_data(root_number=2)

    def test_rejects_lambda1(self):
        with pytest.raises(InputError):
            toy_data(coefficients=(mp.mpf(2), mp.mpf(1)))

    def test_rejects_bad_conductor(self):
        with pytest.raises(InputError):
            toy_data(conductor=0)


class TestGammaCompleted:
    def test_weight3_degree4_value(self, sym3_data):
        # L_inf(3) = Gamma_C(3) Gamma_C(2) = 8 (2 pi)^{-5}
        with mp.workprec(192):
            got = gamma_completed(3, sym3_data, bits=192)
            assert abs(got - mp.mpf("8.16940910763346368157062405663e-4")) \
                < mp.mpf("1e-30")

    def test_weight5_degree6_value(self, sym5_data):
        with mp.workprec(192):
            got = gamma_completed(5, sym5_data, bits=192)
            assert abs(got - mp.mpf("6.08588938422561402714377188366e-7")) \
                < mp.mpf("1e-33")

    def test_pole_raises(self, sym3_data):
        # Gamma_C(s - 1) has a pole at s = 1
        with pytest.raises(PoleError):
            gamma_completed(1, sym3_data, bits=96)
        with pytest.raises(PoleError):
            gamma_completed(0, sym3_data, bits=96)


class TestDirichletL:
    def test_domain_boundary(self, sym3_data):
        with pytest.raises(InputError):
            dirichlet_l(2.5, sym3_data, Precision(96, 1e-10))

    def test_converges_with_certified_tail(self, sym3_data):
        # the degree-4 divisor majorant at X = 1e4, t = 3/2 is coarse
        # (tens, absolute), so ask for a target it can certify
        val, tail = dirichlet_l(3, sym3_data, Precision(96, 100.0))
        with mp.workprec(96):
            assert mp.im(val) == 0 or abs(mp.im(val)) < mp.mpf("1e-20")
            assert 0 < tail < 100
            assert abs(val) < 50

    def test_insufficient_coefficients_names_requirement(self, sym3_data):
        from periodpoly import InsufficientCoefficients
        with pytest.raises(InsufficientCoefficients):
            dirichlet_l(3, sym3_data, Precision(96, 1e-10))


class TestZetaRatioBound:
    def test_frozen_values(self):
        with mp.workprec(96):
            assert abs(zeta_ratio_bound(0.5, 1.5, 2)
                       - mp.mpf("3.7922595225693866573605387799")) < 1e-20
            assert abs(zeta_ratio_bound(0.5, 1.5, 6)
                       - mp.mpf("54.5373650848309292510420948753")) < 1e-18

    @given(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_at_least_one_when_a_below_b(self, a, b, d):
        if a >= b:
            a, b = b, a + 0.01
        with mp.workprec(64):
            assert zeta_ratio_bound(a, b, d) >= 1

    def test_degree_multiplicativity(self):
        with mp.workprec(96):
            b2 = zeta_ratio_bound(0.5, 1.5, 2)
            b6 = zeta_ratio_bound(0.5, 1.5, 6)
            assert abs(b6 - b2 ** 3) < mp.mpf("1e-24")


class TestSpecialValues:
    def test_functional_equation_exact(self, sym3_data, sym3_vals):
        # two-sided assembly makes Lambda(s) = eps Lambda(w+1-s) exact
        with mp.workprec(256):
            for s in (1, 2, 3):
                lhs = sym3_vals.value(s)
                rhs = sym3_data.root_number * sym3_vals.value(4 - s)
                assert lhs == rhs

    def test_error_bounds_met_target(self, sym3_vals):
        with mp.workprec(192):
            for s in (1, 2, 3):
                assert sym3_vals.error(s) < mp.mpf("1e-25")

    def test_central_nonnegative(self, sym3_vals):
        with mp.workprec(192):
            assert sym3_vals.value(2) >= 0  # Lambda(m + 1), m = 1


def kernel_data(hodge, conductor=11):
    m = len(hodge) - 1
    return LFunctionData(weight=2 * m + 1, degree=2 * sum(hodge),
                         conductor=conductor, hodge=hodge, root_number=1,
                         coefficients=(1,), label="kernel")


def kernel_rung(engine, sigma, h, c=None, log_thresh=None):
    """Nodes of one line at step h; by default the line two above the
    least offset, built until the dropped nodes weigh 2^-(bits+16) of the
    line's kernel-mass bound."""
    if c is None:
        c = _min_offset(sigma, engine.data.m) + 2
    if log_thresh is None:
        log_thresh = (engine._log_mass(sigma, c)
                      - (engine.bits + 16) * math.log(2))
    with mp.workprec(engine.workbits):
        rung = _Rung(c, mp.mpf(h))
        engine._build_nodes(sigma, rung, log_thresh)
    return rung


def kernel_integral(data, sigma, c, ell, bits):
    """(1/2 pi) int g(t) e^{i t ell} dt by mp.quad, for reference."""
    with mp.workprec(bits):
        def f(t):
            u = mp.mpc(c, t)
            return mp.re(gamma_completed(sigma + u, data, bits) / u
                         * mp.expj(t * ell))
        return mp.quad(f, [0, 5, 20, mp.inf]) / mp.pi


class TestAfeKernel:
    @pytest.mark.parametrize("bits", [64, 192])
    @pytest.mark.parametrize("hodge", [(1, 1), (1, 0, 1), (0, 1, 1),
                                       (1, 2, 3, 4)])
    def test_g_value_matches_gamma_completed(self, hodge, bits):
        data = kernel_data(hodge)
        engine = _AfeEngine(data, Precision(bits, 1e-3))
        for sigma in (1, data.weight):
            c = mp.mpf(_min_offset(sigma, data.m)) + 2
            for t in ("0", "0.375", "3.5", "17.25", "60"):
                with mp.workprec(engine.workbits):
                    got = engine._g_value(sigma, c, mp.mpf(t))
                with mp.workprec(bits + 64):
                    u = mp.mpc(c, mp.mpf(t))
                    want = gamma_completed(sigma + u, data, bits + 64) / u
                    assert abs(got - want) <= abs(want) * mp.mpf(2) ** (8 - bits)

    def test_stirling_bound_covers_gamma(self):
        with mp.workprec(96):
            for x in (0.03, 0.4, 1, 1.75, 3.5, 12, 60.25, 400, 1500):
                for t in (0, 0.2, 1, 4.5, 30, 150, 900):
                    true = mp.re(mp.loggamma(mp.mpc(x, t)))
                    bound = log_abs_gamma_bound(x, t)
                    assert true <= bound
                    assert bound == log_abs_gamma_bound(x, -t)
                    # Binet's 1/(12 x) is the only slack at large x
                    if x >= 12:
                        assert bound - true <= 1 / (12 * x) + 1e-8

    @pytest.mark.parametrize("hodge", [(1, 1), (1, 0, 1), (1, 2, 3, 4)])
    def test_kernel_mass_bound_covers_quad(self, hodge):
        data = kernel_data(hodge)
        engine = _AfeEngine(data, Precision(64, 1e-3))
        for sigma in (1, data.weight):
            cmin = _min_offset(sigma, data.m)
            for c in (cmin, cmin + 5, cmin + 24):
                with mp.workprec(80):
                    def abs_g(t, c=c):
                        u = mp.mpc(c, t)
                        return abs(gamma_completed(sigma + u, data, 80) / u)
                    true = mp.quad(abs_g, [0, 2, 10, 40, mp.inf]) / mp.pi
                    bound = engine._log_mass(sigma, c)
                    assert mp.log(true) <= bound
                    # a sizing bound, not a wild one
                    assert bound <= mp.log(true) + 2

    @pytest.mark.parametrize("hodge", [(1, 1), (1, 0, 1), (1, 2, 3, 4)])
    def test_a_priori_step_meets_alias_bound(self, hodge):
        data = kernel_data(hodge)
        bits = 64
        engine = _AfeEngine(data, Precision(bits, 1e-3))
        fine = _AfeEngine(data, Precision(bits + 64, 1e-3))
        worst = 0
        for sigma in (1, data.weight):
            cmin = _min_offset(sigma, data.m)
            for c in (cmin, cmin + 2, cmin + 9):
                for ell in (1.2, 0, -0.8, -3.5):
                    # h sized for an alias bound of 1e-6 of the kernel mass
                    log_scale = -engine._log_mass(sigma, c) + 6 * math.log(10)
                    h, a, log_e = engine._pick_step(sigma, c, ell, ell,
                                                    log_scale)
                    assert 0 < a < min(c, sigma + c - engine._top)
                    with mp.workprec(bits + 64):
                        alias = 2 * mp.exp(log_e) / mp.expm1(2 * mp.pi * a / h)
                        assert alias <= mp.exp(-log_scale) * (1 + 1e-9)
                        thresh = float(mp.log(alias * 1e-4 * mp.pi / h))
                    rung = kernel_rung(engine, sigma, h, c, thresh)
                    ref = kernel_rung(fine, sigma, h / 4, c,
                                      thresh - 25 * math.log(10))
                    with mp.workprec(bits + 64):
                        got = rung.h / mp.pi * engine._node_sum(
                            rung, mp.mpf(ell), len(rung.g))
                        want = ref.h / mp.pi * fine._node_sum(
                            ref, mp.mpf(ell), len(ref.g))
                        assert abs(got - want) <= alias
                        worst = max(worst, abs(got - want) / alias)
        print("worst true error / alias bound %.3g" % worst)
        # the bound is not vacuous: some case comes within 100x of it
        assert worst > 1e-2

    def test_reference_sum_matches_quad(self):
        # the 4x-finer trapezoid used as reference above is the integral
        data = kernel_data((1, 1))
        fine = _AfeEngine(data, Precision(128, 1e-3))
        sigma, ell = 1, -0.8
        c = _min_offset(sigma, data.m) + 2
        rung = kernel_rung(fine, sigma, 0.1, c)
        with mp.workprec(128):
            got = rung.h / mp.pi * fine._node_sum(rung, mp.mpf(ell), len(rung.g))
            want = kernel_integral(data, sigma, c, ell, 128)
            assert abs(got - want) <= abs(want) * mp.mpf("1e-25")

    def test_each_used_line_built_once(self, sym3_data):
        engine = _AfeEngine(sym3_data, Precision(64, 1e-3))
        nodes = []
        built = []
        g_value, build = engine._g_value, engine._build_nodes

        def counted(sigma, c, t):
            nodes.append((sigma, c, t))
            return g_value(sigma, c, t)

        def recorded(sigma, rung, log_thresh):
            build(sigma, rung, log_thresh)
            built.append((sigma, rung))

        engine._g_value, engine._build_nodes = counted, recorded
        for sigma in (1, 2, 3):
            engine.one_sided(sigma)
        assert len(nodes) == sum(len(r.g) for _, r in built)
        lines = [(sigma, r.c) for sigma, r in built]
        assert len(set(lines)) == len(lines)
        want = sorted((sigma, r.c, k * r.h) for sigma, r in built
                      for k in range(len(r.g)))
        assert sorted(nodes) == want
        # the three sigma use fewer lines than the ladder holds
        assert len(lines) < 3 * len(_OFFSETS)

    @pytest.mark.parametrize("bits", [64, 192])
    def test_fixed_point_sum_within_bound(self, bits):
        engine = _AfeEngine(kernel_data((1, 1), conductor=1331),
                            Precision(bits, 1e-3))
        rung = kernel_rung(engine, 1, "0.125")
        with mp.workprec(engine.workbits):
            mass = mp.fsum(abs(g) for g in rung.g)
        assert rung.fix_err < mass * mp.mpf(2) ** (-(bits + 16))
        smallest = mass
        for ell in ("3.6", "0.7", "0", "-1.7", "-4.25"):
            for count in (len(rung.g), len(rung.g) // 3):
                # enough bits that the integer result converts exactly
                with mp.workprec(engine.fixbits + 96):
                    got = engine._node_sum(rung, mp.mpf(ell), count)
                    z = mp.expj(rung.h * mp.mpf(ell))
                    acc = rung.g[count - 1]
                    for k in range(count - 2, 0, -1):
                        acc = acc * z + rung.g[k]
                    ref = mp.re(acc * z + rung.g[0] / 2)
                    assert abs(got - ref) <= rung.fix_err
                    smallest = min(smallest, abs(ref))
        # the sums include one that cancels to far below the node mass
        assert smallest < mass * mp.mpf("1e-12")


class TestVerifyHypothesis:
    def _vals(self, data, triple, bits=160):
        with mp.workprec(bits + 16):
            tiny = mp.mpf("1e-30")
            values = {s: (mp.mpf(v), tiny)
                      for s, v in zip((1, 2, 3), triple)}
        return SpecialValues(weight=data.weight, values=values, bits=bits,
                             target=1e-30, label=data.label)

    def test_clean_dataset_empty(self, sym3_data, sym3_vals):
        assert verify_hypothesis(sym3_data, sym3_vals) == []

    def test_flags_coefficient_bound(self):
        w = 3
        bad = 10 * divisor_count_at(2, 2) * mp.mpf(2) ** mp.mpf(w / 2.0)
        data = toy_data(coefficients=(mp.mpf(1), bad))
        vals = self._vals(data, (1, 0.5, 1))
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("grc") for v in out)

    def test_flags_symmetry_break(self):
        data = toy_data()
        vals = self._vals(data, (1, 0.5, 2))   # Lambda(1) != Lambda(3)
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("functional-equation") for v in out)

    def test_flags_negative_central(self):
        data = toy_data()
        vals = self._vals(data, (-1, -0.5, -1))
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("central-sign") for v in out)

    def test_flags_monotonicity_break(self):
        # weight 5 so the chain Lambda(3) <= Lambda(4) <= Lambda(5) is
        # long enough to break in the middle
        data = LFunctionData(weight=5, degree=2, conductor=3, hodge=(0, 0, 1),
                             root_number=1,
                             coefficients=(mp.mpf(1),), label="mono")
        with mp.workprec(176):
            tiny = mp.mpf("1e-30")
            values = {1: (mp.mpf(1), tiny), 2: (mp.mpf(2), tiny),
                      3: (mp.mpf(3), tiny), 4: (mp.mpf(2), tiny),
                      5: (mp.mpf(1), tiny)}
        vals = SpecialValues(weight=5, values=values, bits=160,
                             target=1e-30, label="mono")
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("monotonicity") for v in out)

    def test_flags_strengthened_chain_for_odd_sign(self):
        data = LFunctionData(weight=5, degree=2, conductor=3, hodge=(0, 0, 1),
                             root_number=-1,
                             coefficients=(mp.mpf(1),), label="st")
        with mp.workprec(176):
            tiny = mp.mpf("1e-40")
            values = {1: (mp.mpf(-9), tiny), 2: (mp.mpf(-8), tiny),
                      3: (mp.mpf(0), tiny), 4: (mp.mpf(8), tiny),
                      5: (mp.mpf(9), tiny)}
        # Lambda(4)/1 = 8 but Lambda(5)/2 = 4.5 < 8: ratio chain broken
        vals = SpecialValues(weight=5, values=values, bits=160,
                             target=1e-40, label="st")
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("strengthened-chain") for v in out)
