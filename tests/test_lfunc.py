import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from periodpoly import (InputError, LFunctionData, PoleError, Precision,
                        SpecialValues, dirichlet_l, gamma_completed,
                        special_values, verify_hypothesis, zeta_ratio_bound)
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
