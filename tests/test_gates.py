"""Gate thresholds A_m, the Hodge-exponent inequality, and the verdicts.

A_2 has a one-term closed form, 2 pi (zeta(3/2)/zeta(5/2))^2, recomputed
here directly from mpmath as the oracle for the frozen digits.
"""

import pytest
from mpmath import mp

from periodpoly import (
    InputError,
    LFunctionData,
    compute_A_m,
    coefficient_inequalities,
    hodge_condition,
    l_value_ratios,
    rouche_transfer,
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


class TestGateVerdicts:
    def test_sym3_m1(self, sym3_data, sym3_vals):
        g = theorem_gate(sym3_data, sym3_vals, sym_context=(2, 3, 11))
        assert g.case == "M1"
        assert g.satisfied
        assert g.a_m is None
        assert g.margins_11 == ()
        v, e = g.margin_22
        assert abs(v - mp.mpf("10.2229307719591287")) < 1e-13
        assert float(e) < 1e-20

    def test_sym5_none_with_margins(self, sym5_data, sym5_vals):
        g = theorem_gate(sym5_data, sym5_vals, sym_context=(2, 5, 11))
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
        margins, central = coefficient_inequalities(sym5_data, sym5_vals)
        assert len(margins) == sym5_data.m - 1
        assert central is not None


class TestRoucheTransfer:
    def test_sym5_consistency(self, sym5_data, sym5_vals):
        rt = rouche_transfer(sym5_data, l_value_ratios(sym5_data, sym5_vals))
        assert rt.f_disc_zeros >= 0
        if rt.certified:
            assert rt.min_t > rt.remainder_bound
            assert rt.q_disc_zeros == sym5_data.m - rt.t_disc_zeros
        else:
            assert rt.q_disc_zeros is None

    def test_rejects_m1(self, sym3_data, sym3_vals):
        with pytest.raises(InputError):
            rouche_transfer(sym3_data, l_value_ratios(sym3_data, sym3_vals))
