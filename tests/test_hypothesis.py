"""Property-based tests for the structural invariants.

These complement the anchored tests: instead of frozen values they check
identities that must hold for every admissible input -- linearity and the
defining Hilbert-series identity of the transform, exact deflation
arithmetic, palindromy of the special-value polynomial, root recovery,
serialization round-trips, and the integer form of the Hodge condition.
"""

import math
from fractions import Fraction
from math import comb

import mpmath as mp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from periodpoly import (
    LFunctionData,
    RealPolynomial,
    SpecialValues,
    build_P_poly,
    build_p_poly,
    check_zeta_properties,
    deflate_at_one,
    hodge_condition,
    maclaurin_coefficients,
    mpf_from_obj,
    mpf_to_obj,
    poly_roots,
    rv_transform,
    star_discrepancy,
)
from periodpoly.zeros import _error_bounds, _horner, _real_horner

HEAVY = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
LIGHT = settings(max_examples=100, deadline=None)


@st.composite
def int_coeff_lists(draw, max_deg=8):
    """Ascending integer coefficients, true leading term, U(1) != 0."""
    deg = draw(st.integers(0, max_deg))
    coeffs = [draw(st.integers(-9, 9)) for _ in range(deg + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    assume(sum(coeffs) != 0)
    return coeffs


def real_poly(values, bits=192):
    with mp.workprec(bits):
        coeffs = tuple((mp.mpf(v), mp.mpf(0)) for v in values)
    return RealPolynomial(coeffs, bits=bits)


def exact_discrepancy(angles):
    """D* of exact angles by the order-statistics formula in doubles: the
    reference the interval form must reproduce."""
    n = len(angles)
    us = sorted((float(a) / (2.0 * math.pi)) % 1.0 for a in angles)
    return max(max(i / n - u, u - (i - 1) / n)
               for i, u in enumerate(us, start=1))


def conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


class TestTransformProperties:
    @LIGHT
    @given(int_coeff_lists(), int_coeff_lists(), st.integers(-5, 5),
           st.integers(-5, 5))
    def test_linearity_over_exact_input(self, u, v, a, b):
        n = max(len(u), len(v))
        u = u + [0] * (n - len(u))
        v = v + [0] * (n - len(v))
        w = [a * x + b * y for x, y in zip(u, v)]
        assume(sum(w) != 0)
        zu = rv_transform(real_poly(u))
        zv = rv_transform(real_poly(v))
        combined = tuple(a * x + b * y for x, y in zip(zu.exact, zv.exact))
        assert rv_transform(real_poly(w)).exact == combined

    @LIGHT
    @given(int_coeff_lists(), st.integers(0, 3))
    def test_z_at_negative_integers_is_the_hilbert_series(self, u, pad):
        # Z(-l) must reproduce h_l = sum_j U_j C(e + l - j, e), the l-th
        # Maclaurin coefficient of U(z)/(1-z)^{e+1}, exactly.
        # a transform at e = deg U + pad is that of U with pad zeros appended
        e = len(u) - 1 + pad
        z = rv_transform(real_poly(u + [0] * pad))
        for ell in range(e + 5):
            h = sum(u[j] * comb(e + ell - j, e) for j in range(len(u)))
            z_val = sum(c * Fraction(-ell) ** k for k, c in enumerate(z.exact))
            assert z_val == h

    @HEAVY
    @given(int_coeff_lists(max_deg=6), st.integers(1, 12))
    def test_maclaurin_matches_the_exact_series(self, u, count):
        e = len(u) - 1
        got = maclaurin_coefficients(real_poly(u), e, count)
        with mp.workprec(192):
            for ell, value in enumerate(got):
                expected = sum(u[j] * comb(e + ell - j, e) for j in range(len(u)))
                assert mp.almosteq(value, expected, abs_eps=0, rel_eps=mp.mpf("1e-40"))

    @HEAVY
    @given(
        st.lists(st.floats(0.08, 3.06), min_size=1, max_size=3, unique=True),
        st.integers(0, 2),
    )
    def test_circle_rooted_products_pass_the_line_checks(self, angles, k_minus_one):
        angles = sorted(angles)
        assume(all(b - a > 0.15 for a, b in zip(angles, angles[1:])))
        with mp.workprec(192):
            coeffs = [mp.mpf(1)]
            for theta in angles:
                coeffs = conv(coeffs, [mp.mpf(1), -2 * mp.cos(mp.mpf(theta)),
                                       mp.mpf(1)][::-1])
            for _ in range(k_minus_one):
                coeffs = conv(coeffs, [mp.mpf(1), mp.mpf(1)])
        z = rv_transform(real_poly(coeffs))
        chk = check_zeta_properties(z)
        assert chk.ok


class TestDeflationProperties:
    @LIGHT
    @given(int_coeff_lists(max_deg=6))
    def test_deflation_at_one_inverts_multiplication(self, q):
        p = conv(q, [1, -1])  # (1 - z) * q in ascending order
        quotient = deflate_at_one(real_poly(p), -1)
        assert quotient.values() == [mp.mpf(v) for v in q]


class TestRootRecovery:
    @HEAVY
    @given(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3, unique=True))
    def test_planted_conjugate_pairs_are_recovered(self, angles):
        angles = sorted(angles)
        assume(all(b - a > 0.2 for a, b in zip(angles, angles[1:])))
        with mp.workprec(192):
            coeffs = [mp.mpf(1)]
            for theta in angles:
                coeffs = conv(coeffs, [mp.mpf(1), -2 * mp.cos(mp.mpf(theta)),
                                       mp.mpf(1)][::-1])
            roots = poly_roots(real_poly(coeffs))
            assert len(roots) == 2 * len(angles)
            planted = [mp.expj(mp.mpf(t)) for t in angles]
            planted += [mp.conj(z) for z in planted]
            for root, radius in roots:
                assert abs(abs(root) - 1) < 1e-12
                assert min(abs(root - z) for z in planted) < max(radius, mp.mpf("1e-30")) + mp.mpf("1e-12")


class TestPolishKernel:
    @LIGHT
    @given(st.integers(0, 40), st.randoms(use_true_random=False),
           st.floats(0, 2), st.floats(0, 2 * math.pi), st.booleans())
    def test_real_division_agrees_with_horner(self, deg, rnd, r, theta, real):
        # random 240-bit coefficients in (-1, 1) and a point with |u| <= 2
        # (on the real axis when real): both kernels evaluate the same q(u)
        # and q'(u), and on every output they stay within twice _horner's
        # own rounding bound of each other
        f = 240
        cs = [rnd.getrandbits(f + 1) - (1 << f) for _ in range(deg + 1)]
        ur, ui = (int(x * 2 ** 52) << f - 52 for x in
                  (r * math.cos(theta), 0.0 if real else r * math.sin(theta)))
        t = math.isqrt(ur * ur + ui * ui) + 1
        _, _, ra, rb = _error_bounds([0] * len(cs), t, f)
        want = _horner(cs, ur, ui, f)
        got = _real_horner(cs, ur, ui, f)
        for a, b, bound in zip(want, got, (ra, ra, rb, rb)):
            assert abs(a - b) <= 2 * bound


class TestSpecialValuePolynomials:
    @st.composite
    @staticmethod
    def synthetic(draw):
        m = draw(st.integers(1, 3))
        eps = draw(st.sampled_from([1, -1]))
        hodge = tuple(draw(st.integers(0, 2)) for _ in range(m + 1))
        assume(sum(hodge) >= 1)
        upper = [draw(st.integers(1, 30)) for _ in range(m + 1)]
        if eps == -1:
            upper[0] = 0  # the central value is forced to vanish
        w = 2 * m + 1
        with mp.workprec(208):
            tiny = mp.mpf(2) ** (-192)
            values = {}
            for i, v in enumerate(upper):
                s = m + 1 + i
                values[s] = (mp.mpf(v), tiny)
                if s != w + 1 - s:
                    values[w + 1 - s] = (eps * mp.mpf(v), tiny)
            data = LFunctionData(
                weight=w, degree=2 * sum(hodge), conductor=7, hodge=hodge,
                root_number=eps, coefficients=(mp.mpf(1),), label="prop",
            )
            vals = SpecialValues(weight=w, values=values, bits=192,
                                 target=float(tiny), label="prop")
        return data, vals

    @HEAVY
    @given(synthetic())
    def test_palindromy_is_exact(self, pair):
        data, vals = pair
        p = build_p_poly(data, vals)
        eps = data.root_number
        n = p.degree
        for j in range(n + 1):
            assert p.coeffs[j][0] == eps * p.coeffs[n - j][0]

    @HEAVY
    @given(synthetic())
    def test_fold_identity(self, pair):
        data, vals = pair
        p = build_p_poly(data, vals)
        P = build_P_poly(p)
        eps = data.root_number
        m = data.m
        with mp.workprec(192):
            for z in (mp.mpf(2), mp.expj(mp.mpf("0.7")), mp.mpc(-1, 1) / 2):
                lhs = mp.polyval(p.values()[::-1], z)
                rhs = eps * z ** m * (mp.polyval(P.values()[::-1], z) + eps
                                      * mp.polyval(P.values()[::-1], 1 / z))
                assert abs(lhs - rhs) < mp.mpf("1e-40") * (1 + abs(lhs))


class TestScalarInvariants:
    @LIGHT
    @given(st.integers(1, 10), st.integers(0, 6), st.integers(0, 5))
    def test_hodge_condition_matches_the_fraction_form(self, m, h0, hm):
        hodge = (h0,) + (1,) * max(0, m - 1) + ((hm,) if m >= 1 else ())
        ok, lhs, rhs = hodge_condition(m, hodge)
        assert lhs == 2 * m ** (hm + h0)
        assert rhs == (m + 1) ** h0
        frac_ok = 2 * Fraction(m) ** hm >= (1 + Fraction(1, m)) ** h0
        assert ok == frac_ok

    @LIGHT
    @given(st.lists(st.floats(0.0, 6.283185), min_size=1, max_size=40))
    def test_star_discrepancy_bounds_and_order_independence(self, angles):
        lo, hi = star_discrepancy([(a, a) for a in angles])
        n = len(angles)
        assert lo == hi == exact_discrepancy(angles)
        assert 1.0 / (2 * n) - 1e-12 <= hi <= 1.0 + 1e-12
        assert star_discrepancy([(a, a) for a in reversed(angles)]) == (lo, hi)

    @LIGHT
    @given(st.lists(st.floats(0.0, 6.283185), min_size=2, max_size=40,
                    unique=True),
           st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20))
    def test_star_discrepancy_brackets_hold_their_points(self, ends, where):
        # disjoint brackets from sorted ends, a point anywhere in each
        ends = sorted(ends)
        brackets = list(zip(ends[::2], ends[1::2]))
        points = [min(b, a + t * (b - a))
                  for (a, b), t in zip(brackets, where)]
        lo, hi = star_discrepancy(brackets)
        assert lo <= exact_discrepancy(points) <= hi


class TestSerializationRoundTrip:
    @LIGHT
    @given(
        st.integers(-(2 ** 200), 2 ** 200),
        st.integers(-400, 400),
        st.integers(53, 300),
    )
    def test_mpf_objects_survive_the_wire_format(self, mantissa, exponent, bits):
        with mp.workprec(bits):
            x = mp.mpf(mantissa) * mp.mpf(2) ** exponent
            obj = mpf_to_obj(x)
        # decode under a narrow ambient context: the round trip must not
        # re-round at 53 bits
        restored = mpf_from_obj(obj)
        assert restored._mpf_ == x._mpf_
