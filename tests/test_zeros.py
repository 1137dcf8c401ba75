"""Root location, circle verdicts, trig censuses, and disc-zero counts.

The transition thresholds for the degree-4 limit series have an
independent closed form through Bessel zeros (F_{4,N}(z) =
J_0(2 (16 pi^2/N)^{1/4} sqrt(z)) up to the variable change), exercised
in the acceptance suite; here the counts themselves are anchored.
"""

import itertools
import warnings
from fractions import Fraction

import pytest
from mpmath import mp

from periodpoly import (
    CertificationError,
    InputError,
    RealPolynomial,
    build_P_poly,
    build_p_poly,
    circle_report,
    count_disc_zeros,
    disc_transition_table,
    partial_sum_T,
    poly_roots,
    star_discrepancy,
    trig_sign_changes,
)
from periodpoly.zeros import _exact_sign, _neg_series, circle_values


def rp(*coeffs, bits=192):
    return RealPolynomial(tuple((c, 0) for c in coeffs), bits=bits)


class TestStarDiscrepancy:
    def test_empty(self):
        assert star_discrepancy([]) == 1.0

    def test_single_points(self):
        import math

        assert star_discrepancy([0.0]) == 1.0
        assert star_discrepancy([math.pi]) == 0.5

    def test_antipodal_pair(self):
        import math

        assert star_discrepancy([0.0, math.pi]) == 0.5

    def test_equispaced(self):
        import math

        n = 8
        anchored = [2 * math.pi * k / n for k in range(n)]
        assert star_discrepancy(anchored) == pytest.approx(1 / n)
        centered = [2 * math.pi * (k + 0.5) / n for k in range(n)]
        assert star_discrepancy(centered) == pytest.approx(1 / (2 * n))

    def test_wraps_angles(self):
        import math

        a = star_discrepancy([0.3, 2.0, 5.0])
        b = star_discrepancy([0.3 + 2 * math.pi, 2.0, 5.0 - 2 * math.pi])
        assert a == pytest.approx(b)


class TestPolyRoots:
    def test_integer_roots(self):
        # (z + 1)(z - 2)(z - 3) = z^3 - 4 z^2 + z + 6
        roots = poly_roots(rp(6, 1, -4, 1))
        got = sorted(float(mp.re(z)) for z, _ in roots)
        assert got == pytest.approx([-1.0, 2.0, 3.0], abs=1e-30)
        assert all(r < mp.mpf("1e-30") for _, r in roots)

    def test_complex_pair(self):
        roots = poly_roots(rp(1, 0, 1))
        vals = sorted((float(mp.re(z)), float(mp.im(z))) for z, _ in roots)
        assert vals[0] == pytest.approx((0.0, -1.0), abs=1e-30)
        assert vals[1] == pytest.approx((0.0, 1.0), abs=1e-30)

    def test_clustered_root(self):
        # (z - 1)^3: the cluster radius is first-order, so allow a small
        # constant factor; all three iterates still localize the root
        roots = poly_roots(rp(-1, 3, -3, 1))
        assert len(roots) == 3
        for z, r in roots:
            assert abs(z - 1) < mp.mpf("1e-15")
            assert abs(z - 1) <= 10 * r + mp.mpf("1e-30")

    @pytest.mark.parametrize("coeffs", [
        ((-1, 0), (1, 0.5)),          # 0.5 z - 1 has its root at 2
        ((-1, 0), (0, 0), (1, 0.75)),  # 0.25 z^2 - 1 at +-2
    ])
    def test_radius_covers_the_error_ball(self, coeffs):
        # every root of every corner of the coefficient box lies in a disc
        discs = poly_roots(RealPolynomial(coeffs, bits=64))
        signs = itertools.product(*[(-1, 1) if e else (0,) for _, e in coeffs])
        with mp.workprec(64):
            for sign in signs:
                corner = [v + t * e for (v, e), t in zip(coeffs, sign)]
                for root in mp.polyroots(corner[::-1]):
                    assert any(abs(root - z) <= r for z, r in discs), root

    def test_rejects_degenerate(self):
        p = RealPolynomial(((1, 0), (1e-40, 1e-30)), bits=128)
        with pytest.raises(InputError):
            poly_roots(p)

    def test_constant_has_no_roots(self):
        assert poly_roots(rp(3)) == []

    def test_coefficients_below_double_range(self):
        # 10^-400 (z^2 + 1): every coefficient underflows a double, yet the
        # seeds come from coefficients shifted by a power of two
        with mp.workprec(192):
            tiny = mp.mpf(10) ** -400
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = poly_roots(rp(tiny, 0, tiny))
        assert sorted((complex(z).imag, complex(z).real) for z, _ in roots) \
            == [(-1.0, 0.0), (1.0, 0.0)]
        assert all(r < mp.mpf("1e-50") for _, r in roots)

    def test_coefficients_spanning_more_than_doubles(self):
        # z^2 + 10^400 z + 1: shifted into range, z^2's coefficient still
        # underflows, so a seed is missing; that is refused, not dropped
        with mp.workprec(192):
            huge = mp.mpf(10) ** 400
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CertificationError, match="degree 2"):
                poly_roots(rp(1, huge, 1))


class TestCircleReport:
    def test_on_circle(self):
        rep = circle_report(rp(1, 0, 1))
        assert rep.verdicts == ("on", "on")
        assert rep.all_on
        assert rep.num_off == 0

    def test_off_circle_despite_palindromy(self):
        # (z - 1/2)(z - 2) has reciprocal roots, neither on the circle
        rep = circle_report(rp(1, -2.5, 1))
        assert rep.verdicts == ("off", "off")
        assert rep.discrepancy == 1.0

    def test_mixed(self):
        # (z^2 + 1)(z - 3)
        rep = circle_report(rp(-3, 1, -3, 1))
        assert sorted(rep.verdicts) == ["off", "on", "on"]
        assert rep.num_on == 2

    def test_sym3_roots_on_circle(self, sym3_data, sym3_vals):
        p = build_p_poly(sym3_data, sym3_vals)
        rep = circle_report(p, tolerance=1e-6)
        assert rep.verdicts == ("on", "on")
        assert rep.discrepancy == pytest.approx(0.34170273951485, abs=1e-10)
        angles = rep.on_angles()
        assert angles[0] == pytest.approx(2.1469816323427184, abs=1e-9)
        assert angles[1] == pytest.approx(4.136203674836867, abs=1e-9)


class TestTrigCensus:
    def test_sym3_cosine_census(self, sym3_data, sym3_vals):
        P = build_P_poly(build_p_poly(sym3_data, sym3_vals))
        scan = trig_sign_changes(P, sym3_data.root_number)
        assert scan.kind == "cos"
        assert scan.changes == (1,)
        assert scan.failing == ()
        assert scan.certified_on_circle == 2
        assert not scan.boundary_zero

    def test_sine_census_counts_forced_pair(self):
        # P = 2.75 z: S(theta) = 2.75 sin(theta) has no zero in (0, pi), so
        # no interval is scanned; the forced z = +-1 pair still certifies
        # two roots
        P = rp(0, 2.75)
        scan = trig_sign_changes(P, -1)
        assert scan.changes == ()
        assert scan.kind == "sin"
        assert scan.boundary_zero
        assert scan.certified_on_circle == 2 * sum(scan.changes) + 2

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            trig_sign_changes(rp(1, 1), 0)

    def test_sym5_sine_census(self, sym5_data, sym5_vals):
        # deg P = 2: S(theta) has one zero in (0, pi) besides the forced
        # ones, sought on the one interval (2 pi/5, 4 pi/5)
        P = build_P_poly(build_p_poly(sym5_data, sym5_vals))
        scan = trig_sign_changes(P, sym5_data.root_number)
        assert scan.kind == "sin"
        assert scan.changes == (1,)
        assert scan.failing == ()
        assert scan.certified_on_circle == 4

    @pytest.mark.parametrize("err, changes", [("0.2", 1), ("0.5", 0)])
    def test_error_dominated_samples_do_not_count(self, err, changes):
        # C(theta) = 1/2 + cos(theta) runs from 1 to -1/2 on (pi/3, pi);
        # its change counts only while |C| beats sum err_j = 2 err at the
        # samples on both sides
        P = RealPolynomial((("0.5", err), ("1", err)), bits=96)
        scan = trig_sign_changes(P, 1)
        assert scan.changes == (changes,)
        assert scan.failing == (() if changes else (0,))


class TestCircleValues:
    def test_bound_covers_the_error_ball(self, sym5_data, sym5_vals):
        # every polynomial of the ball, valued at exactly e^{i theta} with
        # 128 more bits, lies within the bound of the fixed-point value
        P = build_P_poly(build_p_poly(sym5_data, sym5_vals))
        T = partial_sum_T(sym5_data.m, sym5_data.degree,
                          sym5_data.conductor, bits=P.bits)
        bare = RealPolynomial(tuple((v, 0) for v in P.values()), bits=P.bits)
        for poly in (P, T, bare):
            with mp.workprec(poly.bits):
                thetas = [2 * mp.pi * (i + mp.mpf("0.37")) / 300
                          for i in range(300)]
            values, bound, exp = circle_values(poly, thetas)
            with mp.workprec(poly.bits + 128):
                corners = [[v + s * e for v, e in poly.coeffs]
                           for s in (-1, 0, 1)]
                for theta, (re, im) in zip(thetas, values):
                    z = mp.expj(theta)
                    got = mp.mpc(mp.ldexp(re, exp), mp.ldexp(im, exp))
                    for c in corners:
                        gap = abs(mp.polyval(c[::-1], z) - got)
                        assert gap <= mp.ldexp(bound, exp)


class TestDiscCounts:
    def test_unit_disc_counts_degree_4(self):
        for n, want in ((1, 4), (4, 3), (26, 2), (30, 1), (800, 0)):
            got = count_disc_zeros(4, n)
            assert got.zeros == want, n

    def test_count_result_fields(self):
        # N = 10 lies between the d = 4 transitions at 5 and 27
        c = count_disc_zeros(4, 10)
        assert c.radius == 1.0
        assert c.zeros == len(c.roots) == 2
        assert c.points >= 1024
        for lo, hi in c.roots:
            assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
            assert 0 < lo < hi < 1

    def test_radius_validation(self):
        with pytest.raises(InputError):
            count_disc_zeros(4, 10, radius=0.2)
        with pytest.raises(InputError):
            count_disc_zeros(4, 10, radius=3.0)

    def test_rejects_bad_series_parameters(self):
        for d, conductor in ((3, 10), (0, 10), (4, 0)):
            with pytest.raises(InputError):
                count_disc_zeros(d, conductor)

    def test_degree_past_doubles_is_refused_quietly(self):
        # from d = 84 at N = 1 the terms of G overflow doubles: the count
        # names the cause, and numpy warns of nothing
        assert count_disc_zeros(82, 1).zeros == 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CertificationError,
                               match="d = 84 is too large for the "
                                     "double-precision grid at conductor 1"):
                count_disc_zeros(84, 1)

    def test_transition_table_d4(self):
        assert disc_transition_table(4, 800) == [
            (1, 4), (2, 3), (5, 2), (27, 1), (746, 0),
        ]

    def test_transition_table_validates(self):
        with pytest.raises(InputError):
            disc_transition_table(4, 0)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_degree_4_matches_bessel_zeros(self, radius):
        # sum_j (-t)^j/(j!)^2 = J_0(2 sqrt(t)), and F_{4,1}(z) is that sum at
        # t = -(2 pi)^2 z: its k-th zero is -j_{0,k}^2/(16 pi^2), which
        # leaves |z| < r at N = ceil(16 r^2 (2 pi)^4/j_{0,k}^4)
        with mp.workprec(128):
            zeros = list(itertools.takewhile(
                lambda j: j < 4 * mp.pi * mp.sqrt(radius),
                (mp.besseljzero(0, k) for k in itertools.count(1))))
            drops = sorted(int(mp.ceil(16 * radius ** 2 * (2 * mp.pi) ** 4
                                       / j ** 4)) for j in zeros)
            count = count_disc_zeros(4, 1, radius)
            assert count.zeros == len(zeros)
            for (lo, hi), j in zip(count.roots, zeros):
                x = j ** 2 / (16 * mp.pi ** 2)
                assert mp.mpf(lo.numerator) / lo.denominator < x
                assert x < mp.mpf(hi.numerator) / hi.denominator
        c = len(zeros)
        assert disc_transition_table(4, 10 ** 4, radius) == \
            [(1, c)] + [(n, c - i) for i, n in enumerate(drops, 1)]

    def test_exact_sign_is_never_wrong(self):
        # for d = 4, G(-u) = J_0(2 sqrt(u)): about its first zero the sign
        # is proved or left at 0, never wrong; too few terms prove nothing
        terms = len(_neg_series(2, 100.0)) - 1
        with mp.workprec(128):
            t1 = mp.besseljzero(0, 1) ** 2 / 4
            for rel in (-1e-9, -1e-15, 0, 1e-15, 1e-9):
                u = float(t1 * (1 + rel))
                want = int(mp.sign(mp.besselj(0, 2 * mp.sqrt(u))))
                got = _exact_sign(2, u, terms)
                assert got == want if abs(rel) >= 1e-9 else got in (0, want)
        assert _exact_sign(2, 50.0, 3) == 0

    def test_degree_8_last_transition(self):
        # the last zero of F_{8,1} in the unit disc, -x with x = 6.8699e-4,
        # leaves it at N = ceil(1/x^2) = 2118835 (mpmath, 50 digits)
        assert disc_transition_table(8, 3 * 10 ** 6)[-1] == (2118835, 0)

    def test_tables_agree_with_counts_at_each_transition(self):
        # each transition N puts a zero within about 1/(2N) of the circle
        # at N - 1 and N, where a count must still decide
        for d in range(2, 13, 2):
            for radius in (0.5, 1.0, 2.0):
                table = disc_transition_table(d, 10 ** 9, radius)
                counts = [c for _, c in table]
                assert all(a > b for a, b in zip(counts, counts[1:]))
                for (_, before), (n, after) in zip(table, table[1:]):
                    assert count_disc_zeros(d, n - 1, radius).zeros == before
                    assert count_disc_zeros(d, n, radius).zeros == after
