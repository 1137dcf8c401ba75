"""Root location, circle verdicts, trig censuses, and disc-zero counts.

The transition thresholds for the degree-4 limit series have an
independent closed form through Bessel zeros (F_{4,N}(z) =
J_0(2 (16 pi^2/N)^{1/4} sqrt(z)) up to the variable change), exercised
in the acceptance suite; here the counts themselves are anchored.
"""

import pytest
from mpmath import mp

from periodpoly import (
    ApproximantSeries,
    CertificationError,
    InputError,
    RealPolynomial,
    VerificationError,
    build_P_poly,
    build_p_poly,
    circle_report,
    count_disc_zeros,
    deflate_unit_pair,
    disc_transition_table,
    poly_roots,
    star_discrepancy,
    trig_sign_changes,
)


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

    def test_rejects_degenerate(self):
        p = RealPolynomial(((1, 0), (1e-40, 1e-30)), bits=128)
        with pytest.raises(InputError):
            poly_roots(p)

    def test_constant_has_no_roots(self):
        assert poly_roots(rp(3)) == []


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


class TestDeflateUnitPair:
    def test_exact_quotient(self):
        # (z^2 - 1)(z^2 + z + 1) = z^4 + z^3 - z - 1
        q = deflate_unit_pair(rp(-1, -1, 0, 1, 1))
        assert [float(c) for c in q.values()] == [1.0, 1.0, 1.0]

    def test_rejects_nonzero_remainder(self):
        with pytest.raises(VerificationError):
            deflate_unit_pair(rp(1, 0, 1))

    def test_rejects_low_degree(self):
        with pytest.raises(InputError):
            deflate_unit_pair(rp(1, 1))


class TestTrigCensus:
    def test_sym3_cosine_census(self, sym3_data, sym3_vals):
        P = build_P_poly(sym3_data, sym3_vals)
        scan = trig_sign_changes(P, sym3_data.root_number)
        assert scan.kind == "cos"
        assert scan.changes == (1,)
        assert scan.failing == ()
        assert scan.certified_on_circle == 2
        assert not scan.boundary_zero

    def test_sine_census_counts_forced_pair(self):
        # P = 2.75 z: S(theta) = 2.75 sin(theta) has no interior change on
        # (0, 2 pi/3); the forced z = +-1 pair still certifies two roots
        P = rp(0, 2.75)
        scan = trig_sign_changes(P, -1)
        assert scan.kind == "sin"
        assert scan.boundary_zero
        assert scan.certified_on_circle == 2 * sum(scan.changes) + 2

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            trig_sign_changes(rp(1, 1), 0)

    @pytest.mark.parametrize("err, changes", [("0.2", 1), ("0.5", 0)])
    def test_error_dominated_samples_do_not_count(self, err, changes):
        # C(theta) = 1/2 + cos(theta) runs from 1 to -1/2 on (pi/3, pi);
        # its change counts only while |C| beats sum err_j = 2 err at the
        # samples on both sides
        P = RealPolynomial((("0.5", err), ("1", err)), bits=96)
        scan = trig_sign_changes(P, 1)
        assert scan.changes == (changes,)
        assert scan.failing == (() if changes else (0,))


class TestDiscCounts:
    def test_unit_disc_counts_degree_4(self):
        for n, want in ((1, 4), (4, 3), (26, 2), (30, 1), (800, 0)):
            got = count_disc_zeros(ApproximantSeries(4, n, bits=64))
            assert got.zeros == want, n

    def test_count_result_fields(self):
        c = count_disc_zeros(ApproximantSeries(4, 10, bits=64))
        assert c.requested_radius == 1.0
        assert 0.99 <= c.radius <= 1.01
        assert c.points >= 1024
        assert c.min_abs > 0

    def test_radius_validation(self):
        F = ApproximantSeries(4, 10, bits=64)
        with pytest.raises(InputError):
            count_disc_zeros(F, radius=0.2)
        with pytest.raises(InputError):
            count_disc_zeros(F, radius=3.0)

    def test_rejects_non_series(self):
        with pytest.raises(InputError):
            count_disc_zeros(object())

    def test_transition_table_d4(self):
        assert disc_transition_table(4, 800) == [
            (1, 4), (2, 3), (5, 2), (27, 1), (746, 0),
        ]

    def test_transition_table_validates(self):
        with pytest.raises(InputError):
            disc_transition_table(4, 0)
