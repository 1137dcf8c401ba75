"""Point counting, local factors, and symmetric-power assembly.

The point-count oracles are a brute-force enumeration of the affine curve
over F_p, written independently of both of the library's paths, and for
larger p a character sum reduced after every step.  The symmetric-cube local factor is checked against the
elementary symmetric functions of {a^3, pa, pb, b^3} worked out by hand
(a + b = a_p, ab = p), and Sym^1 coefficients against the Hecke
recursion.
"""

import numpy as np
import pytest
from mpmath import mp

from periodpoly import (
    CurveSpec,
    InputError,
    ap_count,
    parse_curve_text,
    sym_dirichlet_coeffs,
    sym_hodge,
    sym_lfunction_data,
    sym_local_factor,
)
from periodpoly import sympow
from periodpoly.numutil import (divisor_counts, primes_upto,
                                smallest_prime_factors)
from periodpoly.sympow import (_SHANKS_MESTRE_ABOVE, MAX_COUNT_PRIME,
                               _character_sum_ap, _local_expansion,
                               _shanks_mestre_ap)


def brute_ap(curve, p):
    count = 0
    for x in range(p):
        for y in range(p):
            lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % p
            rhs = (x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
            count += lhs == rhs
    return p - count


def character_sum_ap(curve, p):
    """a_p = -sum_x chi(f(x)) for odd p, reducing mod p after every
    step, as the reference for both of ap_count's paths."""
    b2, b4, b6, _ = curve.b_invariants
    x = np.arange(p, dtype=np.int64)
    f = ((4 * x % p + b2 % p) * x % p + (2 * b4) % p) * x % p
    f = (f + b6) % p
    sq = np.zeros(p, dtype=bool)
    sq[(x * x) % p] = True
    chi = np.where(f == 0, 0, np.where(sq[f], 1, -1))
    return int(-chi.sum())


CURVE_11A1 = CurveSpec(0, -1, 1, -10, -20, 11, "11a1")
CURVE_37A1 = CurveSpec(0, 0, 1, -1, 0, 37, "37a1")
BATCH_LABELS = ("11a1", "14a1", "15a1", "17a1", "19a1", "37a1", "43a1")


class TestPointCounts:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 19])
    def test_11a1_matches_enumeration(self, p):
        assert ap_count(CURVE_11A1, p) == brute_ap(CURVE_11A1, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_37a1_matches_enumeration(self, p):
        assert ap_count(CURVE_37A1, p) == brute_ap(CURVE_37A1, p)

    def test_11a1_known_traces(self):
        # q - 2q^2 - q^3 + 2q^4 + q^5 + 2q^6 - 2q^7 ... (LMFDB 11.a3)
        assert [ap_count(CURVE_11A1, p) for p in (2, 3, 5, 7, 13)] == [
            -2, -1, 1, -2, 4,
        ]

    def test_multiplicative_prime(self):
        # a_p = +1 split / -1 non-split at the conductor prime; 37a1 is
        # non-split (the tangent cone at its node is v^2 = 15 u^2 and 15
        # is a quadratic non-residue mod 37)
        assert ap_count(CURVE_11A1, 11) == 1
        assert ap_count(CURVE_37A1, 37) == -1

    @pytest.mark.parametrize("label", BATCH_LABELS)
    def test_matches_character_sum(self, curve_table, label):
        # both paths at every odd prime up to 2e4; Shanks-Mestre may leave
        # a prime open, but above its crossover almost never does
        curve = curve_table[label]
        left_open = []
        for p in primes_upto(20000)[1:]:
            want = character_sum_ap(curve, p)
            assert ap_count(curve, p) == want
            if p > 3 and curve.conductor % p:
                got = _shanks_mestre_ap(curve, p)
                assert got in (None, want), p
                if got is None and p > _SHANKS_MESTRE_ABOVE:
                    left_open.append(p)
        assert len(left_open) <= 1, left_open

    def test_ambiguous_points_fall_back(self, curve_table):
        # the first points x = 0, 1, 2 on 15a1 at p = 14,401 leave more than
        # one candidate a_p, so the character sum counts
        curve, p = curve_table["15a1"], 14401
        assert p > _SHANKS_MESTRE_ABOVE and curve.conductor % p
        assert _shanks_mestre_ap(curve, p) is None
        assert ap_count(curve, p) == character_sum_ap(curve, p)

    def test_largest_countable_prime(self):
        # the character sum, called directly as ap_count takes
        # Shanks-Mestre here, at the largest prime with int64 room for x^2
        # unreduced and at the largest countable prime
        below = max(p for p in primes_upto(1_200_000) if 6 * p ** 3 < 1 << 63)
        top = primes_upto(MAX_COUNT_PRIME)[-1]
        for curve in (CURVE_11A1, CURVE_37A1):
            for p in (below, top):
                want = character_sum_ap(curve, p)
                assert _character_sum_ap(curve, p) == want
                assert ap_count(curve, p) == want
        with pytest.raises(InputError):
            ap_count(CURVE_11A1, MAX_COUNT_PRIME + 1)

    def test_hasse_bound(self):
        for p in primes_upto(200):
            a = ap_count(CURVE_11A1, p)
            assert a * a <= 4 * p


class TestLocalFactors:
    def test_sym1_is_the_curve_factor(self):
        for p in (2, 3, 5, 7):
            a = ap_count(CURVE_11A1, p)
            assert sym_local_factor(1, p, a, False) == [1, -a, p]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_sym3_elementary_symmetric(self, p):
        # inverse roots a^3, pa, pb, b^3 with a+b = a_p, ab = p
        a = ap_count(CURVE_11A1, p)
        e1 = a ** 3 - 2 * p * a
        e2 = p * a ** 4 - 3 * p ** 2 * a ** 2 + 2 * p ** 3
        got = sym_local_factor(3, p, a, False)
        assert got == [1, -e1, e2, -p ** 3 * e1, p ** 6]

    def test_bad_prime_linear(self):
        # split at 11 (a_p = 1), non-split at 37 (a_p = -1)
        a11 = ap_count(CURVE_11A1, 11)
        assert sym_local_factor(5, 11, a11, True) == [1, -1]
        a37 = ap_count(CURVE_37A1, 37)
        assert sym_local_factor(3, 37, a37, True) == [1, 1]

    def test_rejects_even_power(self):
        with pytest.raises(InputError):
            sym_local_factor(2, 3, ap_count(CURVE_11A1, 3), False)


def hecke_an(curve, x):
    """a_n via the standard recursion, as the Sym^1 oracle."""
    a = [0] * (x + 1)
    a[1] = 1
    for p in primes_upto(x):
        ap = ap_count(curve, p)
        good = curve.conductor % p != 0
        powers = [1, ap]
        while p ** len(powers) <= x:
            nxt = ap * powers[-1] - (p if good else 0) * powers[-2]
            powers.append(nxt)
        q = p
        e = 1
        while q <= x:
            a[q] = powers[e]
            q *= p
            e += 1
    for n in range(2, x + 1):
        if a[n]:
            continue
        for p in primes_upto(n):
            if n % p == 0:
                q = p
                while n % (q * p) == 0:
                    q *= p
                if q < n:
                    a[n] = a[q] * a[n // q]
                break
    return a[1:]


class TestDirichletCoefficients:
    def test_sym1_equals_hecke(self):
        assert sym_dirichlet_coeffs(CURVE_11A1, 1, 60) == hecke_an(CURVE_11A1, 60)
        assert sym_dirichlet_coeffs(CURVE_37A1, 1, 40) == hecke_an(CURVE_37A1, 40)

    def test_leading_one(self):
        assert sym_dirichlet_coeffs(CURVE_11A1, 3, 12)[0] == 1
        assert sym_dirichlet_coeffs(CURVE_11A1, 5, 12)[0] == 1

    def test_multiplicative(self):
        lam = sym_dirichlet_coeffs(CURVE_11A1, 3, 60)
        for a, b in ((2, 3), (3, 5), (4, 9), (5, 12), (7, 8)):
            assert lam[a * b - 1] == lam[a - 1] * lam[b - 1]

    @pytest.mark.parametrize("n", [3, 5])
    def test_grc_bound(self, n):
        lam = sym_dirichlet_coeffs(CURVE_11A1, n, 200)
        dcounts = divisor_counts(200, n + 1)
        for k in range(1, 201):
            assert abs(lam[k - 1]) <= dcounts[k] * k ** (n / 2) * (1 + 1e-12)

    def test_prime_power_recursion_sym3(self):
        # at a good prime the local factor reproduces its own expansion
        lam = sym_dirichlet_coeffs(CURVE_11A1, 3, 64)
        d = sym_local_factor(3, 2, ap_count(CURVE_11A1, 2), False)
        # lam[2^e] satisfies sum_{i} d_i lam_{2^{e-i}} = 0 for e >= 1
        po2 = [lam[2 ** e - 1] for e in range(0, 7)]
        for e in range(1, 7):
            acc = sum(d[i] * po2[e - i] for i in range(min(e, 4) + 1))
            assert acc == 0


def expanded_coeffs(curve, n, x):
    """lambda(1..x) from sym_local_factor and _local_expansion at every
    prime, the reference for reading lambda(p) from a_p above sqrt(x)."""
    local = {p: _local_expansion(
        sym_local_factor(n, p, ap_count(curve, p), curve.conductor % p == 0),
        p, x) for p in primes_upto(x)}
    spf = smallest_prime_factors(x)
    lam = [0, 1] + [0] * (x - 1)
    for v in range(2, x + 1):
        p = int(spf[v])
        q, r = v, 0
        while q % p == 0:
            q //= p
            r += 1
        lam[v] = local[p][r] * lam[q]
    return lam[1:]


class TestPrimesAboveRoot:
    @pytest.mark.parametrize("label", ["11a1", "37a1", "89a1"])
    def test_matches_local_expansions(self, curve_table, label):
        # 89a1: its bad prime 89 lies above sqrt(5000)
        curve = curve_table[label]
        for n in (3, 5, 7, 9):
            assert sym_dirichlet_coeffs(curve, n, 5000) == expanded_coeffs(curve, n, 5000)


class TestHodgeAndData:
    def test_weight_two_all_ones(self):
        assert sym_hodge(3) == (1, 1)
        assert sym_hodge(5) == (1, 1, 1)
        assert sym_hodge(7) == (1, 1, 1, 1)

    def test_dataset_shape(self):
        data = sym_lfunction_data(CURVE_11A1, 3, 300)
        assert data.weight == 3
        assert data.degree == 4
        assert data.conductor == 11 ** 3
        assert data.hodge == (1, 1)
        assert data.root_number == 1
        assert data.label == "11a1-sym3"
        assert len(data.coefficients) == 300
        assert data.coefficients[0] == 1

    def test_rejects_even_or_small_power(self):
        with pytest.raises(InputError):
            sym_lfunction_data(CURVE_11A1, 2, 100)
        with pytest.raises(InputError):
            sym_lfunction_data(CURVE_11A1, 1, 100)


class TestRootNumberDetermination:
    """The exact root number eps_inf * prod_{p | N} (-a_p); no AFE runs."""

    def test_sym3_11a1_positive(self):
        # eps_inf = -1 for Sym^3 and a_11 = +1, whether a_11 is read from
        # lambda_11 (x = 300) or counted (x = 10)
        signs = {sym_lfunction_data(CURVE_11A1, 3, x).root_number
                 for x in (10, 300)}
        assert signs == {1}

    def test_matches_recorded_signs(self, curve_table, eps_table):
        for (label, n), eps in sorted(eps_table.items()):
            data = sym_lfunction_data(curve_table[label], n, 100)
            assert data.root_number == eps, (label, n)

    def test_37a1_sym5_positive(self):
        # eps_inf = +1 for Sym^5 and a_37 = -1
        assert sym_lfunction_data(CURVE_37A1, 5, 100).root_number == 1

    @pytest.mark.parametrize("x", [50, 89])
    def test_each_prime_is_counted_once(self, curve_table, monkeypatch, x):
        # x = 50 stops below the bad prime 89, so a_89 is counted for eps
        counted = []

        def counting(curve, p):
            counted.append(p)
            return ap_count(curve, p)

        monkeypatch.setattr(sympow, "ap_count", counting)
        data = sym_lfunction_data(curve_table["89a1"], 3, x)
        assert data.root_number == -1
        assert sorted(counted) == sorted(set(primes_upto(x)) | {89})

    def test_non_multiplicative_bad_prime_rejected(self):
        # the 11a1 model declared with conductor 13, where a_13 = 4: 13
        # does not divide the discriminant -11^5, so the model is refused
        with pytest.raises(InputError, match="p = 13"):
            curve = CurveSpec(0, -1, 1, -10, -20, 13, "11a1")
            sym_lfunction_data(curve, 3, 100)

    def test_additive_model_rejected(self, curve_table):
        # y^2 = x^3 - x declared with N = 2: rad(disc 64) = 2 matches, but
        # c4 = 48 shares the 2, and the reduction there is additive
        with pytest.raises(InputError, match=r"gcd\(c4, discriminant\)"):
            CurveSpec(0, 0, 0, -1, 0, 2, "x3-x")
        text = ("format=periodpoly-curves-1\n"
                "0 -1 1 -10 -20 11 11a1\n"
                "0 0 0 -1 0 2 x3-x\n")
        with pytest.raises(InputError, match=r"c, line 3: gcd\(c4"):
            parse_curve_text(text, "c")
        # every stored model passes
        assert len(curve_table) == 10

    def test_conductor_missing_a_bad_prime_rejected(self):
        # declared with conductor 1, 11 would count as a good prime and
        # Sym^3 would get root number -1 (the true sign is +1)
        with pytest.raises(InputError, match="factor 161051 prime to it"):
            CurveSpec(0, -1, 1, -10, -20, 1, "11a1")
