import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from periodpoly.numutil import (divisor_count_at, divisor_counts,
                                divisor_tail, fmt_mpf, log_divisor_tail,
                                log_gamma_c_real, primes_upto,
                                smallest_prime_factors)


def convolved_divisor_counts(x, k):
    """d_k(0..x) by k - 1 Dirichlet convolutions with the constant 1, the
    definition, as the reference for the sieve."""
    cur = np.ones(x + 1, dtype=np.int64)
    cur[0] = 0
    for _ in range(k - 1):
        nxt = np.zeros(x + 1, dtype=np.int64)
        for a in range(1, x + 1):
            nxt[a::a] += cur[1 : x // a + 1]
        cur = nxt
    return cur


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(2) == [2]
    assert primes_upto(1) == []


def test_smallest_prime_factors():
    spf = smallest_prime_factors(20)
    assert spf[2] == 2 and spf[15] == 3 and spf[17] == 17 and spf[16] == 2


def test_divisor_counts_small():
    d2 = divisor_counts(12, 2)
    # d_2(n) is the ordinary divisor count
    assert [d2[n] for n in range(1, 13)] == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
    d4 = divisor_counts(8, 4)
    assert d4[1] == 1
    assert d4[2] == 4          # C(3 + 1, 1) ways to write 2 as 4 factors
    assert d4[4] == 10         # C(2 + 3, 3)
    assert d4[6] == 16         # multiplicative: 4 * 4


@pytest.mark.parametrize("k", range(1, 9))
def test_divisor_counts_match_convolution(k):
    for x in (0, 1, 2, 3, 4, 3000):
        assert np.array_equal(divisor_counts(x, k),
                              convolved_divisor_counts(x, k))


@pytest.mark.parametrize("k", [6, 8])
def test_divisor_counts_match_factorization(k):
    x = 10 ** 5
    d = divisor_counts(x, k)
    sample = random.Random(k).sample(range(1, x + 1), 3000)
    sample += [x, 99991, 2 ** 16, 3 ** 10, 2 * 3 * 5 * 7 * 11 * 13, 316 ** 2,
               317 * 313]
    for n in sample:
        assert d[n] == divisor_count_at(n, k)


@given(st.integers(2, 400), st.integers(2, 400), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_divisor_count_multiplicative(a, b, k):
    if math.gcd(a, b) != 1:
        return
    assert divisor_count_at(a * b, k) == \
        divisor_count_at(a, k) * divisor_count_at(b, k)


def test_divisor_count_prime_power():
    # d_k(p^e) = C(e + k - 1, k - 1)
    assert divisor_count_at(2 ** 5, 3) == math.comb(5 + 2, 2)
    assert divisor_count_at(3 ** 4, 6) == math.comb(4 + 5, 5)


@given(st.integers(10, 400), st.floats(1.15, 3.0), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_divisor_tail_majorizes_partial_tails(x, t, k):
    bound = float(divisor_tail(x, t, k))
    partial = sum(divisor_count_at(n, k) * n ** (-t)
                  for n in range(x + 1, x + 600))
    assert partial <= bound


def test_log_divisor_tail_matches_mpmath():
    with mp.workprec(96):
        for x in (1, 7, 10 ** 4, 1 << 40):
            for t in (1.25, 2.5, 600.0):
                for k in (2, 4, 8):
                    want = mp.log(divisor_tail(x, t, k))
                    assert abs(log_divisor_tail(x, t, k) - want) <= 1e-12 * (1 + abs(want))


def test_divisor_tail_decreasing_in_x():
    with mp.workprec(96):
        assert divisor_tail(2000, 1.5, 4) < divisor_tail(1000, 1.5, 4)
        assert divisor_tail(10000, 1.5, 4) < divisor_tail(2000, 1.5, 4)


def test_fmt_mpf_deterministic():
    with mp.workprec(192):
        x = mp.mpf(1) / 3
        a = fmt_mpf(x, 30)
    with mp.workprec(192):
        b = fmt_mpf(mp.mpf(1) / 3, 30)
    assert a == b
    assert a.startswith("0.3333333333")


def test_log_gamma_c_real():
    # Gamma_C(x) = 2 (2 pi)^{-x} Gamma(x); at x = 3 this is 4 (2 pi)^{-3}
    expect = math.log(4.0) - 3.0 * math.log(2.0 * math.pi)
    assert abs(log_gamma_c_real(3.0) - expect) < 1e-12
