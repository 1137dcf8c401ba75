"""Shared numeric plumbing: sieves, divisor-function bounds, deterministic
decimal formatting.

The divisor-tail majorant here is the single analytic inequality the
truncation logic relies on, so its derivation is recorded once:

    sum_{n > X} d_k(n) n^{-t}
        = t * int_X^oo (D_k(x) - D_k(X)) x^{-t-1} dx          (Abel)
       <= t * int_X^oo x (1 + ln x)^{k-1} x^{-t-1} dx          (D_k(x) <= x(1+ln x)^{k-1})
        = t X^{1-t} sum_{i=0}^{k-1} C(k-1,i) (1+ln X)^{k-1-i} i! / (t-1)^{i+1}

for t > 1, substituting x = X e^y in the last step.  The summatory bound
D_k(x) <= x (1 + ln x)^{k-1} follows by induction on k from
D_k(x) = sum_{a <= x} D_{k-1}(x/a) and sum_{a <= x} 1/a <= 1 + ln x.

log_divisor_tail is the log of the same closed form in double precision,
for planning only; every bound that enters a certificate uses divisor_tail.

The table d_k(1..x) is sieved, not convolved: d_k is multiplicative with
d_k(p^e) = C(e + k - 1, k - 1).  For each prime p <= sqrt(x) one pass over
the multiples of p (and of its powers) finds v_p(n) and multiplies the
entry by C(v_p(n) + k - 1, k - 1).  What is left of n after those primes
is 1 or one prime above sqrt(x), which contributes the factor k.
"""

import math
from math import comb

import mpmath as mp
import numpy as np


def primes_upto(x):
    """All primes <= x, as a Python list of ints (numpy sieve)."""
    if x < 2:
        return []
    sieve = np.ones(x + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(x ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def smallest_prime_factors(x):
    """Array spf with spf[n] = least prime factor of n (spf[0]=spf[1]=0)."""
    spf = np.zeros(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
        if p * p > x:
            # remaining unmarked entries are prime
            rest = np.nonzero(spf[2:] == 0)[0] + 2
            spf[rest] = rest
            break
    return spf


def divisor_counts(x, k=2):
    """d_k(n) for n = 0..x as an int64 array (d_k = 1 * 1 * ... k-fold).

    Sieved from d_k(p^e) = C(e + k - 1, k - 1); see the module docstring.
    d_8(n) for n <= 10^6 is below 10^5, well inside int64.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = np.ones(x + 1, dtype=np.int64)
    d[0] = 0
    by_exponent = np.array(
        [comb(e + k - 1, k - 1) for e in range(x.bit_length() + 1)], dtype=np.int64)
    smooth = np.ones(x + 1, dtype=np.int64)  # part of n over primes <= sqrt(x)
    for p in primes_upto(math.isqrt(x)):
        e = np.zeros(x // p + 1, dtype=np.int64)  # e[j] = v_p(j p), j >= 1
        q = p
        while q <= x:
            e[q // p :: q // p] += 1
            smooth[q::q] *= p
            q *= p
        d[p::p] *= by_exponent[e[1:]]
    # n / smooth(n) is 1 or a single prime above sqrt(x), with d_k(p) = k
    d[smooth < np.arange(x + 1)] *= k
    return d


def divisor_count_at(n, k):
    """d_k(n) for a single n, via factorization: multiplicative with
    d_k(p^e) = C(e + k - 1, k - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out *= comb(e + k - 1, k - 1)
        p += 1 if p == 2 else 2
    if m > 1:
        out *= k
    return out


def divisor_tail(x, t, k):
    """Upper bound for sum_{n > x} d_k(n) n^{-t}, valid for t > 1.

    See the module docstring for the derivation.  Returns an mpf at the
    ambient working precision.
    """
    t = mp.mpf(t)
    if t <= 1:
        raise ValueError("divisor_tail requires t > 1")
    x = mp.mpf(x)
    lx = 1 + mp.log(x)
    s = mp.mpf(0)
    for i in range(k):
        s += comb(k - 1, i) * lx ** (k - 1 - i) * mp.factorial(i) / (t - 1) ** (i + 1)
    return t * x ** (1 - t) * s


def log_divisor_tail(x, t, k):
    """log of divisor_tail(x, t, k) in double precision (t > 1, x >= 1)."""
    lx = 1 + math.log(x)
    s = sum(comb(k - 1, i) * lx ** (k - 1 - i) * math.factorial(i) / (t - 1) ** (i + 1)
            for i in range(k))
    return math.log(t) + (1 - t) * math.log(x) + math.log(s)


def fmt_mpf(value, digits=None):
    """Deterministic decimal string for an mpf/mpc at a fixed digit count.

    Used everywhere a report is serialized so that byte-identical reruns
    hold across platforms.  The input is never re-rounded: mp.mpf(x) at
    the ambient context would clip an mpf computed at higher precision
    (the caller is typically at the 53-bit default), so only non-mpf
    inputs are converted, exactly, before printing.
    """
    if digits is None:
        digits = int(mp.mp.dps)
    if isinstance(value, mp.mpc):
        return "(%s %s)" % (fmt_mpf(value.real, digits), fmt_mpf(value.imag, digits))
    if type(value) is not mp.mpf:
        if isinstance(value, int):
            value = mp.mp.make_mpf(mp.libmp.from_int(value))
        elif isinstance(value, float):
            value = mp.mp.make_mpf(mp.libmp.from_float(value))
        else:
            with mp.workprec(max(mp.mp.prec, int(digits * 3.33) + 16)):
                value = +mp.mpf(value)
    return mp.nstr(value, digits, strip_zeros=False)


def log_gamma_c_real(x):
    """float log of Gamma_C(x) = 2 (2 pi)^{-x} Gamma(x) for planning
    heuristics (x real > 0)."""
    return math.log(2.0) - x * math.log(2.0 * math.pi) + math.lgamma(x)
