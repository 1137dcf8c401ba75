"""Symmetric-power L-function data for rational elliptic curves.

From a Weierstrass model over Q with squarefree conductor N, point counts
a_p = p + 1 - #E(F_p) determine the unit-circle Satake parameters alpha_p
(alpha_p + conj(alpha_p) = a_p / sqrt(p)).  The n-th symmetric power has
local factors

    good p:  prod_{j=0}^{n} (1 - alpha_p^{n-2j} p^{n/2} p^{-s})^{-1},
    bad  p:  (1 - a_p^n p^{-s})^{-1}   (multiplicative reduction),

weight w = n, degree d = n+1, conductor N^n, and Hodge numbers h_nu = 1
for every 0 <= nu <= m = (n-1)/2 (weight-2 case).  All local-factor
coefficients are exact integers here: the elementary symmetric functions
of the inverse roots are computed by Newton's identities from the integer
power sums tr Sym^n(Frob_p^s), never from floating-point alpha powers.
The root number is exact too: for a semistable curve it follows from the
Hodge numbers and the signs a_p = +-1 at the bad primes, with no
numerical search (see sym_lfunction_data).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lfunc import LFunctionData
from .numutil import primes_upto, smallest_prime_factors

# Point counting is O(p): about 35 ns per residue, 70 ms at p = 2e6 on a
# 2-core Xeon host.  ap_count's int64 intermediates stay below 5p^2, inside
# 2^63 for every p below 1.3e9, so time, not overflow, sets this bound.
MAX_COUNT_PRIME = 2_000_000


@dataclass(frozen=True)
class CurveSpec:
    """Minimal integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2
    + a4 x + a6 of a semistable curve (squarefree conductor, multiplicative
    reduction at every bad prime) without CM.  For such a model the primes
    dividing the conductor are exactly those dividing the discriminant;
    a conductor that breaks this is an InputError."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str = ""
    cm_flag: bool = False

    def __post_init__(self):
        disc = self.discriminant
        if disc == 0:
            raise InputError("singular Weierstrass model (discriminant 0)")
        n = self.conductor
        if n < 1:
            raise InputError("conductor must be positive")
        rest = abs(disc)  # |disc| with the primes of the conductor removed
        cofactor = n
        for p in primes_upto(math.isqrt(n)):
            if n % (p * p) == 0:
                raise InputError("conductor %d is not squarefree" % n)
            if cofactor % p == 0:
                cofactor //= p
                rest = _strip_prime(rest, p, n, disc)
        if cofactor > 1:  # the one prime factor above sqrt(n)
            rest = _strip_prime(rest, cofactor, n, disc)
        if rest > 1:
            raise InputError(
                "conductor %d does not match the model: the discriminant %d"
                " has the factor %d prime to it" % (n, disc, rest))
        if self.cm_flag:
            raise InputError("CM curves are out of scope (cm_flag must be false)")

    @property
    def b_invariants(self):
        b2 = self.a1 ** 2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 ** 2 + 4 * self.a6
        b8 = (
            self.a1 ** 2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 ** 2
            - self.a4 ** 2
        )
        return b2, b4, b6, b8

    @property
    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants
        return -(b2 ** 2) * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6


def _strip_prime(rest, p, n, disc):
    """rest with every factor p removed; p must divide it."""
    if rest % p:
        raise InputError(
            "conductor %d does not match the model: p = %d divides it but"
            " not the discriminant %d" % (n, p, disc))
    while rest % p == 0:
        rest //= p
    return rest


def ap_count(curve, p):
    """Trace of Frobenius a_p = p - #affine points (works verbatim for good
    and multiplicative primes; the point at infinity shifts both sides by 1
    in the good case)."""
    if p > MAX_COUNT_PRIME:
        raise InputError("p = %d exceeds the point-counting bound %d" % (p, MAX_COUNT_PRIME))
    if p == 2:
        count = 0
        for x in range(2):
            for y in range(2):
                lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % 2
                rhs = (x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % 2
                count += lhs == rhs
        return 2 - count
    # complete the square: (2y + a1 x + a3)^2 = f(x) = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2, b4, b6, _ = curve.b_invariants
    x = np.arange(p, dtype=np.int64)
    # Horner's rule, reduced after the quadratic step and at the end, so
    # every intermediate stays below 5p^2 (reducing only at the end would
    # reach 5p^3, past 2^63 once p > 1.2e6)
    f = np.arange(b2 % p, b2 % p + 4 * p, 4, dtype=np.int64)  # 4x + b2
    f *= x
    f %= p
    f += 2 * b4 % p
    f *= x
    f += b6 % p
    f %= p
    half = x[: (p + 1) // 2]
    square = np.zeros(p, dtype=bool)
    square[half * half % p] = True
    # f(x) = 0 gives one y, a nonzero square two, a non-square none
    return p + int(np.count_nonzero(f == 0)) - 2 * int(np.count_nonzero(square[f]))


def _power_traces(ap, p, n, count):
    """t[s] = alpha^s + beta^s (unnormalized: alpha beta = p), then
    w[s] = tr Sym^n(Frob^s) = sum_{j=0}^{n} alpha^{(n-j)s} beta^{js},
    all exact integers, for s = 1..count."""
    t = [2, ap]
    for s in range(2, count + 1):
        t.append(ap * t[s - 1] - p * t[s - 2])
    w = []
    for s in range(1, count + 1):
        q = p ** s
        ts = t[s]
        wv = [1, ts]
        for _ in range(2, n + 1):
            wv.append(ts * wv[-1] - q * wv[-2])
        w.append(wv[n] if n >= 1 else 1)
    return w


def sym_local_factor(n, p, a_p, bad):
    """Denominator polynomial of the Sym^n local factor at p, given the
    trace of Frobenius a_p, as the exact integer coefficient list
    [1, c_1, ..., c_{n+1}] in X = p^{-s} (degree 1 for bad p).

    Good p: Newton's identities convert the power sums
    tr Sym^n(Frob^s) into elementary symmetric functions of the n+1
    inverse roots alpha^{n-2j} p^{n/2}.
    """
    if n < 1 or n % 2 == 0:
        raise InputError("symmetric power n must be odd and >= 1")
    if bad:
        return [1, -a_p ** n]
    deg = n + 1
    ps = _power_traces(a_p, p, n, deg)
    e = [1]
    for i in range(1, deg + 1):
        acc = 0
        for s in range(1, i + 1):
            acc += (-1) ** (s - 1) * e[i - s] * ps[s - 1]
        if acc % i:
            raise InputError("Newton identity failed at p=%d (non-integer e_%d)" % (p, i))
        e.append(acc // i)
    return [(-1) ** i * e[i] for i in range(deg + 1)]


def _local_expansion(dcoeffs, p, x):
    """h[r] = coefficient of p^{-rs} in 1/D(p^{-s}) for p^r <= x, via the
    linear recurrence h_r = -sum_{s>=1} D_s h_{r-s}."""
    rmax = 0
    q = 1
    while q * p <= x:
        q *= p
        rmax += 1
    h = [1]
    for r in range(1, rmax + 1):
        acc = 0
        for s in range(1, min(r, len(dcoeffs) - 1) + 1):
            acc -= dcoeffs[s] * h[r - s]
        h.append(acc)
    return h


def sym_dirichlet_coeffs(curve, n, x):
    """lambda_{Sym^n}(1..x) as exact integers, by multiplicative assembly
    of the local expansions (smallest-prime-factor sieve)."""
    if n < 1 or n % 2 == 0:
        raise InputError("symmetric power n must be odd and >= 1")
    if x < 1:
        raise InputError("x must be >= 1")
    lam = [0] * (x + 1)
    lam[1] = 1
    if x == 1:
        return lam[1:]
    spf = smallest_prime_factors(x)
    prime_pow = {}
    for p in primes_upto(x):
        d = sym_local_factor(n, p, ap_count(curve, p), curve.conductor % p == 0)
        prime_pow[p] = _local_expansion(d, p, x)
    for v in range(2, x + 1):
        p = int(spf[v])
        q, r = v, 0
        while q % p == 0:
            q //= p
            r += 1
        lam[v] = prime_pow[p][r] * lam[q] if q > 1 else prime_pow[p][r]
    return lam[1:]


def sym_hodge(n, k=2):
    """Hodge numbers of Sym^n of a weight-k form: h_nu = 1 exactly when
    nu is a multiple of k-1 inside [0, m]; for k = 2 all of 0..m."""
    w = n * (k - 1)
    m = (w - 1) // 2
    return tuple(1 if (k == 2 or nu % (k - 1) == 0) else 0 for nu in range(m + 1))


def _prime_factors(n):
    """The primes dividing the squarefree n, ascending."""
    primes = []
    for p in primes_upto(math.isqrt(n)):
        if n % p == 0:
            primes.append(p)
            n //= p
    # what is left has no prime factor <= sqrt of the original n
    return primes + [n] if n > 1 else primes


def sym_lfunction_data(curve, n, x):
    """LFunctionData for Sym^n of the curve: w = n, d = n+1, conductor N^n,
    coefficients to x, and the exact root number

        eps = eps_inf * prod_{p | N} (-a_p),
        eps_inf = prod_nu i^{(w - 2 nu + 1) h_nu}

    (-1 for n = 3, +1 for n = 5 and 7).  At a multiplicative p, Sym^n is
    the special representation twisted by the unramified character
    taking the value a_p at p, with root number (-a_p)^n = -a_p (Martin &
    Watkins, "Symmetric powers of elliptic curve L-functions", ANTS VII,
    2006).  a_p is read from lambda_p = a_p^n = a_p when p <= x and
    counted otherwise, so each prime is counted once.  Raises InputError
    when a prime of the conductor has a_p other than +-1.
    """
    if n < 3 or n % 2 == 0:
        raise InputError("symmetric power n must be odd and >= 3")
    coeffs = sym_dirichlet_coeffs(curve, n, x)
    hodge = sym_hodge(n)
    # every exponent w - 2 nu + 1 is even for odd w, and i^(2k) = (-1)^k
    eps = (-1) ** (sum((n - 2 * nu + 1) * h
                       for nu, h in enumerate(hodge)) // 2)
    for p in _prime_factors(curve.conductor):
        a_p = coeffs[p - 1] if p <= x else ap_count(curve, p)
        if a_p not in (1, -1):
            raise InputError(
                "%s: the reduction at p = %d, a prime of the conductor %d, "
                "is not multiplicative (a_p is not +-1)"
                % (curve.label or "curve", p, curve.conductor))
        eps *= -a_p
    return LFunctionData(
        weight=n,
        degree=n + 1,
        conductor=curve.conductor ** n,
        hodge=hodge,
        root_number=eps,
        coefficients=tuple(coeffs),
        label="%s-sym%d" % (curve.label or "curve", n),
    )
