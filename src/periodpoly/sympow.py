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

a_p comes from one of two point counts (ap_count).  The character sum
a_p = -sum_x chi(f(x)) takes a few numpy passes over all p residues, so
it costs O(p); it serves p <= _SHANKS_MESTRE_ABOVE, the bad primes, and
any prime the other path leaves open.  Above that crossover a good prime
is counted by Shanks-Mestre baby-step giant-step (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, sec. 7.4), in exact Python
integers on the short model y^2 = g(x) = x^3 - 27 c4 x - 54 c6.  Its
discriminant is 6^12 times the model's, and CurveSpec ties the primes of
that to those of N, so for p > 3 it is nonsingular mod p exactly when p
does not divide N.  Hasse's theorem puts #E(F_p) in [p+1-r, p+1+r],
r = floor(2 sqrt p).  For a point P, every M in that interval with
M P = O is collected; the true #E(F_p) is one of them, so when exactly one
remains, it is the count.  The points come from x = 0, 1, 2, ... with
d = g(x) != 0: (x, 1) lies on d y^2 = g(x), which X = d x, Y = d^2 y turn
into Y^2 = X^3 - 27 c4 d^2 X - 54 c6 d^3 with the point (d x, d^2).  That
curve is E when d is a square mod p, and otherwise its quadratic twist,
whose trace is -a_p.  So no square root is taken, and each further point
keeps only the candidates a_p it allows.  A point whose baby steps collide (its order is at most
twice their number, so the giant steps could miss an M) is skipped; when
_SHANKS_MESTRE_POINTS points leave more than one candidate, the character
sum decides.  No count is ever guessed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lfunc import Header, LFunctionData
from .numutil import primes_upto, smallest_prime_factors

# The character sum is O(p), about 29 ns per residue and 58 ms at p = 2e6
# on a 2-core Xeon host, and bad primes and Shanks-Mestre's leftovers can
# reach it at any p.  Its int64 intermediates stay below 6p^3, or below 6p^2
# where x^2 is reduced first, inside 2^63 for every p below 1.2e9, so time,
# not overflow, sets this bound.
MAX_COUNT_PRIME = 2_000_000

# Good primes above this are counted by Shanks-Mestre.  The two paths tie
# near p = 3,500 (about 60 us a prime on the host above) and Shanks-Mestre
# is faster from 4,000 on; at p = 10^5 the character sum takes 2 ms and
# Shanks-Mestre 0.1 ms.
_SHANKS_MESTRE_ABOVE = 4_000

# Points Shanks-Mestre tries before leaving a prime to the character sum.
# With 3, of the primes in (2,000, 20,000] on the seven curves 11a1, 14a1,
# 15a1, 17a1, 19a1, 37a1 and 43a1 only 15a1's 14,401 falls back.
_SHANKS_MESTRE_POINTS = 3


@dataclass(frozen=True)
class CurveSpec:
    """Minimal integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2
    + a4 x + a6 of a semistable curve (squarefree conductor, multiplicative
    reduction at every bad prime) without CM.  gcd(c4, disc) = 1 says
    exactly that: v_p(c4) = 0 makes the model minimal at p, and a minimal
    model with p | disc and p not dividing c4 has multiplicative reduction
    at p, 2 and 3 included.  The primes dividing the conductor are then
    those dividing the discriminant.  A model or conductor that breaks
    either is an InputError."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str = ""

    def __post_init__(self):
        disc = self.discriminant
        if disc == 0:
            raise InputError("singular Weierstrass model (discriminant 0)")
        common = math.gcd(self.c4, disc)
        if common > 1:
            raise InputError(
                "gcd(c4, discriminant) = gcd(%d, %d) = %d: the model is not"
                " minimal with multiplicative reduction at every bad prime"
                % (self.c4, disc, common))
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
    def c4(self):
        b2, b4, _, _ = self.b_invariants
        return b2 * b2 - 24 * b4

    @property
    def c6(self):
        b2, b4, b6, _ = self.b_invariants
        return -b2 ** 3 + 36 * b2 * b4 - 216 * b6

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
    """Trace of Frobenius a_p = p - #affine points, for good and
    multiplicative primes alike (the point at infinity shifts both sides
    by 1 in the good case); see the module docstring for the two paths."""
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
    if p > _SHANKS_MESTRE_ABOVE and curve.conductor % p:
        a_p = _shanks_mestre_ap(curve, p)
        if a_p is not None:
            return a_p
    return _character_sum_ap(curve, p)


def _character_sum_ap(curve, p):
    """a_p = -sum_x chi(f(x)) for odd p, in one reduction of f."""
    # complete the square: (2y + a1 x + a3)^2 = f(x) = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2, b4, b6, _ = curve.b_invariants
    x = np.arange(p, dtype=np.int64)
    x2 = x * x
    square = np.zeros(p, dtype=bool)
    square[x2[: (p + 1) // 2] % p] = True
    # f = (4x + b2) x^2 + 2 b4 x + b6 with reduced constants is below
    # 5p^3 + p^2 + p < 6p^3, or 6p^2 with x^2 reduced first
    if 6 * p ** 3 >= 1 << 63:
        x2 %= p
    f = np.arange(b2 % p, b2 % p + 4 * p, 4, dtype=np.int64)  # 4x + b2
    f *= x2
    x *= 2 * b4 % p
    f += x
    f += b6 % p
    f %= p
    # f(x) = 0 gives one y, a nonzero square two, a non-square none
    return p + int(np.count_nonzero(f == 0)) - 2 * int(np.count_nonzero(square[f]))


def _ec_add(P, Q, a, p):
    """P + Q on y^2 = x^3 + a x + b over F_p, affine, None for O."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k, P, a, p):
    """k P for k >= 0, by doubling and adding."""
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, a, p)
        P = _ec_add(P, P, a, p)
        k >>= 1
    return R


def _hasse_orders(P, a, p, r):
    """Every t in [-r, r] with (p + 1 + t) P = O, by baby steps +-jP
    (j <= m) and giant steps of (2m + 1) P; None when two baby steps
    collide, as then the giant steps could miss a t."""
    m = math.isqrt(r) + 1
    baby = {}  # x(jP) -> (j, y(jP))
    Q = P
    for j in range(1, m + 1):
        if Q is None or Q[1] == 0 or Q[0] in baby:
            return None
        baby[Q[0]] = (j, Q[1])
        Q, last = _ec_add(Q, P, a, p), Q
    step = 2 * m + 1
    giant = _ec_add(Q, last, a, p)  # (m + 1) P + m P
    # R = (p + 1 + t) P covers t - m .. t + m against the baby steps; the
    # first t <= m - r makes p + 1 + t a multiple of the step
    q = (p + 1 + m - r) // step
    t = q * step - p - 1
    R = _ec_mul(q, giant, a, p)
    found = []
    while t - m <= r:
        if R is None:
            found.append(t)
        elif R[0] in baby:
            j, y = baby[R[0]]
            found.append(t - j if y == R[1] else t + j)
        R = _ec_add(R, giant, a, p)
        t += step
    return [u for u in found if -r <= u <= r]


def _shanks_mestre_ap(curve, p):
    """a_p for a good prime p > 3 when the points of the module docstring
    leave exactly one candidate in Hasse's interval, otherwise None."""
    A, B = -27 * curve.c4 % p, -54 * curve.c6 % p
    r = math.isqrt(4 * p)
    candidates = None
    tried = 0
    x = -1
    while tried < _SHANKS_MESTRE_POINTS:
        x += 1
        d = (x * x * x + A * x + B) % p
        if not d:
            continue
        tried += 1
        # (d x, d^2) lies on y^2 = x^3 + A d^2 x + B d^3, which has
        # p + 1 - chi(d) a_p points
        chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
        a, P = A * d * d % p, (d * x % p, d * d % p)
        if candidates is None:
            ts = _hasse_orders(P, a, p, r)
            if ts is None:
                continue
            candidates = [-chi * t for t in ts]
        else:
            candidates = [c for c in candidates
                          if _ec_mul(p + 1 - chi * c, P, a, p) is None]
        if len(candidates) == 1:
            return candidates[0]
    return None


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
    of the local expansions (smallest-prime-factor sieve).  A prime above
    sqrt(x) enters only through lambda(p), which is read straight from
    a_p, without the local factor."""
    if n < 1 or n % 2 == 0:
        raise InputError("symmetric power n must be odd and >= 1")
    if x < 1:
        raise InputError("x must be >= 1")
    lam = [0] * (x + 1)
    lam[1] = 1
    if x == 1:
        return lam[1:]
    spf = smallest_prime_factors(x).tolist()
    prime_pow = {}
    for p in primes_upto(x):
        a_p = ap_count(curve, p)
        bad = curve.conductor % p == 0
        if p * p > x:
            # only lambda(p) is used: a_p^n at a bad p, else tr Sym^n(Frob_p)
            prime_pow[p] = [1, a_p ** n if bad else _power_traces(a_p, p, n, 1)[0]]
        else:
            d = sym_local_factor(n, p, a_p, bad)
            prime_pow[p] = _local_expansion(d, p, x)
    for v in range(2, x + 1):
        p = spf[v]
        q, r = v, 0
        while q % p == 0:
            q //= p
            r += 1
        lam[v] = prime_pow[p][r] * lam[q] if q > 1 else prime_pow[p][r]
    return lam[1:]


def sym_hodge(n):
    """Hodge numbers of Sym^n of an elliptic curve (weight n = 2m + 1):
    h_nu = 1 for every nu in 0..m."""
    return (1,) * ((n - 1) // 2 + 1)


def _prime_factors(n):
    """The primes dividing the squarefree n, ascending."""
    primes = []
    for p in primes_upto(math.isqrt(n)):
        if n % p == 0:
            primes.append(p)
            n //= p
    # what is left has no prime factor <= sqrt of the original n
    return primes + [n] if n > 1 else primes


def sym_header(curve, n):
    """Header of Sym^n of the curve, all the AFE plan reads: weight n, the
    Hodge numbers of sym_hodge and conductor N^n."""
    if n < 3 or n % 2 == 0:
        raise InputError("symmetric power n must be odd and >= 3")
    return Header(n, sym_hodge(n), curve.conductor ** n)


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
    counted otherwise, so each prime is counted once; CurveSpec makes
    every a_p here +-1.
    """
    header = sym_header(curve, n)
    coeffs = sym_dirichlet_coeffs(curve, n, x)
    # every exponent w - 2 nu + 1 is even for odd w, and i^(2k) = (-1)^k
    eps = (-1) ** (sum((n - 2 * nu + 1) * h
                       for nu, h in enumerate(header.hodge)) // 2)
    for p in _prime_factors(curve.conductor):
        eps *= -(coeffs[p - 1] if p <= x else ap_count(curve, p))
    return LFunctionData(
        weight=n,
        degree=header.degree,
        conductor=header.conductor,
        hodge=header.hodge,
        root_number=eps,
        coefficients=tuple(coeffs),
        label="%s-sym%d" % (curve.label or "curve", n),
    )
