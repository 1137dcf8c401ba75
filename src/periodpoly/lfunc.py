"""Completed special values of self-dual motivic L-functions.

The central object is a degree-d L-function L(s) = sum lambda(n) n^{-s}
attached to a self-dual motive of odd weight w = 2m+1, conductor N, with
Hodge numbers h_0..h_m and root number eps = +/-1.  Its completion

    Lambda(s) = N^{s/2} * L_inf(s) * L(s),
    L_inf(s)  = prod_{nu=0}^{m} Gamma_C(s - nu)^{h_nu},
    Gamma_C(z) = 2 (2 pi)^{-z} Gamma(z),

is entire and satisfies Lambda(s) = eps * Lambda(w+1-s).

Values inside the critical strip are computed by a two-sided approximate
functional equation.  Writing

    I(sigma) = N^{sigma/2} sum_n lambda(n) n^{-sigma} K_sigma(n),
    K_sigma(n) = (1/2 pi i) int_{Re u = c} L_inf(sigma+u) (sqrt(N)/n)^u du/u,

a contour shift through u = 0 combined with the functional equation gives

    Lambda(s) = I(s) + eps * I(w+1-s),

valid whenever each line Re u = c keeps the Dirichlet series absolutely
convergent (sigma + c > w/2 + 1) and stays right of every Gamma pole
(sigma + c - m > 0).  On the line u = c + i t the kernel is

    K_sigma(n) = (e^{c ell} / 2 pi) int g(t) e^{i t ell} dt,
    g(t) = L_inf(sigma + c + i t) / (c + i t),   ell = log(sqrt(N)/n),

evaluated by the trapezoidal rule with step h, (h/pi) Re(g_0/2 +
sum_{k>0} g_k e^{i k h ell}) times e^{c ell}; g is conjugate-symmetric,
so only t >= 0 is built.

The step is chosen a priori, once per kernel line that some term uses.
g(t) e^{i t ell} is analytic in the strip |Im t| < a whenever
a < min(c, sigma + c - top), top the largest nu with h_nu > 0: the strip
then avoids the pole of 1/u and those of Gamma(z - top).  By Trefethen &
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 56
(2014), Thm 5.1, the trapezoid error is at most 2M/(e^{2 pi a/h} - 1),
M the largest L1 norm of the integrand on a line of the strip.  Shifting
t by i b moves the line to Re u = c - b and multiplies by e^{-b ell}; the
L1 norm on vertical lines is log-convex across a strip (Doetsch's
three-lines theorem), so its largest value is at an edge, and over the
ell range [ell_lo, ell_hi] of the line's terms

    M <= 2 pi E(a),  E(a) = max(e^{-a ell_lo} mass(c - a), e^{a ell_hi} mass(c + a)),

with mass(c') >= (1/pi) int_0^oo |g| on the line Re u = c'.  A term of
weight w = |lambda(n)| n^{-sigma} e^{c ell} then errs by at most
N^{sigma/2} w 2 E(a) / (e^{2 pi a/h} - 1).  For the line's share of the
quadrature budget, h is the largest step meeting it over a grid of a.

The bound mass comes from Stirling's formula with Binet's remainder,
|mu(z)| <= 1/(12 Re z) for Re z > 0:

    log|Gamma(x + i t)| <= (x - 1/2) log|x + i t| - t atan(t/x) - x
                           + log(2 pi)/2 + 1/(12 x),

applied to every Gamma_C factor of L_inf.  Call the product, over
|c + i t|, S(t).  Its log-derivative is at most -decay(t) = -sum h_nu
atan(t/x_nu) < 0, so S decreases: a left Riemann sum of S bounds its
integral, and int_T^oo S <= S(T)/decay(T) closes the sum.  |g| itself
decreases on t >= 0, as |Gamma(x)/Gamma(x+it)|^2 = prod_n (1 +
t^2/(x+n)^2), so the nodes a line drops past its last one, K, weigh at
most (1/h) int_{(K-1)h}^oo |g| <= S((K-1)h)/(h decay((K-1)h)).  A line
has the first K where that is below what its heaviest term may skip.
These sizings run in double precision, with an allowance for its
rounding.

Lambda(s) = I(s) + eps I(w+1-s) is budgeted at target/32, so each
one-sided sum gets target/64, split as coefficient tail 3/8, quadrature
3/8 (equal shares per used line) and skipped nodes 1/32 (equal shares per
term): at most 25/32 of target/32 before rounding.  The margin of 32
costs little, as the node counts grow with log(1/budget) and the term
count with a small power of it (Sym^3 of seven curves at X = 10^4, 64
bits, target 1e-3: 24% more loggamma calls than spending the whole
target), and the bounds set the coefficient errors of p and so its root
inclusion radii, which the circle certificates compare with fixed
tolerances.  The rounding component, the remaining 1/8, is computed
rather than budgeted (only the line choice (e) keeps its prediction
within that share), from the operations the term pipeline (c) counts:
per line, its weight sum times the node sum's bound (the truncated
nodes and Horner steps, each under one unit of 2^-F in either part
relative to the largest node; the error of e^{i h ell}, which moves
node k by k times as much; and the nodes' own error at F bits), the
weights' relative error times the line's absolute sum, and the line
constant's relative error; then the roundings of I(sigma) and of
Lambda(s) to the working precision.  It assumes only that each mpmath
operation errs by at most 2 ulp of its result.  The accounting is
worst-case interval style, not rigorous ball arithmetic.

The kernel and its planning are built to be cheap:

  (a) each node costs one complex loggamma at F bits, at z - top; every
      other Gamma(z - nu) follows from it by the rising factors (z - top)
      ... (z - nu - 1), and the arithmetic around it calls mpmath.libmp.
      When eps = -1, Lambda((w+1)/2) = -Lambda((w+1)/2) is 0 exactly, so
      special_values returns it with error 0 and builds no node for
      I((w+1)/2);
  (b) each used line is built once, at the step and node count (e)
      predicted for it; a line no term uses is never built;
  (c) the terms run in Python integers, with no mpmath number per term:
      ln n from an additive sieve over the smallest prime factors (one log
      per prime per plan, F + 32 fractional bits); n^-(sigma + c_min),
      completely multiplicative as sigma + c_min is a multiple of 1/4,
      along the same sieve as an (F + 8)-bit mantissa and a power of two,
      divided by the exact n^off_i on line i; e^{i h ell} per line as
      e^{i h ln sqrt(N)} times e^{-i h ln p} for each prime factor p of n,
      one mpf_cos_sin per prime, the products along the same sieve at
      F + 16 fractional bits and truncated to F (h has a 24-bit mantissa
      and ln n sums its primes' logs, so the angles are exact, and 16
      guard bits keep the error of up to 40 factors under that of one
      cos and sin at F + 8 bits); the trapezoid sums by Horner's rule
      with F = working bits + 16 fractional bits.  Each used line, in
      ascending index, sums its terms exactly at their finest power of
      two (the node cutoff bisects integer suffix masses) and multiplies
      by its constant N^{c/2} (h/pi) N^{sigma/2} once; the lines add
      exactly before one rounding;
  (d) n0 is searched in doubles, line by line, bisecting the log of the
      divisor-tail majorant (numutil.log_divisor_tail) against the budget
      less _LOG_SLACK, each line after the first only below the best n0
      so far, as it must beat that strictly, and only when it clears the
      budget at one less than that n0, the majorant falling with n.  The
      doubles err by far less than _LOG_SLACK, so the mpmath majorant at
      n0, which one_sided adds to the bound, is within budget; n0 is that
      of an mpmath bisection unless its crossing lies within _LOG_SLACK
      of the budget, and then only larger.  The plan reads only the
      header and the Precision, so AfePlan makes it before any
      coefficient is counted;
  (e) the lines are chosen by predicted work, in doubles, before any node
      is built.  Given a subset of the ladder, each term goes to the
      argmin of log_mass[i] + c_i ell over it; the c_i increase, so each
      line takes one range of n.  For a line and its range, the step
      follows from the strip bound at its quadrature share, K from the
      stop rule at its heaviest weight and the Horner steps sum kc from
      the same bound at each term's threshold: work = K _NODE_STEPS +
      sum kc + _LINE_STEPS.  The argmin over the whole ladder puts few
      terms on its lowest lines, whose narrow strips (a <= c) need many
      nodes, so lines are dropped from it greedily while the predicted
      work falls.  A term moved up from c to c' cancels e^{(c' - c) ell}
      more, so a subset's predicted rounding must stay within its share.
      The Stirling bound S(t) that sizes the masses and node counts is a
      closure per line: what it needs of each Gamma factor that does not
      depend on t is computed once, and one atan2 serves the phase and
      the decay, with the formula's operations in its order.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from numbers import Integral

import mpmath as mp
import numpy as np
from mpmath.libmp import (from_int, from_man_exp, mpc_abs,
                          mpc_add_mpf, mpc_div, mpc_exp, mpc_mul, mpc_mul_int,
                          mpc_mul_mpf, mpc_pow_int, mpc_sub, mpc_sub_mpf,
                          mpf_add, mpf_cos_sin, mpf_exp, mpf_log, to_fixed)

from .errors import InputError, PoleError, InsufficientCoefficients, QuadratureError
# perfbench/spans.py looks up verify_hypothesis here, as lfunc.verify_hypothesis
from .checks import verify_hypothesis  # noqa: F401
from .numutil import divisor_tail, log_divisor_tail, smallest_prime_factors

_LN2 = math.log(2)
_LN2PI = math.log(2 * math.pi)

# Extra working bits beyond the requested mantissa, absorbing accumulated
# rounding across the long kernel sums.
_GUARD_BITS = 32

# Fractional bits F = working bits + this guard of the fixed-point kernel
# sums; their rounding bound scales with 2^-F.
_FIX_GUARD_BITS = 16

# Fractional bits of the ln n table beyond F: an angle h ell errs by h
# times the table's error, which these bits keep far below 2^-F.
_LN_GUARD_BITS = 32

# Fractional bits of the products e^{i h ell} beyond F: a product of up to
# 41 factors errs by less than 2^7 units of its last bit.
_UNIT_GUARD_BITS = 16

# Mantissa bits of the weights n^-(sigma + c) beyond F.
_WEIGHT_GUARD_BITS = 8

# Ladder of kernel-line offsets above the minimal admissible Re(u).  Large
# offsets only pay off for terms far out in the Dirichlet series; the line
# choice, (e) in the module docstring, picks which of them to build.
_OFFSETS = (0, 2, 5, 9, 15, 24, 38, 60, 90, 130, 190, 270, 380, 520, 700, 950, 1250)

# Strip half-widths a / a_max tried when picking the trapezoid step.
_STRIP_FRACTIONS = (0.25, 0.5, 0.75, 0.875, 0.9375, 0.96875)

# Lambda(s) is budgeted at target / _TARGET_MARGIN; see the module docstring.
_TARGET_MARGIN = 32

_MAX_NODES = 25000

# Predicted cost of a kernel node in Horner steps (one loggamma and a few
# products at F bits: about 530 steps at F = 112 and 770 at F = 240), and
# of a used line's constants and tables.
_NODE_STEPS = 640
_LINE_STEPS = 1000

# Margin, in log, by which n0 clears the tail budget in doubles: the
# double-precision majorant errs by at most 9.7e-12 in log against mpmath
# (1.25 <= t <= 1255.5, x <= _N0_CAP, k <= 10), so the mpmath majorant at
# n0 is within budget.
_LOG_SLACK = 1e-8

# Largest truncation point searched: beyond X it only sizes the error.
_N0_CAP = 1 << 40


@dataclass(frozen=True)
class Precision:
    """Numerical request: mantissa size and absolute error target.

    target_abs_error applies to each completed value Lambda(s) separately.
    """

    mantissa_bits: int = 192
    target_abs_error: float = 1e-25

    def __post_init__(self):
        if int(self.mantissa_bits) < 64:
            raise InputError("mantissa_bits must be >= 64")
        target = mp.mpf(self.target_abs_error)
        if not (target > 0 and mp.isfinite(target)):
            raise InputError("target_abs_error must be finite and > 0")


@dataclass(frozen=True)
class Header:
    """What the AFE plan reads of a dataset: its weight, Hodge numbers and
    conductor.  No coefficient and no root number enters the plan."""

    weight: int
    hodge: tuple
    conductor: int

    def __post_init__(self):
        w = self.weight
        if w < 3 or w % 2 == 0:
            raise InputError("weight must be odd and >= 3, got %r" % (w,))
        if not all(isinstance(n, Integral)
                   for n in (*self.hodge, self.conductor)):
            raise InputError("Hodge numbers and conductor must be integers, "
                             "got %r and %r" % (self.hodge, self.conductor))
        hodge = tuple([int(h) for h in self.hodge])
        object.__setattr__(self, "hodge", hodge)
        if len(hodge) != self.m + 1:
            raise InputError("hodge list must have length m+1 = %d, got %d"
                             % (self.m + 1, len(hodge)))
        if any(h < 0 for h in hodge):
            raise InputError("hodge numbers must be nonnegative")
        if not any(hodge):
            raise InputError("all Hodge numbers vanish; degree would be 0")
        if self.conductor < 1:
            raise InputError("conductor must be a positive integer")

    @property
    def degree(self):
        return 2 * sum(self.hodge)

    @property
    def m(self):
        return (self.weight - 1) // 2


@dataclass(frozen=True)
class LFunctionData:
    """Self-dual motivic L-function data of odd weight.

    coefficients[i] holds lambda(i+1); the list is immutable after
    construction.  Odd weight admits no Gamma_R factors, so the
    archimedean factor is the Gamma_C product alone.
    """

    weight: int
    degree: int
    conductor: int
    hodge: tuple
    root_number: int
    coefficients: tuple
    label: str = ""

    def __post_init__(self):
        # the weight, Hodge numbers and conductor are checked by Header
        header = self.header
        object.__setattr__(self, "hodge", header.hodge)
        if self.degree != header.degree:
            raise InputError("degree %d inconsistent with 2*sum(hodge) = %d"
                             % (self.degree, header.degree))
        if self.root_number not in (-1, 1):
            raise InputError("root number must be +1 or -1")
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise InputError("coefficient list is empty")
        if not coeffs[0] == 1:
            raise InputError("lambda(1) must equal 1")

    @property
    def m(self):
        return (self.weight - 1) // 2

    @property
    def coeff_limit(self):
        return len(self.coefficients)

    @property
    def header(self):
        return Header(self.weight, self.hodge, self.conductor)


@dataclass(frozen=True)
class SpecialValues:
    """Completed values Lambda(s) for integer s = 1..w with error bounds.

    values maps s to (value, error_bound) for exactly s = 1..weight;
    bits/target record the request they were computed under (used for
    cache keying and report headers).
    """

    weight: int
    values: dict
    bits: int = 192
    target: float = 1e-25
    label: str = ""

    def __post_init__(self):
        if set(self.values) != set(range(1, self.weight + 1)):
            raise InputError("special values must cover exactly s = 1..%d, "
                             "got s = %s" % (self.weight, sorted(self.values)))

    def value(self, s):
        return self.values[s][0]

    def error(self, s):
        return self.values[s][1]


def _min_offset(sigma, m):
    """Least admissible Re(u) for the kernel line at this sigma: keeps the
    shifted Dirichlet series absolutely convergent with margin 1/4 and all
    Gamma arguments >= 1.75."""
    return max(1.0, m + 1.75 - sigma)


def gamma_completed(s, data, bits):
    """L_inf(s) = prod Gamma_C(s - nu)^{h_nu} at bits (+8 guard bits).

    Raises PoleError when any factor is evaluated at a pole.
    """
    with mp.workprec(bits + 8):
        sv = mp.mpmathify(s)
        out = mp.mpf(1)
        for nu, h in enumerate(data.hodge):
            if h == 0:
                continue
            z = sv - nu
            _check_pole(z)
            out *= (2 * (2 * mp.pi) ** (-z) * mp.gamma(z)) ** h
        return +out


def _check_pole(z):
    zr = mp.re(z)
    zi = mp.im(z)
    if zr <= mp.mpf("0.25") and abs(zi) < mp.mpf("1e-12"):
        if abs(zr - mp.nint(zr)) < mp.mpf("1e-12") and mp.nint(zr) <= 0:
            raise PoleError("gamma factor evaluated at pole z = %s" % (mp.nstr(z),))


def log_abs_gamma_bound(x, t):
    """Upper bound for log|Gamma(x + i t)|, x > 0, in double precision.

    Stirling's formula with Binet's remainder bound |mu(z)| <= 1/(12 Re z),
    plus an allowance far above the rounding of the doubles.  The planning
    evaluates it inside AfePlan._g_bound's per-line closure, bit for bit;
    this is the formula that closure is tested against."""
    t = abs(t)
    power = (x - 0.5) * 0.5 * math.log(x * x + t * t)
    phase = t * math.atan2(t, x)
    return (power - phase - x + 0.5 * _LN2PI + 1 / (12 * x)
            + 1e-12 * (abs(power) + phase + x + 1))


def _dyadic(x):
    """(man, exp) with x = man * 2^exp exactly, for an int or an mpf (any
    other number through mpf at the ambient precision)."""
    if isinstance(x, int):
        return x, 0
    sign, man, exp, _ = (x if isinstance(x, mp.mpf) else mp.mpf(x))._mpf_
    return (-man if sign else man), exp


def _softplus(r):
    """log(1 + e^r) without overflow."""
    return max(r, 0.0) + math.log1p(math.exp(-abs(r)))


def _bisect(over, cap):
    """Smallest n <= cap with over(n) <= 0, for over nonincreasing in n;
    cap when even over(cap) > 0."""
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if over(mid) > 0:
            lo = mid + 1
        else:
            hi = mid
    return hi


class AfePlan:
    """The AFE of one Header under one Precision.  The plan, made here,
    reads no coefficient: per sigma = 1..w the kernel ladder, its log
    mass bounds, the truncation point n0 and its line (see (d) in the
    module docstring); required is the largest n0, None when some sigma
    has none.  one_sided sums on the coefficients a caller supplies."""

    def __init__(self, header, prec):
        self.header = header
        self.prec = prec
        self.bits = int(prec.mantissa_bits)
        self.workbits = self.bits + _GUARD_BITS
        self.fixbits = self.workbits + _FIX_GUARD_BITS
        self.lnbits = self.fixbits + _LN_GUARD_BITS
        self.weightbits = self.fixbits + _WEIGHT_GUARD_BITS
        self.target = mp.mpf(prec.target_abs_error)
        self._masses = {}  # (sigma, c) -> _log_mass(sigma, c)
        with mp.workprec(self.workbits):
            self.ln_sqrt_n = mp.log(header.conductor) / 2
        with mp.workprec(self.fixbits):  # for the nodes
            self._ln2 = mp.log(2)
            self._ln2pi = mp.log(2 * mp.pi)
        # L_inf(z) = 2^H (2 pi)^{-(H z - S)} Gamma(z - top)^H
        #            * prod_{j <= top} (z - j)^{e_j},
        # from Gamma(z - nu) = Gamma(z - top) (z - top) ... (z - nu - 1):
        # H = sum h_nu, S = sum nu h_nu, e_j = sum_{nu < j} h_nu.
        hodge = header.hodge
        self._gammas = [(nu, h) for nu, h in enumerate(hodge) if h]
        self._top = self._gammas[-1][0]
        self._h_total = sum(hodge)
        self._h_moment = sum(nu * h for nu, h in enumerate(hodge))
        rising = ((j, sum(hodge[:j])) for j in range(1, self._top + 1))
        self._rising = [(j, e) for j, e in rising if e]
        with mp.workprec(self.workbits):
            self._plans = {sigma: self._plan(sigma)
                           for sigma in range(1, header.weight + 1)}
        n0s = [n0 for _, _, n0, _ in self._plans.values()]
        self.required = None if None in n0s else max(n0s)
        # ln n (_ln_table) and ln sqrt(N) with lnbits fractional bits; a
        # log at lnbits + 10 bits, truncated, errs by less than
        # 1 + ln(x)/512 units of 2^-lnbits, and ell = ln sqrt(N) - ln n
        # sums fewer than bitlen(n0) of them, n0 the largest truncation
        # point planned: _ell_err bounds its error in those units
        self._ln = [0, 0]
        self._spf = [0, 0]
        self._weight_table = (None, None, None)  # (a4, man, exp); see _weights
        self._ln_sqrt_fix = to_fixed(
            mpf_log(from_int(header.conductor), self.lnbits + 10),
            self.lnbits - 1)
        n_max = max(filter(None, n0s), default=1)
        big = max(n_max, header.conductor)
        self._ell_err = n_max.bit_length() * (1 + math.log(big) / 512)

    # -- fixed-point tables (Python integers) ----------------------------------

    def _ln_table(self, n0):
        """ln n for n <= n0, with lnbits fractional bits, by an additive
        sieve over the smallest prime factors: one log per prime, then
        ln n = ln p + ln(n/p).  Grown on demand and shared by every sigma."""
        ln = self._ln
        if len(ln) <= n0:
            spf = smallest_prime_factors(n0).tolist()
            prec = self.lnbits
            for n in range(len(ln), n0 + 1):
                p = spf[n]
                if p == n:
                    ln.append(to_fixed(mpf_log(from_int(n), prec + 10), prec))
                else:
                    ln.append(ln[p] + ln[n // p])
            self._spf = spf
        return ln

    def _weights(self, a4, n0):
        """n^(-a4/4) ~ man[n] 2^exp[n] for n <= n0, with weightbits-bit
        mantissas, and a bound on the relative error of every weight a term
        takes from them.

        a4/4 = sigma + c_min makes n^(-a4/4) completely multiplicative: one
        exp per prime, from the ln table, then one integer multiply per
        composite n along the sieve.  Each prime's weight errs by less than
        2^(1-B) (truncation to B bits) + 2^-(B+6) (the exp at B + 8 bits)
        + (a4/4) (1 + ln n0/512) 2^-lnbits (the ln table), each product by
        less than 2^(1-B), and a term on line i divides by n^off_i with one
        more truncation; n has fewer than bitlen(n0) prime factors.

        One table is kept, for the last a4, and grown on demand: every
        sigma <= m has a4 = 4m + 7."""
        ln = self._ln_table(n0)
        spf = self._spf
        bits = self.weightbits
        lnbits = self.lnbits
        if self._weight_table[0] != a4:
            self._weight_table = (a4, [0, 1 << (bits - 1)], [0, 1 - bits])
        _, man, exp = self._weight_table
        for n in range(len(man), n0 + 1):
            p = spf[n]
            if p == n:
                _, m, e, _ = mpf_exp(from_man_exp(-a4 * ln[n], -lnbits - 2),
                                     bits + 8)
            else:
                q = n // p
                m = man[p] * man[q]
                e = exp[p] + exp[q]
            r = m.bit_length() - bits
            man.append(m >> r if r >= 0 else m << -r)
            exp.append(e + r)
        delta = n0.bit_length() * (mp.ldexp(1, 2 - bits) + a4 * mp.ldexp(1, -lnbits))
        return man, exp, delta

    # -- a-priori bounds on the kernel (double precision) ---------------------

    def _g_bound(self, sigma, c):
        """t -> (log S(t), decay(t)) on the line Re u = c: S(t) >= |g(t)| by
        Stirling, and decay(t) = sum h_nu atan(t / x_nu) <= -(log S)'(t')
        for every t' >= t.  Needs c > 0 and sigma + c - top > 0.  What does
        not depend on t is computed once per line, and one atan2 serves the
        phase and the decay; the rest is log_abs_gamma_bound's operations
        in its order, so the bound is the formula's bit for bit."""
        cc = c * c
        half_ln2pi = 0.5 * _LN2PI
        parts = []
        for nu, h in self._gammas:
            x = sigma + c - nu
            parts.append((h, x, x * x, (x - 0.5) * 0.5, 1 / (12 * x),
                          _LN2 - x * _LN2PI))

        def bound(t):
            t = abs(t)
            tt = t * t
            log_s = -0.5 * math.log(cc + tt)
            decay = 0.0
            for h, x, xx, half, binet, const in parts:
                power = half * math.log(xx + tt)
                angle = math.atan2(t, x)
                phase = t * angle
                log_s += h * (const + (power - phase - x + half_ln2pi + binet
                                       + 1e-12 * (abs(power) + phase + x + 1)))
                decay += h * angle
            return log_s, decay
        return bound

    def _log_mass(self, sigma, c):
        """log of an upper bound for (1/pi) int_0^oo |g(t)| dt on the line
        Re u = c: a left Riemann sum of the decreasing S, closed by
        int_T^oo S <= S(T) / decay(T).  Kept per plan."""
        if (sigma, c) not in self._masses:
            self._masses[sigma, c] = self._sum_mass(sigma, c)
        return self._masses[sigma, c]

    def _sum_mass(self, sigma, c):
        g_bound = self._g_bound(sigma, c)
        s0, _ = g_bound(0.0)
        # about half the width of the Gaussian core exp(-t^2 sum h/(2 x))
        step = 0.5 / math.sqrt(sum(h / (sigma + c - nu) for nu, h in self._gammas))
        acc = 0.0
        k = 0
        while True:
            log_s, decay = g_bound(k * step)
            if k and log_s - s0 < -12:
                acc += math.exp(log_s - s0) / decay
                return s0 + math.log(acc / math.pi)
            acc += step * math.exp(log_s - s0)
            k += 1

    def _pick_step(self, sigma, c, ell_lo, ell_hi, log_scale):
        """Largest step h, over a grid of strip half-widths a, whose alias
        bound times e^log_scale, 2 E(a) e^log_scale / (e^{2 pi a/h} - 1),
        is at most 1; returns (h, a, log E(a)).  See the module docstring."""
        a_max = min(c, sigma + c - self._top)
        best = None
        for frac in _STRIP_FRACTIONS:
            a = a_max * frac
            log_e = max(self._log_mass(sigma, c - a) - a * ell_lo,
                        self._log_mass(sigma, c + a) + a * ell_hi)
            h = 2 * math.pi * a / _softplus(_LN2 + log_e + log_scale)
            if best is None or h > best[0]:
                best = (h, a, log_e)
        return best

    # -- node construction -------------------------------------------------

    def _g_value(self, sigma, c, t):
        """L_inf(sigma + c + i t) / (c + i t) at F bits, rounding to nearest:
        exp(H (log 2 + loggamma(z - top)) - log(2 pi) (H z - S)) times the
        rising factors.  Re(z - top) >= 1.75 by _min_offset, so the rising
        factors never reach a Gamma pole."""
        prec, big_h = self.fixbits, self._h_total
        c, t = mp.mpf(c)._mpf_, mp.mpf(t)._mpf_
        z = (mpf_add(from_int(sigma), c, prec, "n"), t)
        # through mpmath.loggamma, so that a count of its calls sees each node
        lg = mp.loggamma(mp.make_mpc(mpc_sub_mpf(z, from_int(self._top), prec, "n")),
                         prec=prec)._mpc_
        hz = mpc_sub_mpf(mpc_mul_int(z, big_h, prec, "n"), from_int(self._h_moment),
                         prec, "n")
        g = mpc_exp(mpc_sub(
            mpc_mul_int(mpc_add_mpf(lg, self._ln2._mpf_, prec, "n"), big_h, prec, "n"),
            mpc_mul_mpf(hz, self._ln2pi._mpf_, prec, "n"), prec, "n"), prec, "n")
        for j, e in self._rising:
            g = mpc_mul(g, mpc_pow_int(mpc_sub_mpf(z, from_int(j), prec, "n"), e,
                                       prec, "n"), prec, "n")
        return mp.make_mpc(mpc_div(g, (c, t), prec, "n"))

    def _g_err_units(self, sigma, c, t):
        """Relative error bound of _g_value(sigma, c, t), in units of
        2^(4 - F) (F bits, the precision the nodes are built at).

        Every mpmath operation is taken to err by at most 2 ulp of its
        result; the exponent H (log 2 + loggamma(w)) - log(2 pi) (H z - S),
        w = z - top, then errs by at most 2^(4 - F) times the sum of
        the magnitudes it adds, which moves g by that much relatively, and
        the rising factors and the division add a few ulp.  |loggamma(w)|
        is at most |w - 1/2| |log w| + |w| + 2 for Re w >= 1.75 (Stirling
        with Binet's remainder)."""
        x = sigma + c - self._top
        w = math.hypot(x, t)
        log_w = math.hypot(math.log(w), math.atan2(t, x))
        big_h = self._h_total
        return (big_h * (math.hypot(x - 0.5, t) * log_w + w + 3)
                + 2 * (big_h * math.hypot(sigma + c, t) + self._h_moment)
                + sum(e for _, e in self._rising) + 2)

    def _node_tails(self, sigma, c, h, log_thresh):
        """[B_1, ..., B_{K-1}] at step h, B_k = log(S(k h) / (h decay(k h)))
        the bound on the nodes past k, up to the first at or below
        log_thresh: K nodes leave at most e^log_thresh."""
        g_bound = self._g_bound(sigma, c)
        tails = []
        while not tails or tails[-1] > log_thresh:
            if len(tails) + 2 > _MAX_NODES:
                raise QuadratureError("kernel node count reached %d on line c=%.6g"
                                      % (_MAX_NODES, c))
            log_s, decay = g_bound((len(tails) + 1) * h)
            tails.append(log_s - math.log(h * decay))
        return tails

    def _build_nodes(self, sigma, c, h, count):
        """The nodes g_k = L_inf(sigma + c + i k h) / (c + i k h), k < K =
        count, of the line Re u = c at the step h (an mpf), in fixed point:
        (gre, gim, suffix, shift, fix_err, node_err).  gre[k] and gim[k] are
        the real and imaginary parts of g_k 2^shift truncated to integers
        (g_0 halved, as the trapezoid rule weights it), shift putting the
        largest |g_k| just below 2^F.  suffix[k] is an integer at least
        2^shift sum_{j >= k} |g_j|, with the nodes past the last, which weigh
        at most S((K-1)h) / (h decay((K-1)h)), so a term can certify the
        mass a truncated node sum skips.  fix_err bounds the rounding of one
        _node_sum, and node_err bounds sum_k |g_k - g(k h)|, what the nodes
        themselves err by."""
        fix = self.fixbits
        hf = float(h)
        parts = [self._g_value(sigma, c, k * h)._mpc_ for k in range(count)]
        mags = [mp.make_mpf(mpc_abs(gk, fix, "n")) for gk in parts]
        node_err = mp.ldexp(mp.fsum(mp.mpf(self._g_err_units(sigma, c, k * hf)) * mk
                                    for k, mk in enumerate(mags)), 4 - fix)
        log_s, decay = self._g_bound(sigma, c)((count - 1) * hf)
        beyond = mp.exp(log_s - math.log(hf * decay))
        _, _, exp, bc = max(mags)._mpf_
        mag_exp = exp + bc  # every |g_k| < 2^mag_exp
        shift = fix - mag_exp
        gre = [to_fixed(re, shift) for re, _ in parts]
        gim = [to_fixed(im, shift) for _, im in parts]
        # g_k 2^shift lies in [gre, gre + 1) x [gim, gim + 1), so its
        # modulus is at most isqrt(a^2 + b^2) + 1, a and b the larger of
        # |x| and |x + 1| in each part
        acc = to_fixed(beyond._mpf_, shift) + 1
        suffix = [acc]
        for x, y in zip(reversed(gre), reversed(gim)):
            a = x + 1 if x >= 0 else -x
            b = y + 1 if y >= 0 else -y
            acc += math.isqrt(a * a + b * b) + 1
            suffix.append(acc)
        # the trapezoid rule weights g_0 by 1/2
        gre[0] = to_fixed(parts[0][0], shift - 1)
        gim[0] = to_fixed(parts[0][1], shift - 1)
        # Each truncation (g_k, every Horner step) is below sqrt(2) units
        # of 2^-shift; |z - zhat| < _z_units(h) units of 2^-fix moves node
        # k by k times that.  (1 + 2^(1-fix))^k < 1.01 for k <= _MAX_NODES.
        moment = mp.fsum(k * mk for k, mk in enumerate(mags))
        fix_err = (3 * count * mp.mpf(2) ** mag_exp
                   + mp.mpf(1.01 * self._z_units(h)) * moment) * mp.mpf(2) ** (-fix)
        return gre, gim, suffix[::-1], shift, fix_err, node_err

    def _z_units(self, h):
        """Bound, in units of 2^-F, on |e^{i h ell} - z| for the z that
        _units returns: cos and sin each within 2^-(F+8) before their
        truncation to F bits, plus h times the error of the ell held in the
        ln table."""
        return 1.4198 + float(h) * self._ell_err * 2.0 ** -_LN_GUARD_BITS

    def _units(self, h, ns):
        """z = e^{i h ell_n} for each n of ns, as fixed-point integers (re,
        im) with F fractional bits.  ln n in the ln table is the sum of ln p
        over the prime factors of n, and h has a 24-bit mantissa, so
        e^{i h ell_n} = e^{i h ln sqrt(N)} prod_{p^k || n} (e^{-i h ln p})^k
        with exact angles.  Each factor, made once per prime, is cos and
        sin at G + 8 bits truncated to G = F + _UNIT_GUARD_BITS fractional
        bits, within sqrt(2) (1 + 2^-8) units of 2^-G; the products, along
        the smallest prime factors and kept for the call, truncate to G
        bits, each within sqrt(2) more.  n <= _N0_CAP has at most 40 prime
        factors, so each part errs by less than 41 * 1.42 + 40 * 1.42 < 2^7
        units of 2^-G, within 2^-(F+8), before the truncation to F bits.
        A generator, so that only the products that are factors of later
        ones are held."""
        g = self.fixbits + _UNIT_GUARD_BITS
        _, hm, he, _ = h._mpf_
        lnbits, ln, spf = self.lnbits, self._ln, self._spf

        def unit(x):  # e^{i h x 2^-lnbits}
            c, s = mpf_cos_sin(from_man_exp(hm * x, he - lnbits), g + 8)
            return to_fixed(c, g), to_fixed(s, g)

        made = {1: unit(self._ln_sqrt_fix)}
        factors = {}
        reused = max(ns, default=1) // 2  # no n // p of an n in ns is above
        for n in ns:
            chain = []
            while n not in made:
                chain.append(n)
                n //= spf[n]
            zr, zi = made[n]
            for k in reversed(chain):
                p = spf[k]
                if p not in factors:
                    factors[p] = unit(-ln[p])
                fr, fi = factors[p]
                zr, zi = (zr * fr - zi * fi) >> g, (zr * fi + zi * fr) >> g
                if k <= reused:
                    made[k] = zr, zi
            yield zr >> _UNIT_GUARD_BITS, zi >> _UNIT_GUARD_BITS

    def _node_sum(self, gre, gim, zr, zi, count):
        """Re(g_0/2 + sum_{0<k<count} g_k z^k) times 2^shift, the trapezoid
        kernel sum at z = e^{i h ell} given by _units, by Horner's rule on
        the fixed-point nodes of _build_nodes.  The sum it stands for errs
        by at most their fix_err."""
        fix = self.fixbits
        ar, ai = gre[count - 1], gim[count - 1]
        for k in range(count - 2, -1, -1):
            ar, ai = (((ar * zr - ai * zi) >> fix) + gre[k],
                      ((ar * zi + ai * zr) >> fix) + gim[k])
        return ar

    # -- truncation planning ------------------------------------------------

    def _tail_bound(self, sigma, c, bound, n0):
        head = self.header
        t = mp.mpf(sigma) + c - mp.mpf(head.weight) / 2
        pref = mp.power(head.conductor, (mp.mpf(sigma) + c) / 2) * bound
        return pref * divisor_tail(n0, t, head.degree)

    def _log_excess(self, sigma, c, log_bound, log_budget):
        """n -> log _tail_bound(sigma, c, e^log_bound, n) - log_budget, in
        doubles."""
        head = self.header
        t = sigma + c - head.weight / 2
        rest = log_budget - log_bound - (sigma + c) / 2 * math.log(head.conductor)
        return lambda n: log_divisor_tail(n, t, head.degree) - rest

    def _plan(self, sigma):
        """(ladder, log_mass, n0, i) for sigma: the kernel lines, their log
        mass bounds, the truncation point n0 (None when no line clears
        the tail budget within _N0_CAP terms) and the first line i that
        clears it with n0 terms; see (d) in the module docstring.  Call
        at workbits, as the constructor does."""
        cmin = _min_offset(sigma, self.header.m)
        ladder = [cmin + off for off in _OFFSETS]
        log_mass = [self._log_mass(sigma, c) for c in ladder]
        # Lambda(s) adds two one-sided sums; see the module docstring
        log_budget = float(mp.log(self.target / (2 * _TARGET_MARGIN) * 3 / 8))
        n0 = i = None
        for idx, (c, lm) in enumerate(zip(ladder, log_mass)):
            if n0 == 1:
                break
            # each line after the first only below the best n0 so far, and
            # only if it clears the budget there: excess falls with n
            excess = self._log_excess(sigma, c, lm, log_budget - _LOG_SLACK)
            if n0 is not None and excess(n0 - 1) > 0:
                continue
            n = _bisect(excess, _N0_CAP if n0 is None else n0 - 1)
            if excess(n) <= 0:
                n0, i = n, idx
        return ladder, log_mass, n0, i

    def check_reach(self, x, sigmas=None):
        """Raise InsufficientCoefficients unless X = x coefficients cover
        the truncation point of every sigma given (default: all); it
        names the largest count required."""
        need = {sigma: plan[2] for sigma, plan in self._plans.items()
                if sigmas is None or sigma in sigmas}
        short = [sigma for sigma, n0 in need.items() if n0 is None or n0 > x]
        if short:
            n0s = [need[sigma] for sigma in short]
            required = None if None in n0s else max(n0s)
            raise InsufficientCoefficients(
                "coefficient list (X = %d) too short for target %s at s = %s;"
                " roughly %s terms required"
                % (x, mp.nstr(self.target, 6),
                   ", ".join(map(str, short)), required),
                required=required,
            )

    # -- line choice (double precision) ---------------------------------------

    def _choose_lines(self, sigma, ladder, log_mass, ell, base, log_budget):
        """The kernel lines of one_sided(sigma), by predicted work ((e) in
        the module docstring), as the greedy steps [(work, lines)] from the
        argmin over the ladder to the choice, the last; lines is [(i, lo,
        hi, h, a, log_e, K)] in ascending i, line i with step h, strip
        half-width a, log E(a) and K nodes taking the terms lo..hi-1.
        ell[t] and base[t] = log |lambda(n)| - sigma ln n are arrays over
        the nonzero terms in ascending n; log_budget is the log of the
        one-sided budget."""
        m = len(ell)
        ells = ell.tolist()
        log_pref = sigma * float(self.ln_sqrt_n)
        log_skip = log_budget - math.log(32 * m)
        log_quad = log_budget + math.log(3 / 8)
        wins, preds = {}, {}

        def first_win(p, q):
            # the first term where line q > p has the strictly smaller key,
            # m if none (_bisect counts the terms from 1)
            if (p, q) not in wins:
                lp, cp, lq, cq = log_mass[p], ladder[p], log_mass[q], ladder[q]
                wins[p, q] = _bisect(lambda t: lq + cq * ells[t - 1] >= lp + cp * ells[t - 1],
                                     m + 1) - 1
            return wins[p, q]

        def split(lines):
            # (i, lo, hi) of the argmin over lines, by its lower envelope
            stack = []
            for q in lines:
                start = 0
                while stack:
                    start = first_win(stack[-1][0], q)
                    if start > stack[-1][1]:
                        break
                    stack.pop()
                    start = 0
                if start < m:
                    stack.append((q, start))
            ends = [lo for _, lo in stack[1:]] + [m]
            return [(i, lo, hi) for (i, lo), hi in zip(stack, ends)]

        def predict(i, lo, hi, lines):
            # (work, log rounding, (h, a, log_e, K)) of line i on terms lo..hi-1
            if (i, lo, hi, lines) not in preds:
                c = ladder[i]
                lw = base[lo:hi] + c * ell[lo:hi]  # log weights, N^(sigma/2) aside
                top = float(lw.max())
                log_w = top + math.log(float(np.exp(lw - top).sum()))
                h, a, log_e = self._pick_step(sigma, c, ells[hi - 1], ells[lo],
                                              log_pref + log_w - log_quad + math.log(lines))
                # 24 bits of h, rounded down: k h is exact at every node
                mant, ex = math.frexp(h)
                h = math.ldexp(math.floor(mant * 2 ** 24), ex - 24)
                log_thresh = log_skip - log_pref - math.log(h / math.pi) - top
                tails = self._node_tails(sigma, c, h, log_thresh)
                count = len(tails) + 1
                # a term with threshold log_thresh + top - lw needs
                # 2 + #{k <= K - 2: B_k above it} nodes; counted on every
                # stride-th term, as a prediction need not be exact
                stride = 1 + (hi - lo) // 2048
                steps = 2 * (hi - lo) + stride * int(np.searchsorted(
                    -np.array(tails[:-1]), lw[::stride] - top - log_thresh).sum())
                # the rounding part, mostly the nodes' own error and the
                # truncations: a few units of 2^-F per node on the line's mass
                log_round = (log_pref + log_w + log_mass[i] - self.fixbits * _LN2
                             + math.log(16 * self._g_err_units(sigma, c, 0.0) + 4 * count))
                preds[i, lo, hi, lines] = (count * _NODE_STEPS + steps + _LINE_STEPS,
                                           log_round, (h, a, log_e, count))
            return preds[i, lo, hi, lines]

        def cost(lines):
            # (work, log rounding, lines with their predictions) of a subset
            parts = split(lines)
            got = [predict(i, lo, hi, len(parts)) for i, lo, hi in parts]
            top = max(r for _, r, _ in got)
            return (sum(w for w, _, _ in got),
                    top + math.log(sum(math.exp(r - top) for _, r, _ in got)),
                    [part + p for part, (_, _, p) in zip(parts, got)])

        history = [cost(range(len(ladder)))]
        while len(history[-1][2]) > 1:
            trials = []
            for drop, *_ in history[-1][2]:
                try:
                    trials.append(cost([i for i, *_ in history[-1][2] if i != drop]))
                except QuadratureError:
                    pass
            # by work, among those whose rounding keeps within its 1/8
            best = min((t for t in trials if t[1] <= log_budget - 3 * _LN2), default=None)
            if best is None or best[0] >= history[-1][0]:
                break
            history.append(best)
        return [(work, lines) for work, _, lines in history]

    # -- main one-sided sum ---------------------------------------------------

    def one_sided(self, sigma, coefficients):
        """(I(sigma), its error bound) on coefficients[n - 1] = lambda(n).
        Call at workbits, as special_values does: the rounding part
        assumes that precision."""
        conductor = self.header.conductor
        sig = mp.mpf(sigma)
        # Lambda(s) adds two one-sided sums; see the module docstring
        budget = self.target / (2 * _TARGET_MARGIN)
        self.check_reach(len(coefficients), [sigma])
        ladder, log_mass, n0, i = self._plans[sigma]
        tail = self._tail_bound(sigma, ladder[i], mp.exp(log_mass[i]), n0)

        terms = [(n, lam) for n, lam in zip(range(1, n0 + 1), coefficients) if lam]
        ln_n = np.log([n for n, _ in terms])
        lines = self._choose_lines(
            sigma, ladder, log_mass, float(self.ln_sqrt_n) - ln_n,
            np.log(np.abs(np.array([lam for _, lam in terms], dtype=float)))
            - sigma * ln_n, float(mp.log(budget)))[-1][1]
        a4 = int(4 * (sigma + ladder[0]))  # sigma + c_min is a multiple of 1/4
        man, exp, delta_w = self._weights(a4, n0)

        # Each chosen line in turn, in ascending index: its terms' weights
        # |lambda(n)| n^-(sigma + c) ~ |wm| 2^e, its nodes at the predicted
        # step and count, its constant N^(c/2) (h/pi) N^(sigma/2) at F bits
        # (within delta_c of the true one: six operations of at most 2
        # ulp), then its terms, summed exactly in integers at the line's
        # finest exponent minus the nodes' shift: the value, its absolute sum and
        # the skipped mass.  The rounding part bounds the node sums' error
        # (fix_err + node_err per unit weight; node_err also covers the
        # skipped nodes' own error), the weights' (delta_w times the
        # absolute sum) and the constant's (delta_c).
        skip_share = budget / 32 / len(terms)
        slack_w = 1 + 2 * delta_w  # true weight <= computed one * slack_w
        delta_c = mp.ldexp(1, 4 - self.fixbits)
        with mp.workprec(self.fixbits):
            pref = mp.power(conductor, sig / 2)
        node_sum = self._node_sum
        pieces = []
        quad_err = mp.mpf(0)
        rounding = mp.mpf(0)
        skip_err = mp.mpf(0)
        for idx, lo, hi, h, a, log_e, count in lines:
            off = _OFFSETS[idx]
            group = []
            for n, lam in terms[lo:hi]:
                lm, e = _dyadic(lam)
                m = man[n]
                e += exp[n]
                if off:
                    q = n ** off
                    k = q.bit_length()
                    m = (m << k) // q
                    e -= k
                group.append((n, lm * m, e))
            unit = min(e for _, _, e in group)
            w_int = sum(abs(wm) << (e - unit) for _, wm, e in group)
            c = ladder[idx]
            with mp.workprec(self.fixbits):
                n_c = mp.power(conductor, mp.mpf(c) / 2)
            w_sum = n_c * mp.mpf((w_int, unit)) * slack_w
            h = mp.mpf(h)
            quad_err += (pref * w_sum * 2 * mp.exp(log_e)
                         / mp.expm1(2 * mp.pi * a / h))
            gre, gim, suffix, shift, fix_err, node_err = self._build_nodes(
                sigma, c, h, count)
            with mp.workprec(self.fixbits):
                const = n_c * h / mp.pi * pref

            # node cutoff: the first k whose suffix mass times the term's
            # weight and the line constant is at most skip_share
            t_man, t_exp = _dyadic(skip_share / const)
            t_shift = t_exp + shift
            neg_suffix = [-x for x in suffix[1:count]]
            value = abs_sum = skipped = 0
            units = self._units(h, [n for n, _, _ in group])
            for (_, wm, e), (zr, zi) in zip(group, units):
                wa = abs(wm)
                k = t_shift - e
                limit = (t_man << k if k >= 0 else t_man >> -k) // wa
                kc = 1 + bisect_left(neg_suffix, -limit)
                v = wm * node_sum(gre, gim, zr, zi, kc) << (e - unit)
                value += v
                abs_sum += abs(v)
                skipped += wa * suffix[kc] << (e - unit)

            x = unit - shift
            cm, ce = _dyadic(const)
            pieces.append((cm * value, ce + x))
            c_hi = const * (1 + 2 * delta_c)
            rounding += c_hi * slack_w * (mp.mpf((w_int, unit))
                                          * (fix_err + node_err)
                                          + delta_w * mp.mpf((abs_sum, x)))
            rounding += 2 * delta_c * const * mp.mpf((abs(value), x))
            skip_err += c_hi * slack_w * mp.mpf((skipped, x))

        # the lines add exactly in integers, then round once;
        # bound_slack covers the few roundings of the bound's own arithmetic
        low = min(x for _, x in pieces)
        value = mp.mpf((sum(m << (x - low) for m, x in pieces), low))
        bound_slack = 1 + mp.ldexp(1, 6 - self.workbits)
        rounding = (rounding + abs(value) * mp.ldexp(1, -self.workbits)) * bound_slack
        err = tail + quad_err + skip_err * bound_slack + rounding
        return +value, +err


def special_values(data, prec=Precision()):
    """All completed values Lambda(s), s = 1..w, by the two-sided AFE.

    prec is a Precision, or an AfePlan already made for data.header, whose
    plan the sums then run on.  Lambda(s) = I(s) + eps I(w+1-s); the
    functional equation is exact by construction, and when eps = -1 it
    forces Lambda((w+1)/2) = 0, which is returned with error 0 and no
    sum.  So verify_hypothesis exercises the functional equation and the
    central zero only as consistency checks on externally supplied value
    sets.  The check of the coefficient count still covers every sigma,
    as the plan reads no root number.
    """
    plan = prec if isinstance(prec, AfePlan) else AfePlan(data.header, prec)
    if plan.header != data.header:
        raise InputError("the AFE plan is for %s, not for the data's %s"
                         % (plan.header, data.header))
    # every sigma is planned, so a shortfall names the count that covers
    # them all
    plan.check_reach(data.coeff_limit)
    w = data.weight
    # eps = -1 makes Lambda at the centre its own negative: exactly 0
    zero = (w + 1) // 2 if data.root_number == -1 else None
    out = {}
    with mp.workprec(plan.workbits):
        ulp = mp.ldexp(1, -plan.workbits)
        sums = {sigma: plan.one_sided(sigma, data.coefficients)
                for sigma in range(1, w + 1) if sigma != zero}
        for s in range(1, w + 1):
            if s == zero:
                out[s] = (mp.mpf(0), mp.mpf(0))
                continue
            a, ea = sums[s]
            b, eb = sums[w + 1 - s]
            val = a + data.root_number * b
            # the sum's own rounding, and the bound's, rounded up
            out[s] = (val, (ea + eb + abs(val) * ulp) * (1 + 4 * ulp))
    return SpecialValues(
        weight=w,
        values=out,
        bits=plan.prec.mantissa_bits,
        target=plan.prec.target_abs_error,
        label=data.label,
    )
