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
most (1/h) int_{(K-1)h}^oo |g| <= S((K-1)h)/(h decay((K-1)h)).  Node
building stops at the first K where that is below what the line's
heaviest term may skip.  These sizings run in double precision, with an
allowance for its rounding.

Lambda(s) = I(s) + eps I(w+1-s) is budgeted at target/32, so each
one-sided sum gets target/64, split as coefficient tail 3/8, quadrature
3/8 (equal shares per used line) and skipped nodes 1/8 (equal shares per
term): at most 7/8 of target/32 before rounding.  The margin of 32 costs
little, as the node counts grow with log(1/budget) and the term count
with a small power of it (Sym^3 of seven curves at X = 10^4, 64 bits,
target 1e-3: 35% more loggamma calls than spending the whole target),
and the bounds set the coefficient errors of p and so its root
inclusion radii, which the circle certificates compare with fixed
tolerances.  The rounding component, the remaining 1/8, is computed
rather than budgeted, from the operations the term pipeline (c) counts:
per line, its weight sum times the node sum's bound (the truncated
nodes and Horner steps, each under one unit of 2^-F in either part
relative to the largest node; the error of e^{i h ell}, which moves
node k by k times as much; and the nodes' own error at F bits), the
weights' relative error times the line's absolute sum, and the line
constant's relative error; then the roundings of I(sigma) and of
Lambda(s) to the working precision.  It assumes only that each mpmath operation errs by
at most 2 ulp of its result.  The accounting is worst-case interval
style, not rigorous ball arithmetic.

The kernel and its planning are built to be cheap:

  (a) each node costs one complex loggamma at F bits, at z - m' for the
      largest index m' with h_{m'} > 0; every other Gamma(z - nu) follows
      from it by the rising factors (z - m')(z - m' + 1)...(z - nu - 1),
      and log 2, log 2 pi are computed once per plan;
  (b) each used line is built once, at its a-priori step, and a line no
      term uses is never built: the truncation point is planned from the
      Stirling mass bounds alone;
  (c) the terms run in Python integers, with no mpmath number per term.
      ln n comes from an additive sieve over the smallest prime factors
      (one log per prime per plan, F + 32 fractional bits).  As
      sigma + c_min is a multiple of 1/4, n^-(sigma + c_min) is
      completely multiplicative: one exp per prime and one integer
      multiply per n along the same sieve give it as a mantissa of F + 8
      bits and a power of two, and a term on line i divides by the exact
      integer n^off_i.  The angle h ell is exact (h has a 24-bit
      mantissa), e^{i h ell} comes from mpf_cos_sin at F + 8 bits
      truncated to F, and the trapezoid sums Re(sum_k g_k e^{i k h ell})
      run by Horner's rule with F = working bits + 16 fractional bits, on
      nodes scaled by a power of two and converted once per line.  The
      terms are grouped by ladder line once, and one pass over the used
      lines, in ascending index, finishes each line: its step and nodes
      from the group's weight sum, largest weight and n range, its
      constant N^{c/2} (h/pi) N^{sigma/2}, then its terms (the node
      cutoff bisects integer suffix masses) summed exactly with their
      absolute values and skipped mass at the group's finest power of
      two, and its quadrature, rounding and skipped-mass parts.  The
      constant multiplies the line's sum once, and the lines add exactly
      before one rounding;
  (d) the truncation point n0 of each ladder line is planned in double
      precision, by bisecting the log of the divisor-tail majorant
      (numutil.log_divisor_tail); the mpmath majorant then confirms that
      n0 passes and n0 - 1 fails, and steps n0 only where the doubles
      erred, so n0, the line chosen and every bound are those an mpmath
      bisection gives, at one or two mpmath evaluations per line.  The
      lines are searched in ascending index, the first up to 2^40 terms
      and each later one only up to the best n0 so far less one, as it
      must beat that strictly; so the result is the smallest n0 over the
      lines, on its first line, with fewer bisection steps and mpmath
      evaluations on the lines that cannot win.  The plan reads only the
      header (weight, Hodge numbers, conductor) and the Precision, so
      AfePlan makes it before any coefficient is counted.  X is checked
      only when the sums run, where InsufficientCoefficients names the
      largest n0 as required, and the ell error bound counts the prime
      factors of n <= n0, not of n <= X.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import (from_int, from_man_exp, mpf_cos_sin, mpf_exp,
                          mpf_log, to_fixed)

from .errors import InputError, PoleError, InsufficientCoefficients, QuadratureError
from .numutil import (divisor_counts, divisor_tail, log_divisor_tail,
                      smallest_prime_factors)

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

# Mantissa bits of the weights n^-(sigma + c) beyond F.
_WEIGHT_GUARD_BITS = 8

# Ladder of kernel-line offsets above the minimal admissible Re(u).  Large
# offsets only pay off for terms far out in the Dirichlet series; the
# per-term selection below picks the cheapest admissible line.
_OFFSETS = (0, 2, 5, 9, 15, 24, 38, 60, 90, 130, 190, 270, 380, 520, 700, 950, 1250)

# Strip half-widths a / a_max tried when picking the trapezoid step.
_STRIP_FRACTIONS = (0.25, 0.5, 0.75, 0.875, 0.9375, 0.96875)

# Lambda(s) is budgeted at target / _TARGET_MARGIN; see the module docstring.
_TARGET_MARGIN = 32

_MAX_NODES = 25000

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
        w = self.weight
        if w < 3 or w % 2 == 0:
            raise InputError("weight must be odd and >= 3, got %r" % (w,))
        m = (w - 1) // 2
        hodge = tuple(int(h) for h in self.hodge)
        object.__setattr__(self, "hodge", hodge)
        if len(hodge) != m + 1:
            raise InputError(
                "hodge list must have length m+1 = %d, got %d" % (m + 1, len(hodge))
            )
        if any(h < 0 for h in hodge):
            raise InputError("hodge numbers must be nonnegative")
        if not any(hodge):
            raise InputError("all Hodge numbers vanish; degree would be 0")
        if self.degree != 2 * sum(hodge):
            raise InputError(
                "degree %d inconsistent with 2*sum(hodge) = %d"
                % (self.degree, 2 * sum(hodge))
            )
        if self.conductor < 1:
            raise InputError("conductor must be a positive integer")
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


def dirichlet_l(s, data, prec):
    """Partial Dirichlet sum with a divisor-function tail majorant.

    Valid only in the absolute-convergence half plane Re(s) > w/2 + 1.
    Returns (value, tail_bound); raises InsufficientCoefficients when the
    tail bound misses prec.target_abs_error.  The majorant assumes the
    coefficient bound |lambda(n)| <= d_degree(n) n^{w/2} (checked on the
    stored range by verify_hypothesis).
    """
    with mp.workprec(prec.mantissa_bits + _GUARD_BITS):
        sv = mp.mpmathify(s)
        if not mp.re(sv) > mp.mpf(data.weight) / 2 + 1:
            raise InputError(
                "dirichlet_l requires Re(s) > w/2 + 1 = %s" % (data.weight / 2 + 1,)
            )
        x = data.coeff_limit
        value = mp.fsum(
            mp.mpf(lam) * mp.power(n, -sv)
            for n, lam in enumerate(data.coefficients, start=1)
            if lam
        )
        tail = divisor_tail(x, mp.re(sv) - mp.mpf(data.weight) / 2, data.degree)
        if tail > mp.mpf(prec.target_abs_error):
            raise InsufficientCoefficients(
                "tail bound %s exceeds target %s with X = %d"
                % (mp.nstr(tail, 8), mp.nstr(mp.mpf(prec.target_abs_error), 8), x),
                required=None,
            )
        return +value, +tail


class _Rung:
    """One vertical quadrature line Re(u) = c with its trapezoid nodes.

    g[k] = L_inf(sigma + c + i k h) / (c + i k h); only t >= 0 is stored
    since the integrand is conjugate-symmetric.

    For the kernel sums the nodes are also held in fixed point: gre[k] and
    gim[k] are the real and imaginary parts of g_k * 2^(fix_shift),
    truncated to integers (g_0 halved, as the trapezoid rule weights it),
    with fix_shift chosen so the largest |g_k| sits just below 2^F.
    suffix[k] is an integer at least 2^(fix_shift) sum_{j >= k} |g_j|, the
    nodes beyond the last one included, so terms can certify how much
    kernel mass a truncated node sum skips.  fix_err bounds the rounding
    of one such sum (see AfePlan._node_sum), and node_err bounds
    sum_k |g_k - g(k h)|, what the nodes themselves err by.
    """

    __slots__ = ("c", "h", "g", "suffix", "gre", "gim", "fix_shift", "fix_err",
                 "node_err")

    def __init__(self, c, h):
        self.c = c
        self.h = h
        self.g = None
        self.suffix = None
        self.gre = None
        self.gim = None
        self.fix_shift = None
        self.fix_err = None
        self.node_err = None


def log_abs_gamma_bound(x, t):
    """Upper bound for log|Gamma(x + i t)|, x > 0, in double precision.

    Stirling's formula with Binet's remainder bound |mu(z)| <= 1/(12 Re z),
    plus an allowance far above the rounding of the doubles."""
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
        more truncation; n has fewer than bitlen(n0) prime factors."""
        ln = self._ln_table(n0)
        spf = self._spf
        bits = self.weightbits
        lnbits = self.lnbits
        man = [0, 1 << (bits - 1)]
        exp = [0, 1 - bits]
        for n in range(2, n0 + 1):
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

    def _select_lines(self, ladder, log_mass, n0):
        """Ladder index for each n = 1..n0: the argmin of the kernel-mass
        bound times (sqrt(N)/n)^c, log_mass[i] + ladder[i] (ln sqrt(N) -
        ln n), in doubles, first index on ties."""
        x = float(self.ln_sqrt_n) - np.array([math.log(n) for n in range(1, n0 + 1)])
        best = log_mass[0] + ladder[0] * x
        idx = np.zeros(n0, dtype=np.int64)
        for i in range(1, len(ladder)):
            key = log_mass[i] + ladder[i] * x
            better = key < best
            best[better] = key[better]
            idx[better] = i
        return idx.tolist()

    # -- a-priori bounds on the kernel (double precision) ---------------------

    def _g_bound(self, sigma, c, t):
        """(log S(t), decay(t)): S(t) >= |g(t)| on the line Re u = c by
        Stirling, and decay(t) = sum h_nu atan(t / x_nu) <= -(log S)'(t')
        for every t' >= t.  Needs c > 0 and sigma + c - top > 0."""
        t = abs(t)
        log_s = -0.5 * math.log(c * c + t * t)
        decay = 0.0
        for nu, h in self._gammas:
            x = sigma + c - nu
            log_s += h * (_LN2 - x * _LN2PI + log_abs_gamma_bound(x, t))
            decay += h * math.atan2(t, x)
        return log_s, decay

    def _log_mass(self, sigma, c):
        """log of an upper bound for (1/pi) int_0^oo |g(t)| dt on the line
        Re u = c: a left Riemann sum of the decreasing S, closed by
        int_T^oo S <= S(T) / decay(T)."""
        s0, _ = self._g_bound(sigma, c, 0.0)
        # about half the width of the Gaussian core exp(-t^2 sum h/(2 x))
        step = 0.5 / math.sqrt(sum(h / (sigma + c - nu) for nu, h in self._gammas))
        acc = 0.0
        k = 0
        while True:
            log_s, decay = self._g_bound(sigma, c, k * step)
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
        """L_inf(sigma + c + i t) / (c + i t) with one loggamma call.

        Re(z - top) >= 1.75 by _min_offset, so the rising factors never
        reach a Gamma pole."""
        z = mp.mpc(mp.mpf(sigma) + c, t)
        big_h = self._h_total
        g = mp.exp(big_h * (self._ln2 + mp.loggamma(z - self._top))
                   - self._ln2pi * (big_h * z - self._h_moment))
        for j, e in self._rising:
            g *= (z - j) ** e
        return g / mp.mpc(c, t)

    def _g_rel_err(self, sigma, c, t):
        """Relative error bound of _g_value(sigma, c, t) at F bits, the
        precision the nodes are built at.

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
        mag = (big_h * (math.hypot(x - 0.5, t) * log_w + w + 3)
               + 2 * (big_h * math.hypot(sigma + c, t) + self._h_moment)
               + sum(e for _, e in self._rising) + 2)
        return mp.ldexp(mp.mpf(mag), 4 - self.fixbits)

    def _build_nodes(self, sigma, rung, log_thresh):
        """Nodes g_0..g_{K-1} at the rung's step, K the first count whose
        dropped nodes weigh at most e^log_thresh.  |g| decreases on
        t >= 0, so sum_{k >= K} |g_k| <= (1/h) int_{(K-1)h}^oo |g|
        <= S((K-1)h) / (h decay((K-1)h))."""
        h = rung.h
        hf = float(h)
        g = []
        mags = []
        k = 0
        while True:
            with mp.workprec(self.fixbits):
                gk = self._g_value(sigma, rung.c, k * h)
                mags.append(abs(gk))
            g.append(gk)
            if k:
                log_s, decay = self._g_bound(sigma, rung.c, k * hf)
                log_beyond = log_s - math.log(hf * decay)
                if log_beyond <= log_thresh:
                    break
            k += 1
            if k >= _MAX_NODES:
                raise QuadratureError(
                    "kernel node count reached %d on line c=%s"
                    % (_MAX_NODES, mp.nstr(rung.c, 6))
                )
        rung.g = g
        rung.node_err = mp.fsum(self._g_rel_err(sigma, rung.c, k * hf) * mk
                                for k, mk in enumerate(mags))
        self._fix_nodes(rung, mags, mp.exp(log_beyond))

    def _fix_nodes(self, rung, mags, beyond):
        """Fixed-point copy of the rung's nodes, their integer suffix
        masses (beyond: the mass past the last node) and the rounding
        bound of one node sum."""
        fix = self.fixbits
        _, _, exp, bc = max(mags)._mpf_
        mag_exp = exp + bc  # every |g_k| < 2^mag_exp
        shift = fix - mag_exp
        parts = [gk._mpc_ for gk in rung.g]
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
        rung.suffix = suffix[::-1]
        # the trapezoid rule weights g_0 by 1/2
        gre[0] = to_fixed(parts[0][0], shift - 1)
        gim[0] = to_fixed(parts[0][1], shift - 1)
        rung.gre, rung.gim = gre, gim
        rung.fix_shift = shift
        # Each truncation (g_k, every Horner step) is below sqrt(2) units
        # of 2^-shift; |z - zhat| < _z_units(h) units of 2^-fix moves node
        # k by k times that.  (1 + 2^(1-fix))^k < 1.01 for k <= _MAX_NODES.
        moment = mp.fsum(k * mk for k, mk in enumerate(mags))
        rung.fix_err = (3 * len(mags) * mp.mpf(2) ** mag_exp
                        + mp.mpf(1.01 * self._z_units(rung.h)) * moment) \
            * mp.mpf(2) ** (-fix)

    def _z_units(self, h):
        """Bound, in units of 2^-F, on |e^{i h ell} - z| for the z that
        _unit returns: cos and sin each within 2^-(F+8) at F + 8 bits and
        then truncated to F bits, plus h times the error of the ell held
        in the ln table."""
        return 1.4198 + float(h) * self._ell_err * 2.0 ** -_LN_GUARD_BITS

    def _unit(self, h, ell):
        """z = e^{i h ell} as fixed-point integers (re, im) with F
        fractional bits, for ell with lnbits fractional bits.  h has a
        24-bit mantissa, so the angle h ell is exact."""
        fix = self.fixbits
        _, hm, he, _ = h._mpf_
        c, s = mpf_cos_sin(from_man_exp(hm * ell, he - self.lnbits), fix + 8)
        return to_fixed(c, fix), to_fixed(s, fix)

    def _node_sum(self, rung, zr, zi, count):
        """Re(g_0/2 + sum_{0<k<count} g_k z^k) times 2^(fix_shift), the
        trapezoid kernel sum at z = e^{i h ell} given by _unit, by Horner's
        rule in fixed-point integers.  The sum it stands for errs by at
        most rung.fix_err."""
        fix = self.fixbits
        gre, gim = rung.gre, rung.gim
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

    def _search_n0(self, sigma, c, log_bound, budget, cap):
        """Smallest n0 <= cap with _tail_bound(sigma, c, e^log_bound, n0)
        <= budget, or None.

        The majorant decreases in n0.  Bisecting its closed-form log in
        double precision places n0 (at cap when even cap fails there); the
        mpmath bound then confirms it (n0 passes, n0 - 1 fails) and, where
        the doubles erred near the crossing, steps n0 one at a time until
        it does."""
        head = self.header
        t = sigma + c - head.weight / 2
        log_budget = (float(mp.log(budget)) - log_bound
                      - (sigma + c) / 2 * math.log(head.conductor))
        lo, hi = 1, cap
        while lo < hi:
            mid = (lo + hi) // 2
            if log_divisor_tail(mid, t, head.degree) > log_budget:
                lo = mid + 1
            else:
                hi = mid
        n0 = hi
        bound = mp.exp(log_bound)
        while self._tail_bound(sigma, c, bound, n0) > budget:
            if n0 == cap:
                return None
            n0 += 1
        while n0 > 1 and self._tail_bound(sigma, c, bound, n0 - 1) <= budget:
            n0 -= 1
        return n0

    def _plan(self, sigma):
        """(ladder, log_mass, n0, i) for sigma: the kernel lines, their log
        mass bounds, the truncation point n0 (None when no line reaches
        the tail budget within _N0_CAP terms) and the first line i that
        reaches it with n0 terms; see (d) in the module docstring.  Call
        at workbits, as the constructor does."""
        cmin = _min_offset(sigma, self.header.m)
        ladder = [cmin + off for off in _OFFSETS]
        log_mass = [self._log_mass(sigma, c) for c in ladder]
        # Lambda(s) adds two one-sided sums; see the module docstring
        tail_budget = self.target / (2 * _TARGET_MARGIN) * 3 / 8
        n0 = i = None
        for idx, (c, lm) in enumerate(zip(ladder, log_mass)):
            cap = _N0_CAP if n0 is None else n0 - 1
            if cap < 1:
                break
            found = self._search_n0(sigma, c, lm, tail_budget, cap)
            if found is not None:
                n0, i = found, idx
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

    # -- main one-sided sum ---------------------------------------------------

    def one_sided(self, sigma, coefficients):
        """(I(sigma), its error bound) on coefficients[n - 1] = lambda(n).
        Call at workbits, as special_values does: the rounding part
        assumes that precision."""
        conductor = self.header.conductor
        sig = mp.mpf(sigma)
        # Lambda(s) adds two one-sided sums; see the module docstring
        budget = self.target / (2 * _TARGET_MARGIN)
        quad_budget = budget * 3 / 8
        skip_budget = budget / 8
        self.check_reach(len(coefficients), [sigma])
        ladder, log_mass, n0, i = self._plans[sigma]
        cmin = ladder[0]
        lnsq_f = float(self.ln_sqrt_n)
        tail = self._tail_bound(sigma, ladder[i], mp.exp(log_mass[i]), n0)

        # each term's line and weight |lambda(n)| n^-(sigma + c) ~ |wm| 2^e
        ln = self._ln_table(n0)
        a4 = int(4 * (sigma + cmin))  # sigma + c_min is a multiple of 1/4
        man, exp, delta_w = self._weights(a4, n0)
        line_of = self._select_lines(ladder, log_mass, n0)
        groups = {}  # ladder index -> [(n, wm, e)], ascending n
        for n, lam in zip(range(1, n0 + 1), coefficients):
            if not lam:
                continue
            lm, e = _dyadic(lam)
            idx = line_of[n - 1]
            m = man[n]
            e += exp[n]
            off = _OFFSETS[idx]
            if off:
                q = n ** off
                k = q.bit_length()
                m = (m << k) // q
                e -= k
            groups.setdefault(idx, []).append((n, lm * m, e))

        # Each used line in turn, in ascending index: its step from the
        # strip bound, its nodes, its constant N^(c/2) (h/pi) N^(sigma/2)
        # at F bits (within delta_c of the true one: six operations of at
        # most 2 ulp), then its terms, summed exactly in integers at the
        # line's finest exponent minus fix_shift: the value, its absolute
        # sum and the skipped mass.  The rounding part bounds the node
        # sums' error (fix_err + node_err per unit weight; node_err also
        # covers the skipped nodes' own error), the weights' (delta_w times
        # the absolute sum) and the constant's (delta_c).
        skip_share = skip_budget / sum(len(g) for g in groups.values())
        quad_share = quad_budget / len(groups)
        slack_w = 1 + 2 * delta_w  # true weight <= computed one * slack_w
        delta_c = mp.ldexp(1, 4 - self.fixbits)
        with mp.workprec(self.fixbits):
            pref = mp.power(conductor, sig / 2)
        lnsq = self._ln_sqrt_fix
        unit_z, node_sum = self._unit, self._node_sum
        pieces = []
        quad_err = mp.mpf(0)
        rounding = mp.mpf(0)
        skip_err = mp.mpf(0)
        for idx in sorted(groups):
            terms = groups[idx]
            unit = min(e for _, _, e in terms)
            scaled = [abs(wm) << (e - unit) for _, wm, e in terms]
            w_int = sum(scaled)
            c = ladder[idx]
            with mp.workprec(self.fixbits):
                n_c = mp.power(conductor, mp.mpf(c) / 2)
            w_sum = n_c * mp.mpf((w_int, unit)) * slack_w
            w_max = n_c * mp.mpf((max(scaled), unit))
            log_scale = float(mp.log(pref * w_sum / quad_share))
            h, a, log_e = self._pick_step(sigma, c,
                                          lnsq_f - math.log(terms[-1][0]),
                                          lnsq_f - math.log(terms[0][0]),
                                          log_scale)
            # 24 bits of h, rounded down: k h is exact at every node
            m, e = math.frexp(h)
            r = _Rung(c, mp.ldexp(math.floor(m * 2 ** 24), e - 24))
            quad_err += (pref * w_sum * 2 * mp.exp(log_e)
                         / mp.expm1(2 * mp.pi * a / r.h))
            h_pi = r.h / mp.pi
            log_thresh = mp.log(skip_share / (pref * h_pi * w_max))
            self._build_nodes(sigma, r, float(log_thresh))
            with mp.workprec(self.fixbits):
                const = n_c * r.h / mp.pi * pref

            # node cutoff: the first k whose suffix mass times the term's
            # weight and the line constant is at most skip_share
            t_man, t_exp = _dyadic(skip_share / const)
            t_shift = t_exp + r.fix_shift
            suffix = r.suffix
            neg_suffix = [-x for x in suffix[1:len(r.g)]]
            value = abs_sum = skipped = 0
            for n, wm, e in terms:
                wa = abs(wm)
                k = t_shift - e
                limit = (t_man << k if k >= 0 else t_man >> -k) // wa
                kc = 1 + bisect_left(neg_suffix, -limit)
                zr, zi = unit_z(r.h, lnsq - ln[n])
                v = wm * node_sum(r, zr, zi, kc) << (e - unit)
                value += v
                abs_sum += abs(v)
                skipped += wa * suffix[kc] << (e - unit)

            x = unit - r.fix_shift
            cm, ce = _dyadic(const)
            pieces.append((cm * value, ce + x))
            c_hi = const * (1 + 2 * delta_c)
            rounding += c_hi * slack_w * (mp.mpf((w_int, unit))
                                          * (r.fix_err + r.node_err)
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
    functional equation is exact by construction, so verify_hypothesis
    exercises it only as a consistency check on externally supplied value
    sets.
    """
    plan = prec if isinstance(prec, AfePlan) else AfePlan(data.header, prec)
    if plan.header != data.header:
        raise InputError("the AFE plan is for %s, not for the data's %s"
                         % (plan.header, data.header))
    # every sigma is planned, so a shortfall names the count that covers
    # them all
    plan.check_reach(data.coeff_limit)
    w = data.weight
    out = {}
    with mp.workprec(plan.workbits):
        ulp = mp.ldexp(1, -plan.workbits)
        sums = [plan.one_sided(sigma, data.coefficients)
                for sigma in range(1, w + 1)]
        for s in range(1, w + 1):
            a, ea = sums[s - 1]
            b, eb = sums[w - s]
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


def verify_hypothesis(data, vals):
    """Check the axioms the rest of the pipeline relies on; returns a list
    of violation strings (empty iff everything passes within bounds).

    Checked: the coefficient bound |lambda(n)| <= d_degree(n) n^{w/2}
    (degree-d divisor function) on the stored range; functional-equation
    symmetry of vals; central nonnegativity; the monotonicity chain
    Lambda(m+1) <= Lambda(m+2) <= ... ; and for eps = -1 the strengthened
    chain Lambda(m+1+k)/k nondecreasing (central value zero).
    """
    out = []
    w = data.weight
    m = data.m
    eps = data.root_number
    dk = divisor_counts(data.coeff_limit, data.degree)
    for n in range(1, data.coeff_limit + 1):
        lam = data.coefficients[n - 1]
        if isinstance(lam, int):
            if lam * lam > int(dk[n]) ** 2 * n ** w:
                out.append(
                    "grc: n=%d |lambda|=%d bound=%s"
                    % (n, abs(lam), mp.nstr(mp.mpf(int(dk[n])) * mp.mpf(n) ** (mp.mpf(w) / 2), 8))
                )
        else:
            bound = mp.mpf(int(dk[n])) * mp.mpf(n) ** (mp.mpf(w) / 2)
            if abs(mp.mpf(lam)) > bound * (1 + mp.mpf("1e-12")):
                out.append(
                    "grc: n=%d |lambda|=%s bound=%s"
                    % (n, mp.nstr(abs(mp.mpf(lam)), 8), mp.nstr(bound, 8))
                )

    def v(s):
        return mp.mpf(vals.value(s))

    def e(s):
        return mp.mpf(vals.error(s))

    for s in range(1, w + 1):
        t = w + 1 - s
        if abs(v(s) - eps * v(t)) > e(s) + e(t) + mp.mpf("1e-30") * abs(v(s)):
            out.append(
                "functional-equation: s=%d |Lambda(s) - eps Lambda(w+1-s)| = %s"
                % (s, mp.nstr(abs(v(s) - eps * v(t)), 8))
            )
            break

    c = m + 1
    if v(c) < -e(c):
        out.append("central-sign: Lambda(%d) = %s < 0" % (c, mp.nstr(v(c), 8)))
    if eps == -1 and abs(v(c)) > e(c) + mp.mpf("1e-28") * (1 + abs(v(w))):
        out.append(
            "central-zero: eps=-1 but Lambda(%d) = %s != 0" % (c, mp.nstr(v(c), 8))
        )

    for s in range(m + 1, w):
        if v(s) > v(s + 1) + e(s) + e(s + 1):
            out.append(
                "monotonicity: Lambda(%d) = %s > Lambda(%d) = %s"
                % (s, mp.nstr(v(s), 8), s + 1, mp.nstr(v(s + 1), 8))
            )

    if eps == -1:
        # strengthened chain: 0 <= Lambda(m+2) <= Lambda(m+3)/2 <= Lambda(m+4)/3 ...
        for k in range(1, m):
            s, t = m + 1 + k, m + 2 + k
            lhs = v(s) / k
            rhs = v(t) / (k + 1)
            if lhs > rhs + e(s) / k + e(t) / (k + 1):
                out.append(
                    "strengthened-chain: Lambda(%d)/%d = %s > Lambda(%d)/%d = %s"
                    % (s, k, mp.nstr(lhs, 8), t, k + 1, mp.nstr(rhs, 8))
                )
    return out
