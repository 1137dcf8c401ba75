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
rather than budgeted: it holds a working-precision slack plus an
explicit bound on the fixed-point kernel sums (the truncated nodes and
Horner steps, each under one unit of 2^-F in either part relative to the
largest node, and the quantised e^{i h ell}, whose error moves node k by
k times as much).  The accounting is worst-case interval style, not
rigorous ball arithmetic.

The kernel is built to be cheap:

  (a) each node costs one complex loggamma, at z - m' for the largest
      index m' with h_{m'} > 0; every other Gamma(z - nu) follows from it
      by the rising factors (z - m')(z - m' + 1)...(z - nu - 1), and
      log 2, log 2 pi are computed once per engine;
  (b) each used line is built once, at its a-priori step, and a line no
      term uses is never built: the truncation point is planned from the
      Stirling mass bounds alone;
  (c) the trapezoid sums Re(sum_k g_k e^{i k h ell}) run by Horner's rule
      in Python integers with F = working bits + 16 fractional bits; the
      nodes of each list are scaled by a power of two and converted once.
"""

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import to_fixed

from .errors import InputError, PoleError, InsufficientCoefficients, QuadratureError
from .numutil import divisor_counts, divisor_tail

_LN2 = math.log(2)
_LN2PI = math.log(2 * math.pi)

# Extra working bits beyond the requested mantissa, absorbing accumulated
# rounding across the long kernel sums.
_GUARD_BITS = 32

# Fractional bits F = working bits + this guard of the fixed-point kernel
# sums; their rounding bound scales with 2^-F.
_FIX_GUARD_BITS = 16

# Ladder of kernel-line offsets above the minimal admissible Re(u).  Large
# offsets only pay off for terms far out in the Dirichlet series; the
# per-term selection below picks the cheapest admissible line.
_OFFSETS = (0, 2, 5, 9, 15, 24, 38, 60, 90, 130, 190, 270, 380, 520, 700, 950, 1250)

# Strip half-widths a / a_max tried when picking the trapezoid step.
_STRIP_FRACTIONS = (0.25, 0.5, 0.75, 0.875, 0.9375, 0.96875)

# Lambda(s) is budgeted at target / _TARGET_MARGIN; see the module docstring.
_TARGET_MARGIN = 32

_MAX_NODES = 25000
_ZETA_RATIO_BITS = 128  # working precision of zeta_ratio_bound


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
        if not mp.mpf(self.target_abs_error) > 0:
            raise InputError("target_abs_error must be > 0")


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


@dataclass(frozen=True)
class SpecialValues:
    """Completed values Lambda(s) for integer s = 1..w with error bounds.

    values maps s to (value, error_bound); bits/target record the request
    they were computed under (used for cache keying and report headers).
    """

    weight: int
    values: dict
    bits: int = 192
    target: float = 1e-25
    label: str = ""

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
    since the integrand is conjugate-symmetric.  suffix[k] bounds
    sum_{j >= k} |g_j|, the nodes beyond the last one included, so terms
    can certify how much kernel mass a truncated node sum skips.

    For the kernel sums the nodes are also held in fixed point: gre[k] and
    gim[k] are the real and imaginary parts of g_k * 2^(fix_shift),
    truncated to integers (g_0 halved, as the trapezoid rule weights it),
    with fix_shift chosen so the largest |g_k| sits just below 2^F.
    fix_err bounds the rounding of one such sum (see _AfeEngine._node_sum).
    """

    __slots__ = ("c", "h", "g", "suffix", "gre", "gim", "fix_shift", "fix_err")

    def __init__(self, c, h):
        self.c = c
        self.h = h
        self.g = None
        self.suffix = None
        self.gre = None
        self.gim = None
        self.fix_shift = None
        self.fix_err = None


def log_abs_gamma_bound(x, t):
    """Upper bound for log|Gamma(x + i t)|, x > 0, in double precision.

    Stirling's formula with Binet's remainder bound |mu(z)| <= 1/(12 Re z),
    plus an allowance far above the rounding of the doubles."""
    t = abs(t)
    power = (x - 0.5) * 0.5 * math.log(x * x + t * t)
    phase = t * math.atan2(t, x)
    return (power - phase - x + 0.5 * _LN2PI + 1 / (12 * x)
            + 1e-12 * (abs(power) + phase + x + 1))


def _softplus(r):
    """log(1 + e^r) without overflow."""
    return max(r, 0.0) + math.log1p(math.exp(-abs(r)))


class _AfeEngine:
    """Shared state for the one-sided sums I(sigma) of a single dataset."""

    def __init__(self, data, prec):
        self.data = data
        self.prec = prec
        self.bits = int(prec.mantissa_bits)
        self.workbits = self.bits + _GUARD_BITS
        self.fixbits = self.workbits + _FIX_GUARD_BITS
        self.target = mp.mpf(prec.target_abs_error)
        with mp.workprec(self.workbits):
            self.ln_sqrt_n = mp.log(data.conductor) / 2
            self._ln2 = mp.log(2)
            self._ln2pi = mp.log(2 * mp.pi)
        # L_inf(z) = 2^H (2 pi)^{-(H z - S)} Gamma(z - top)^H
        #            * prod_{j <= top} (z - j)^{e_j},
        # from Gamma(z - nu) = Gamma(z - top) (z - top) ... (z - nu - 1):
        # H = sum h_nu, S = sum nu h_nu, e_j = sum_{nu < j} h_nu.
        hodge = data.hodge
        self._gammas = [(nu, h) for nu, h in enumerate(hodge) if h]
        self._top = self._gammas[-1][0]
        self._h_total = sum(hodge)
        self._h_moment = sum(nu * h for nu, h in enumerate(hodge))
        rising = ((j, sum(hodge[:j])) for j in range(1, self._top + 1))
        self._rising = [(j, e) for j, e in rising if e]
        self._ln_cache = {1: mp.mpf(0)}
        self._sums = {}

    def _ln(self, n):
        v = self._ln_cache.get(n)
        if v is None:
            v = mp.log(n)
            self._ln_cache[n] = v
        return v

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
            gk = self._g_value(sigma, rung.c, k * h)
            g.append(gk)
            mags.append(abs(gk))
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
        suffix = [mp.mpf(0)] * (len(g) + 1)
        suffix[len(g)] = mp.exp(log_beyond)
        for i in range(len(g) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + mags[i]
        rung.suffix = suffix
        self._fix_nodes(rung, mags)

    def _fix_nodes(self, rung, mags):
        """Fixed-point copy of the rung's nodes and its rounding bound."""
        fix = self.fixbits
        _, _, exp, bc = max(mags)._mpf_
        mag_exp = exp + bc  # every |g_k| < 2^mag_exp
        shift = fix - mag_exp
        parts = [gk._mpc_ for gk in rung.g]
        rung.gre = [to_fixed(re, shift) for re, _ in parts]
        rung.gim = [to_fixed(im, shift) for _, im in parts]
        # the trapezoid rule weights g_0 by 1/2
        rung.gre[0] = to_fixed(parts[0][0], shift - 1)
        rung.gim[0] = to_fixed(parts[0][1], shift - 1)
        rung.fix_shift = shift
        # Each truncation (g_k, every Horner step) is below sqrt(2) units
        # of 2^-shift; |z - zhat| < 1.5 * 2^-fix moves node k by k times
        # that.  (1 + 2^(1-fix))^k < 1.01 for k <= _MAX_NODES.
        moment = mp.fsum(k * mk for k, mk in enumerate(mags))
        rung.fix_err = (3 * len(mags) * mp.mpf(2) ** mag_exp + 2 * moment) \
            * mp.mpf(2) ** (-fix)

    def _node_sum(self, rung, ell, count):
        """Re(g_0/2 + sum_{0<k<count} g_k e^{i k h ell}), the trapezoid
        kernel sum, by Horner's rule in fixed-point integers.  Its error
        is at most rung.fix_err before the result is rounded to the
        ambient precision."""
        fix = self.fixbits
        with mp.workprec(fix + 8):
            z_re, z_im = mp.expj(rung.h * ell)._mpc_
        zr = to_fixed(z_re, fix)
        zi = to_fixed(z_im, fix)
        gre, gim = rung.gre, rung.gim
        ar, ai = gre[count - 1], gim[count - 1]
        for k in range(count - 2, -1, -1):
            ar, ai = (((ar * zr - ai * zi) >> fix) + gre[k],
                      ((ar * zi + ai * zr) >> fix) + gim[k])
        return mp.mpf((ar, -rung.fix_shift))

    # -- truncation planning ------------------------------------------------

    def _tail_bound(self, sigma, c, bound, n0):
        t = mp.mpf(sigma) + c - mp.mpf(self.data.weight) / 2
        pref = mp.power(self.data.conductor, (mp.mpf(sigma) + c) / 2) * bound
        return pref * divisor_tail(n0, t, self.data.degree)

    def _search_n0(self, sigma, c, bound, budget, cap):
        """Smallest n0 <= cap with the coefficient-tail majorant below
        budget, or None."""
        if self._tail_bound(sigma, c, bound, cap) > budget:
            return None
        lo, hi = 1, 1
        while self._tail_bound(sigma, c, bound, hi) > budget:
            lo, hi = hi, min(cap, hi * 2)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._tail_bound(sigma, c, bound, mid) > budget:
                lo = mid + 1
            else:
                hi = mid
        return hi

    # -- main one-sided sum ---------------------------------------------------

    def one_sided(self, sigma):
        if sigma in self._sums:
            return self._sums[sigma]
        with mp.workprec(self.workbits):
            result = self._one_sided_impl(sigma)
        self._sums[sigma] = result
        return result

    def _one_sided_impl(self, sigma):
        data = self.data
        sig = mp.mpf(sigma)
        # Lambda(s) adds two one-sided sums; see the module docstring
        budget = self.target / (2 * _TARGET_MARGIN)
        tail_budget = budget * 3 / 8
        quad_budget = budget * 3 / 8
        skip_budget = budget / 8
        cmin = _min_offset(sigma, data.m)
        ladder = [cmin + off for off in _OFFSETS]
        log_mass = [self._log_mass(sigma, c) for c in ladder]
        lnsq_f = float(self.ln_sqrt_n)

        # truncation point: the line whose kernel-mass bound reaches the
        # tail budget with the fewest terms
        cap = data.coeff_limit
        best = None
        for c, lm in zip(ladder, log_mass):
            n0 = self._search_n0(sigma, c, mp.exp(lm), tail_budget, cap)
            if n0 is not None and (best is None or n0 < best[0]):
                best = (n0, c, lm)
        if best is None:
            need = None
            for c, lm in zip(ladder, log_mass):
                n_req = self._search_n0(sigma, c, mp.exp(lm), tail_budget, 1 << 40)
                if n_req is not None and (need is None or n_req < need):
                    need = n_req
            raise InsufficientCoefficients(
                "coefficient list (X = %d) too short for target %s at s = %d;"
                " roughly %s terms required"
                % (cap, mp.nstr(self.target, 6), sigma, need),
                required=need,
            )
        n0, tail_c, tail_lm = best
        tail = self._tail_bound(sigma, tail_c, mp.exp(tail_lm), n0)

        # per-term line selection (float argmin of the kernel-mass bound
        # times (sqrt(N)/n)^c over the ladder)
        terms = []
        lines = {}  # idx -> [weight sum, largest weight, first n, last n]
        for n in range(1, n0 + 1):
            lam = data.coefficients[n - 1]
            if not lam:
                continue
            lnn_f = math.log(n)
            idx = min(range(len(ladder)),
                      key=lambda i: log_mass[i] + ladder[i] * (lnsq_f - lnn_f))
            lam = mp.mpf(lam)
            lnn = self._ln(n)
            ell = self.ln_sqrt_n - lnn
            weight = mp.exp(-sig * lnn + ladder[idx] * ell)
            w_abs = abs(lam) * weight
            terms.append((idx, lam, ell, weight, w_abs))
            line = lines.setdefault(idx, [0, 0, n, n])
            line[0] += w_abs
            line[1] = max(line[1], w_abs)
            line[3] = n

        # each used line: step from the strip bound, nodes built once
        pref = mp.power(data.conductor, sig / 2)
        skip_share = skip_budget / max(1, len(terms))
        quad_share = quad_budget / max(1, len(lines))
        rungs = {}
        h_pi = {}
        quad_err = mp.mpf(0)
        for idx in sorted(lines):
            w_sum, w_max, n_first, n_last = lines[idx]
            log_scale = float(mp.log(pref * w_sum / quad_share))
            h, a, log_e = self._pick_step(sigma, ladder[idx],
                                          lnsq_f - math.log(n_last),
                                          lnsq_f - math.log(n_first), log_scale)
            # 24 bits of h, rounded down: k h is exact at every node
            m, e = math.frexp(h)
            r = _Rung(ladder[idx], mp.ldexp(math.floor(m * 2 ** 24), e - 24))
            h_pi[idx] = r.h / mp.pi
            quad_err += (pref * w_sum * 2 * mp.exp(log_e)
                         / mp.expm1(2 * mp.pi * a / r.h))
            log_thresh = mp.log(skip_share / (pref * h_pi[idx] * w_max))
            self._build_nodes(sigma, r, float(log_thresh))
            rungs[idx] = r

        # accumulation (ascending n: deterministic summation order)
        total = mp.mpf(0)
        abs_total = mp.mpf(0)
        skip_err = mp.mpf(0)
        for idx, lam, ell, weight, w_abs in terms:
            r = rungs[idx]
            wt_pref = w_abs * h_pi[idx] * pref
            # certified node cutoff: drop trailing nodes whose total mass
            # cannot move this term by more than its skip share
            lo, hi = 1, len(r.g)
            while lo < hi:
                mid = (lo + hi) // 2
                if wt_pref * r.suffix[mid] <= skip_share:
                    hi = mid
                else:
                    lo = mid + 1
            kc = lo
            skip_err += wt_pref * r.suffix[kc]
            term = lam * weight * h_pi[idx] * self._node_sum(r, ell, kc)
            total += term
            abs_total += abs(term)

        value = pref * total
        # working-precision slack, plus the fixed-point kernel sums' bound
        rounding = (pref * abs_total + abs(value)) * mp.mpf(2) ** (-(self.workbits - 16))
        rounding += pref * mp.fsum(
            h_pi[idx] * rungs[idx].fix_err * lines[idx][0] for idx in rungs
        )
        err = tail + quad_err + skip_err + rounding
        return +value, +err


def special_values(data, prec=Precision()):
    """All completed values Lambda(s), s = 1..w, by the two-sided AFE.

    Lambda(s) = I(s) + eps I(w+1-s); the functional equation is exact by
    construction, so verify_hypothesis exercises it only as a consistency
    check on externally supplied value sets.
    """
    engine = _AfeEngine(data, prec)
    w = data.weight
    out = {}
    with mp.workprec(engine.workbits):
        for s in range(1, w + 1):
            a, ea = engine.one_sided(s)
            b, eb = engine.one_sided(w + 1 - s)
            val = a + data.root_number * b
            out[s] = (+val, +(ea + eb))
    return SpecialValues(
        weight=w,
        values=out,
        bits=prec.mantissa_bits,
        target=prec.target_abs_error,
        label=data.label,
    )


def zeta_ratio_bound(a, b, d):
    """(zeta(1+a)/zeta(1+b))^d, the coefficient-sum bound for ratios of
    L-values L(m+3/2+a)/L(m+3/2+b); requires 0 < a < b."""
    with mp.workprec(_ZETA_RATIO_BITS):
        a = mp.mpf(a)
        b = mp.mpf(b)
        if not (0 < a < b):
            raise InputError("zeta_ratio_bound requires 0 < a < b")
        return +((mp.zeta(1 + a) / mp.zeta(1 + b)) ** d)


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
        if s in vals.values and t in vals.values:
            if abs(v(s) - eps * v(t)) > e(s) + e(t) + mp.mpf("1e-30") * abs(v(s)):
                out.append(
                    "functional-equation: s=%d |Lambda(s) - eps Lambda(w+1-s)| = %s"
                    % (s, mp.nstr(abs(v(s) - eps * v(t)), 8))
                )
                break

    c = m + 1
    if c in vals.values:
        if v(c) < -e(c):
            out.append("central-sign: Lambda(%d) = %s < 0" % (c, mp.nstr(v(c), 8)))
        if eps == -1 and abs(v(c)) > e(c) + mp.mpf("1e-28") * (1 + abs(v(w))):
            out.append(
                "central-zero: eps=-1 but Lambda(%d) = %s != 0" % (c, mp.nstr(v(c), 8))
            )

    for s in range(m + 1, w):
        if s in vals.values and s + 1 in vals.values:
            if v(s) > v(s + 1) + e(s) + e(s + 1):
                out.append(
                    "monotonicity: Lambda(%d) = %s > Lambda(%d) = %s"
                    % (s, mp.nstr(v(s), 8), s + 1, mp.nstr(v(s + 1), 8))
                )

    if eps == -1:
        # strengthened chain: 0 <= Lambda(m+2) <= Lambda(m+3)/2 <= Lambda(m+4)/3 ...
        for k in range(1, m):
            s, t = m + 1 + k, m + 2 + k
            if s in vals.values and t in vals.values:
                lhs = v(s) / k
                rhs = v(t) / (k + 1)
                if lhs > rhs + e(s) / k + e(t) / (k + 1):
                    out.append(
                        "strengthened-chain: Lambda(%d)/%d = %s > Lambda(%d)/%d = %s"
                        % (s, k, mp.nstr(lhs, 8), t, k + 1, mp.nstr(rhs, 8))
                    )
    return out
