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
(sigma + c - m > 0).  The kernel integral is evaluated by trapezoidal
quadrature on the vertical line; the integrand decays like
exp(-(pi d / 4) |t|), so a few hundred nodes suffice at 192-bit precision.
Each reported value carries an explicit error bound summing the
quadrature-refinement estimate, skipped-node mass, coefficient-tail
majorant, and rounding slack.  The accounting is worst-case interval
style, not rigorous ball arithmetic.
"""

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import InputError, PoleError, InsufficientCoefficients, QuadratureError
from .numutil import divisor_counts, divisor_tail, log_gamma_c_real

# Extra working bits beyond the requested mantissa, absorbing accumulated
# rounding across the long kernel sums.
_GUARD_BITS = 32

# Ladder of kernel-line offsets above the minimal admissible Re(u).  Large
# offsets only pay off for terms far out in the Dirichlet series; the
# per-term selection below picks the cheapest admissible line.
_OFFSETS = (0, 2, 5, 9, 15, 24, 38, 60, 90, 130, 190, 270, 380, 520, 700, 950, 1250)

_MAX_NODES = 25000
_MAX_HALVINGS = 7
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
    since the integrand is conjugate-symmetric.  suffix[k] holds
    sum_{j >= k} |g_j| plus the beyond-last-node decay estimate, so terms
    can certify how much kernel mass a truncated node sum skips.
    """

    __slots__ = ("c", "h", "g", "suffix", "bound", "quad_diff", "weight_sum")

    def __init__(self, c):
        self.c = c
        self.h = None
        self.g = None
        self.suffix = None
        self.bound = None
        self.quad_diff = None
        self.weight_sum = mp.mpf(0)


class _AfeEngine:
    """Shared state for the one-sided sums I(sigma) of a single dataset."""

    def __init__(self, data, prec):
        self.data = data
        self.prec = prec
        self.bits = int(prec.mantissa_bits)
        self.workbits = self.bits + _GUARD_BITS
        self.target = mp.mpf(prec.target_abs_error)
        with mp.workprec(self.workbits):
            self.ln_sqrt_n = mp.log(data.conductor) / 2
        self._ln_cache = {1: mp.mpf(0)}
        self._sums = {}

    def _ln(self, n):
        v = self._ln_cache.get(n)
        if v is None:
            v = mp.log(n)
            self._ln_cache[n] = v
        return v

    # -- node construction -------------------------------------------------

    def _g_value(self, sigma, c, t):
        z_re = mp.mpf(sigma) + c
        arg = mp.mpc(z_re, t)
        acc = mp.mpc(0)
        for nu, h in enumerate(self.data.hodge):
            if h:
                zz = arg - nu
                acc += h * (mp.log(2) - zz * mp.log(2 * mp.pi) + mp.loggamma(zz))
        return mp.exp(acc) / mp.mpc(c, t)

    def _build_nodes(self, sigma, rung, h):
        floor = None
        g = []
        k = 0
        while True:
            gk = self._g_value(sigma, rung.c, k * h)
            g.append(gk)
            if k == 0:
                floor = abs(gk) * mp.mpf(2) ** (-(self.bits + 16))
            elif abs(gk) < floor and k >= 8:
                break
            k += 1
            if k > _MAX_NODES:
                raise QuadratureError(
                    "kernel node count exceeded %d on line c=%s"
                    % (_MAX_NODES, mp.nstr(rung.c, 6))
                )
        rung.h = h
        rung.g = g
        # decay estimate for nodes beyond the last computed one
        ratio = abs(g[-1]) / abs(g[-5]) if len(g) >= 5 else mp.mpf("0.5")
        rho = min(mp.mpf("0.97"), ratio ** mp.mpf("0.25"))
        beyond = abs(g[-1]) * rho / (1 - rho)
        suffix = [mp.mpf(0)] * (len(g) + 1)
        suffix[len(g)] = beyond
        for i in range(len(g) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + abs(g[i])
        rung.suffix = suffix
        # 1.25 covers the gap between the node sum and the true integral
        # of |g| (the accounting is estimate-grade, documented).
        rung.bound = mp.mpf("1.25") * (h / mp.pi) * (abs(g[0]) / 2 + suffix[1])

    @staticmethod
    def _node_sum(rung, ell, count):
        """Trapezoid kernel sum g_0/2 + sum_{0<k<count} g_k e^{i k h ell}."""
        z = mp.expj(rung.h * ell)
        acc = rung.g[0] / 2
        zk = mp.mpc(1)
        for k in range(1, count):
            zk *= z
            acc += rung.g[k] * zk
        return acc

    def _probe(self, rung, ell):
        return (rung.h / mp.pi) * mp.re(self._node_sum(rung, ell, len(rung.g)))

    def _refine(self, sigma, rung, abs_target, ell_lo):
        """Halve h until the probe difference of the trapezoid kernel is
        below abs_target (on the kernel scale, before the (sqrt(N)/n)^c
        weight).  Records the final difference as the rung's alias
        estimate."""
        ells = [ell_lo + (self.ln_sqrt_n - ell_lo) * mp.mpf(i) / 4 for i in range(5)]
        if self.ln_sqrt_n > 0 and ell_lo < 0:
            ells.append(mp.mpf(0))
        vals = [self._probe(rung, ell) for ell in ells]
        for _ in range(_MAX_HALVINGS):
            self._build_nodes(sigma, rung, rung.h / 2)
            new = [self._probe(rung, ell) for ell in ells]
            diff = max(abs(a - b) for a, b in zip(vals, new))
            # 3x spread factor: probes sample the oscillation in ell
            rung.quad_diff = 3 * diff + abs(vals[0]) * mp.mpf(2) ** (-self.workbits + 4)
            vals = new
            if rung.quad_diff <= abs_target:
                return
        raise QuadratureError(
            "quadrature failed to reach %s on line c=%s after %d halvings"
            % (mp.nstr(abs_target, 6), mp.nstr(rung.c, 6), _MAX_HALVINGS)
        )

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
        m = data.m
        sig = mp.mpf(sigma)
        budget = self.target / 4
        cmin = _min_offset(sigma, m)
        ladder = [mp.mpf(cmin) + off for off in _OFFSETS]
        lnsq_f = float(self.ln_sqrt_n)

        # Planning pass in float logs: proxy bound for each line is
        # |g(0)| = L_inf(sigma+c)/c, good to a modest factor.
        proxies = []
        for c in ladder:
            cf = float(c)
            lb = -math.log(cf)
            for nu, h in enumerate(data.hodge):
                if h:
                    lb += h * log_gamma_c_real(float(sig) + cf - nu)
            proxies.append(lb)

        cap = data.coeff_limit
        best = None
        for idx, (c, lb) in enumerate(zip(ladder, proxies)):
            n0 = self._search_n0(sigma, c, 2 * mp.exp(lb), budget / 8, cap)
            if n0 is not None and (best is None or n0 < best[0]):
                best = (n0, idx)
        if best is None:
            need = None
            for idx, (c, lb) in enumerate(zip(ladder, proxies)):
                n_req = self._search_n0(sigma, c, 2 * mp.exp(lb), budget / 8, 1 << 40)
                if n_req is not None and (need is None or n_req < need):
                    need = n_req
            raise InsufficientCoefficients(
                "coefficient list (X = %d) too short for target %s at s = %d;"
                " roughly %s terms required"
                % (cap, mp.nstr(self.target, 6), sigma, need),
                required=need,
            )
        n0, tail_idx = best

        rungs = {}

        def built(idx):
            if idx not in rungs:
                r = _Rung(ladder[idx])
                self._build_nodes(sigma, r, mp.mpf("0.5"))
                rungs[idx] = r
            return rungs[idx]

        # certify the truncation point against the real node bound
        tail_rung = built(tail_idx)
        tail = self._tail_bound(sigma, tail_rung.c, tail_rung.bound, n0)
        while tail > budget and n0 < cap:
            n0 = min(cap, n0 + max(8, n0 // 5))
            tail = self._tail_bound(sigma, tail_rung.c, tail_rung.bound, n0)
        if tail > budget:
            raise InsufficientCoefficients(
                "coefficient list (X = %d) cannot certify the tail at s = %d"
                % (cap, sigma),
                required=None,
            )

        # per-term line selection (float argmin over the ladder)
        assign = {}
        log_w = {}
        for n in range(1, n0 + 1):
            lam = data.coefficients[n - 1]
            if not lam:
                continue
            lnn = math.log(n)
            bi, bv = 0, None
            for idx, (c, lb) in enumerate(zip(ladder, proxies)):
                v = lb + float(c) * (lnsq_f - lnn)
                if bv is None or v < bv:
                    bi, bv = idx, v
            assign[n] = bi
            lw = math.log(abs(float(lam))) - float(sig) * lnn + float(ladder[bi]) * (
                lnsq_f - lnn
            )
            log_w.setdefault(bi, []).append(lw)

        used = sorted(set(assign.values()))
        n_sigma_log = float(sig) * math.log(data.conductor) / 2

        # refine every used line to its share of the quadrature budget
        ell_lo = self.ln_sqrt_n - self._ln(n0)
        for idx in used:
            r = built(idx)
            lws = log_w[idx]
            mx = max(lws)
            w_proxy = mx + math.log(sum(math.exp(v - mx) for v in lws))
            share = budget / max(1, len(used))
            abs_target = share * mp.exp(-mp.mpf(w_proxy + n_sigma_log))
            self._refine(sigma, r, abs_target, ell_lo)

        # accumulation (ascending n: deterministic summation order)
        total = mp.mpf(0)
        abs_total = mp.mpf(0)
        skip_err = mp.mpf(0)
        n_terms = max(1, len(assign))
        skip_share = budget / 4 / n_terms
        pref = mp.power(data.conductor, sig / 2)
        for n in sorted(assign):
            r = rungs[assign[n]]
            lam = mp.mpf(data.coefficients[n - 1])
            lnn = self._ln(n)
            ell = self.ln_sqrt_n - lnn
            w_plain = abs(lam) * mp.exp(-sig * lnn + r.c * ell)
            r.weight_sum += w_plain
            wt = w_plain * (r.h / mp.pi)
            # certified node cutoff: drop trailing nodes whose total mass
            # cannot move this term by more than its skip share
            lo, hi = 1, len(r.g)
            while lo < hi:
                mid = (lo + hi) // 2
                if wt * pref * r.suffix[mid] <= skip_share:
                    hi = mid
                else:
                    lo = mid + 1
            kc = lo
            skip_err += wt * pref * r.suffix[kc]
            acc = self._node_sum(r, ell, kc)
            term = lam * mp.exp(-sig * lnn + r.c * ell) * (r.h / mp.pi) * mp.re(acc)
            total += term
            abs_total += abs(term)

        # quad_diff is on the kernel scale (includes h/pi); weight_sum is not
        quad_err = pref * mp.fsum(
            rungs[idx].quad_diff * rungs[idx].weight_sum for idx in used
        )

        value = pref * total
        rounding = (pref * abs_total + abs(value)) * mp.mpf(2) ** (-(self.workbits - 16))
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
