"""Generating polynomials of completed special values and their
approximants.

For a self-dual motive of odd weight w = 2m+1 the special-value polynomial
is

    p(z) = sum_{j=0}^{2m} [prod_nu C(2m-nu, m-|m-j|)^{h_nu}] Lambda(w-j) z^j,

a degree-2m polynomial with (anti)palindromic coefficients: the functional
equation forces coeff(j) = eps * coeff(2m-j).  Folding it around the
center gives P(z) of degree m with p(z) = eps z^m (P(z) + eps P(1/z)).
Normalizing by the archimedean factors turns the large-N shape transparent:

    Q(z) = z^m sum_{j=0}^{m-1} c_j z^{-j} L(w-j)/L(w) + (1/2) c_m L(m+1)/L(w),
    c_j  = (1/(j!)^{d/2}) ((2pi)^{d/2}/sqrt(N))^j,

whose z^m-truncation error is controlled by the entire limit series

    F_{d,N}(z) = sum_{j>=0} c_j z^j.

Q decomposes as Q(z) = z^m T(1/z) + central + S(z) where T is the
degree-m partial sum of F and S is the exact remainder; on |z| = 1,

    |S(z)| <= 2^{2-m} (zeta(3/2)^d - 1) F_{d,N}(2) + c_m (1 + |L-ratio|/2),

which is the certificate that transfers disc-zero counts from F to T to Q
(Rouche).  Note the degree-m partial sum z^m T(1/z) contributes a constant
c_m that the j <= m-1 sum in Q lacks; the remainder S here absorbs that
corner term, so the decomposition above is exact.
"""

from dataclasses import dataclass
from math import comb

import mpmath as mp

from .errors import InputError, VerificationError
from .lfunc import gamma_completed
from .numutil import fmt_mpf

_Q_CHECK_POINTS = 256  # circle samples of the Q-decomposition check


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial with per-coefficient error bounds.

    coeffs is ascending: coeffs[j] = (value, error_bound) for z^j.  bits
    records the working precision its values were produced under; all
    evaluation runs at that precision.  degenerate marks a leading
    coefficient not distinguishable from zero.
    """

    coeffs: tuple
    bits: int = 192
    degenerate: bool = False
    label: str = ""

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("polynomial needs at least one coefficient")
        # convert under the recorded precision: mp.mpf() rounds at the
        # *ambient* context, which is typically 53 bits
        with mp.workprec(max(self.bits, 64)):
            cs = tuple(
                (v if isinstance(v, mp.mpf) else mp.mpf(v),
                 e if isinstance(e, mp.mpf) else mp.mpf(e))
                for v, e in self.coeffs
            )
        object.__setattr__(self, "coeffs", cs)
        lead_v, lead_e = cs[-1]
        if abs(lead_v) <= lead_e and len(cs) > 1 and not self.degenerate:
            object.__setattr__(self, "degenerate", True)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def values(self):
        return [c[0] for c in self.coeffs]

    def errors(self):
        return [c[1] for c in self.coeffs]

    def __call__(self, z):
        with mp.workprec(self.bits):
            acc = mp.mpf(0)
            for v, _ in reversed(self.coeffs):
                acc = acc * z + v
            return acc

    def eval_with_error(self, z):
        """(value, bound) where bound covers coefficient uncertainty
        sum err_j |z|^j (evaluation rounding is far below it)."""
        with mp.workprec(self.bits):
            acc = mp.mpf(0)
            err = mp.mpf(0)
            az = abs(mp.mpmathify(z))
            for v, e in reversed(self.coeffs):
                acc = acc * z + v
                err = err * az + e
            return acc, err

    def derivative(self):
        if self.degree == 0:
            return RealPolynomial(((mp.mpf(0), mp.mpf(0)),), bits=self.bits)
        with mp.workprec(self.bits):
            cs = tuple(
                (j * v, j * e) for j, (v, e) in enumerate(self.coeffs) if j >= 1
            )
        return RealPolynomial(cs, bits=self.bits, label=self.label + "'")

    def scale(self, t):
        with mp.workprec(self.bits):
            t = t if isinstance(t, mp.mpf) else mp.mpf(t)
            cs = tuple((v * t, e * abs(t)) for v, e in self.coeffs)
        return RealPolynomial(cs, bits=self.bits, label=self.label)

    def to_json_obj(self, digits=None):
        return [[fmt_mpf(v, digits), fmt_mpf(e, digits)] for v, e in self.coeffs]


def binomial_weight(m, hodge, jdist):
    """prod_nu C(2m - nu, m - jdist)^{h_nu} as an exact integer (jdist =
    |m - j| is the distance of the z^j coefficient from the center)."""
    out = 1
    for nu, h in enumerate(hodge):
        if h:
            out *= comb(2 * m - nu, m - jdist) ** h
    return out


def build_p_poly(data, vals):
    """Degree-2m special-value polynomial; coefficient of z^j is
    binomial_weight(m, hodge, |m-j|) * Lambda(w - j)."""
    m = data.m
    w = data.weight
    for s in range(1, w + 1):
        if s not in vals.values:
            raise InputError("missing special value Lambda(%d)" % s)
    with mp.workprec(vals.bits):
        cs = []
        for j in range(0, 2 * m + 1):
            b = binomial_weight(m, data.hodge, abs(m - j))
            cs.append((b * mp.mpf(vals.value(w - j)), b * mp.mpf(vals.error(w - j))))
    return RealPolynomial(tuple(cs), bits=vals.bits, label=(vals.label or "p"))


def build_P_poly(data, vals):
    """Degree-m folded polynomial: constant term (1/2) b_m Lambda(m+1),
    z^j coefficient b_{m-j} Lambda(m+1+j); satisfies
    p(z) = eps z^m (P(z) + eps P(1/z)).  These are the coefficients of p
    from z^m down to z^0, the central one halved."""
    m = data.m
    cs = build_p_poly(data, vals).coeffs[m::-1]
    with mp.workprec(vals.bits):
        cs = ((cs[0][0] / 2, cs[0][1] / 2),) + cs[1:]
    return RealPolynomial(cs, bits=vals.bits, label=(vals.label or "P"))


@dataclass(frozen=True)
class LValueRatios:
    """Finite L-value ratios r_j = L(w-j)/L(w) for j = 0..m-1 plus the
    central ratio L(m+1)/L(w), each with a propagated error bound."""

    ratios: tuple
    central: tuple
    bits: int = 192


def l_value_ratios(data, vals):
    """Strip conductor and gamma factors from the completed values:
    L(s) = Lambda(s) / (N^{s/2} L_inf(s)), then form the ratios entering Q.

    Raises VerificationError when Lambda(w) is not certified nonzero.
    """
    m = data.m
    w = data.weight
    with mp.workprec(vals.bits + 8):
        top_v = mp.mpf(vals.value(w))
        top_e = mp.mpf(vals.error(w))
        if abs(top_v) <= 2 * top_e:
            raise VerificationError(
                "Lambda(w) = %s +- %s is not certified nonzero; cannot form"
                " L-value ratios" % (mp.nstr(top_v, 8), mp.nstr(top_e, 8))
            )
        g_top = gamma_completed(w, data, bits=vals.bits)
        out = []
        # s = w - j for j = 0..m-1, then the central s = m + 1
        for s in [w - j for j in range(m)] + [m + 1]:
            v = mp.mpf(vals.value(s))
            e = mp.mpf(vals.error(s))
            g = gamma_completed(s, data, bits=vals.bits)
            # L(s)/L(w) = Lambda(s)/Lambda(w) * N^{(w-s)/2} * g_top/g
            fac = mp.power(data.conductor, mp.mpf(w - s) / 2) * g_top / g
            r = v / top_v * fac
            re = (e / abs(top_v) + abs(v) * top_e / top_v ** 2) * abs(fac)
            out.append((+r, +re))
        return LValueRatios(ratios=tuple(out[:-1]), central=out[-1],
                            bits=vals.bits)


def _f_term_factor(d, n_cond, bits):
    with mp.workprec(bits):
        return mp.power(2 * mp.pi, mp.mpf(d) / 2) / mp.sqrt(n_cond)


def _f_coeff(y, j, d):
    """c_j = y^j / (j!)^{d/2}, the z^j coefficient of F_{d,N} when
    y = (2pi)^{d/2}/sqrt(N), at the ambient precision."""
    return mp.power(y, j) / mp.factorial(j) ** (mp.mpf(d) / 2)


def build_Q_poly(data, ratios):
    """Gamma-normalized degree-m polynomial (ascending coefficients):
    Q(z) = sum_{j=0}^{m-1} c_j r_j z^{m-j} + (1/2) c_m r_central,
    with c_j = y^j/(j!)^{d/2}, y = (2pi)^{d/2}/sqrt(N).  The j = 0
    coefficient is exactly 1.  ratios is l_value_ratios(data, vals)."""
    m = data.m
    d = data.degree
    bits = ratios.bits
    with mp.workprec(bits + 8):
        y = _f_term_factor(d, data.conductor, bits + 8)
        cs = [(mp.mpf(0), mp.mpf(0))] * (m + 1)
        for j in range(0, m):
            c = _f_coeff(y, j, d)
            r, re = ratios.ratios[j]
            cs[m - j] = (+(c * r), +(c * re))
        c = _f_coeff(y, m, d)
        r, re = ratios.central
        cs[0] = (+(c * r / 2), +(c * re / 2))
    return RealPolynomial(tuple(cs), bits=bits, label=(data.label or "Q"))


@dataclass(frozen=True)
class ApproximantSeries:
    """The entire limit series F_{d,N}(z) = sum_j y^j z^j / (j!)^{d/2}
    (y = (2pi)^{d/2}/sqrt(N)) with a fixed term budget J.

    J is chosen so the ratio-test tail majorant at radius 2 is below
    target; eval enforces the same certificate at the requested point.
    """

    d: int
    conductor: int
    J: int = 0
    bits: int = 192
    target: float = 1e-30

    def __post_init__(self):
        if self.d < 2 or self.d % 2:
            raise InputError("d must be a positive even integer")
        if self.conductor < 1:
            raise InputError("conductor must be positive")
        if self.J <= 0:
            with mp.workprec(self.bits):
                j = 4
                while self.tail_bound(2, j) > mp.mpf(self.target):
                    j += 2
                    if j > 10000:
                        raise InputError("term budget exploded; bad parameters")
            object.__setattr__(self, "J", j)

    def _y(self):
        return _f_term_factor(self.d, self.conductor, self.bits)

    def tail_bound(self, radius, j_from=None):
        """Majorant for sum_{j > J} |term_j| at |z| = radius, by the ratio
        test: first omitted term times 1/(1-rho)."""
        with mp.workprec(self.bits):
            jf = self.J if j_from is None else j_from
            y = self._y() * mp.mpf(radius)
            t = _f_coeff(y, jf + 1, self.d)
            rho = y / mp.mpf(jf + 2) ** (mp.mpf(self.d) / 2)
            if rho >= 1:
                return mp.inf
            return +(t / (1 - rho))

    def eval(self, z):
        """F_{d,N}(z) with the tail certificate enforced at |z|."""
        with mp.workprec(self.bits):
            z = mp.mpmathify(z)
            tail = self.tail_bound(abs(z))
            if not tail <= mp.mpf(self.target) * 4:
                raise InputError(
                    "tail budget exceeded at |z| = %s (bound %s); increase J"
                    % (mp.nstr(abs(z), 6), mp.nstr(tail, 6))
                )
            y = self._y()
            term = mp.mpc(1)
            acc = mp.mpc(1)
            for j in range(1, self.J + 1):
                term = term * (y * z) / mp.mpf(j) ** (mp.mpf(self.d) / 2)
                acc += term
            if mp.im(acc) == 0:
                return +mp.re(acc)
            return +acc


def partial_sum_T(m, d, conductor, bits=192):
    """Degree-m truncation T_{m,d,N} of F_{d,N} as a RealPolynomial (its
    coefficient errors are pure rounding slack)."""
    if m < 0:
        raise InputError("m must be >= 0")
    with mp.workprec(bits + 8):
        y = _f_term_factor(d, conductor, bits + 8)
        cs = []
        for j in range(0, m + 1):
            c = _f_coeff(y, j, d)
            cs.append((+c, +(abs(c) * mp.mpf(2) ** (4 - bits))))
    return RealPolynomial(tuple(cs), bits=bits, label="T")


@dataclass(frozen=True)
class SBoundParts:
    """Components of the remainder bound on |z| = 1.

    series: 2^{2-m} (zeta(3/2)^d - 1) F_{d,N}(2), covering the L-ratio
        deviations sum_{j<m} c_j (r_j - 1);
    central: (1/2) c_m (|r_central| + its error), the central term itself;
    corner: c_m, the j = m term of z^m T(1/z) that the Q sum lacks.
    total = series + central + corner bounds |Q - z^m T(1/z)| on the circle,
    which is the quantity Rouche needs against min |T|.
    """

    series: object
    central: object
    corner: object

    @property
    def total(self):
        return self.series + self.central + self.corner


def s_tail_parts(data, ratios):
    m = data.m
    if m < 2:
        raise InputError("remainder bound requires m >= 2")
    d = data.degree
    bits = ratios.bits
    with mp.workprec(bits):
        series = (
            mp.mpf(2) ** (2 - m)
            * (mp.zeta(mp.mpf(3) / 2) ** d - 1)
            * ApproximantSeries(d, data.conductor, bits=bits).eval(2)
        )
        y = _f_term_factor(d, data.conductor, bits)
        c_m = _f_coeff(y, m, d)
        rc, rce = ratios.central
        central = c_m * (abs(rc) + rce) / 2
        return SBoundParts(series=+series, central=+central, corner=+c_m)


def q_decomposition_residual(data, ratios):
    """max over circle sample points of |Q(z) - z^m T(1/z) - central - S(z)|
    with S the exact remainder sum; also returns max |S| for the bound
    check.  Pure consistency diagnostic: everything is computed from the
    same ratios (l_value_ratios(data, vals)), so the residual should sit
    at rounding level."""
    m = data.m
    d = data.degree
    bits = ratios.bits
    q = build_Q_poly(data, ratios)
    t = partial_sum_T(m, d, data.conductor, bits=bits)
    with mp.workprec(bits):
        y = _f_term_factor(d, data.conductor, bits)
        c = [_f_coeff(y, j, d) for j in range(m + 1)]
        central = c[m] * ratios.central[0] / 2
        worst = mp.mpf(0)
        s_max = mp.mpf(0)
        for i in range(_Q_CHECK_POINTS):
            z = mp.expj(2 * mp.pi * mp.mpf(i) / _Q_CHECK_POINTS)
            tz = mp.power(z, m) * t(1 / z)
            s = mp.fsum(
                (c[j] * (ratios.ratios[j][0] - 1)) * mp.power(z, m - j)
                for j in range(m)
            ) - c[m]
            resid = abs(q(z) - tz - central - s)
            worst = max(worst, resid)
            s_max = max(s_max, abs(s))
        return +worst, +s_max
