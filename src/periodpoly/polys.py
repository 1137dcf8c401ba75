"""Generating polynomials of completed special values and their
approximants.

For a self-dual motive of odd weight w = 2m+1 the special-value polynomial
is

    p(z) = sum_{j=0}^{2m} [prod_nu C(2m-nu, m-|m-j|)^{h_nu}] Lambda(w-j) z^j,

a degree-2m polynomial with (anti)palindromic coefficients: the functional
equation forces coeff(j) = eps * coeff(2m-j).  Folding it around the
center gives P(z) of degree m with p(z) = eps z^m (P(z) + eps P(1/z)).
Normalizing by Lambda(w) turns the large-N shape transparent:

    Q(z) = P(z)/Lambda(w)
         = z^m sum_{j=0}^{m-1} c_j z^{-j} L(w-j)/L(w) + (1/2) c_m L(m+1)/L(w),
    c_j  = (1/(j!)^{d/2}) ((2pi)^{d/2}/sqrt(N))^j.

The archimedean factors cancel exactly.  P's z^{m-j} coefficient is
b_j Lambda(w-j) (halved at j = m), b_j = prod_nu C(2m-nu, j)^{h_nu}, and
Lambda(s) = N^{s/2} L_inf(s) L(s) with L_inf(s) = prod_nu Gamma_C(s-nu)^{h_nu},
Gamma_C(s) = 2 (2pi)^{-s} Gamma(s).  For each nu, as w - nu = 2m+1-nu,

    C(2m-nu, j) Gamma_C(w-j-nu)/Gamma_C(w-nu)
        = (2m-nu)!/(j! (2m-nu-j)!) * (2pi)^j (2m-nu-j)!/(2m-nu)! = (2pi)^j/j!,

and N^{(w-j)/2}/N^{w/2} = N^{-j/2}; with d = 2 sum_nu h_nu,

    b_j Lambda(w-j)/Lambda(w) = c_j L(w-j)/L(w)

for any Hodge numbers.  So P = Lambda(w) Q coefficient by coefficient,
Q's z^m coefficient is 1, and build_Q_poly divides P by Lambda(w) without
evaluating Gamma; the ratios L(w-j)/L(w) = Q_{m-j}/c_j are read off Q.

Q's z^m-truncation error is controlled by the entire limit series

    F_{d,N}(z) = sum_{j>=0} c_j z^j.

Q decomposes as Q(z) = z^m T(1/z) + central + S(z) where T is the
degree-m partial sum of F and S is the exact remainder.  Note the degree-m
partial sum z^m T(1/z) contributes a constant c_m that the j <= m-1 sum in
Q lacks; the remainder S here absorbs that corner term, so the
decomposition is exact.  q_decomposition_residual checks it coefficient
by coefficient: the sum of the absolute coefficients of a polynomial
bounds its maximum on |z| = 1.  By the same token, on |z| = 1

    |Q(z) - z^m T(1/z)| <= sum_k |Q_k - T_{m-k}| + err(Q_k) + err(T_{m-k}),

for every Q and T within their coefficient errors (s_tail_parts); below
min |T| on the circle, this transfers the disc-zero count from T to Q
(Rouche).
"""

from dataclasses import dataclass, field
from math import comb

import mpmath as mp
from mpmath.libmp import (from_int, mpf_abs, mpf_add, mpf_mul, mpf_pos,
                          mpf_sub, mpf_sum, round_up)

from .errors import InputError, VerificationError
from .numutil import fmt_mpf


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial with per-coefficient error bounds.

    coeffs is ascending: coeffs[j] = (value, error_bound) for z^j.  bits
    records the working precision its values were produced under; all
    evaluation runs at that precision.  degenerate, computed, marks a
    leading coefficient not distinguishable from zero.
    """

    coeffs: tuple
    bits: int = 192
    degenerate: bool = field(init=False)

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("polynomial needs at least one coefficient")
        # convert under the recorded precision: mp.mpf() rounds at the
        # *ambient* context, which is typically 53 bits.  A list, not a
        # generator: tuple() grows a generator's tuple by resizing, and
        # CPython's tuple free lists keep the resized blocks, so the memory
        # of a long run creeps up with every polynomial built
        with mp.workprec(max(self.bits, 64)):
            cs = tuple([
                (v if isinstance(v, mp.mpf) else mp.mpf(v),
                 e if isinstance(e, mp.mpf) else mp.mpf(e))
                for v, e in self.coeffs
            ])
        object.__setattr__(self, "coeffs", cs)
        lead_v, lead_e = cs[-1]
        object.__setattr__(self, "degenerate",
                           abs(lead_v) <= lead_e and len(cs) > 1)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def values(self):
        return [c[0] for c in self.coeffs]

    def errors(self):
        return [c[1] for c in self.coeffs]

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
    b_j Lambda(w - j), b_j = binomial_weight(m, hodge, |m-j|), with Lambda
    and the product each rounded to nearest at vals.bits.  Its error is
    b_j err(Lambda(w - j)) plus the exact distance of the coefficient
    from b_j times the stored Lambda, which holds both roundings, summed
    exactly and rounded up once."""
    m = data.m
    w = data.weight
    if vals.weight != w:
        raise InputError("special values of weight %d for data of weight %d"
                         % (vals.weight, w))
    with mp.workprec(vals.bits):
        cs = []
        for j in range(0, 2 * m + 1):
            b = binomial_weight(m, data.hodge, abs(m - j))
            lam, err = vals.values[w - j]
            v = b * mp.mpf(lam)
            miss = mpf_abs(mpf_sub(v._mpf_, mpf_mul(from_int(b), lam._mpf_)))
            err = mpf_add(mpf_mul(from_int(b), err._mpf_), miss, vals.bits,
                          round_up)
            cs.append((v, mp.make_mpf(err)))
    return RealPolynomial(tuple(cs), bits=vals.bits)


def build_P_poly(p):
    """Fold the degree-2m special-value polynomial p (build_p_poly) into
    the degree-m P: constant term (1/2) b_m Lambda(m+1), z^j coefficient
    b_{m-j} Lambda(m+1+j); satisfies p(z) = eps z^m (P(z) + eps P(1/z)).
    These are the coefficients of p from z^m down to z^0, the central one
    halved."""
    m = p.degree // 2
    cs = p.coeffs[m::-1]
    with mp.workprec(p.bits):
        cs = ((cs[0][0] / 2, cs[0][1] / 2),) + cs[1:]
    return RealPolynomial(cs, bits=p.bits)


def build_Q_poly(big_p, vals):
    """Q = P/Lambda(w) (ascending coefficients; see the module docstring),
    divided at vals.bits + 8.  Each error is err(P_k)/|Lambda(w)| +
    |P_k| err(Lambda(w))/Lambda(w)^2 plus 2^(4 - bits) |Q_k| for the
    rounding of P_k and of the quotient.  big_p is build_P_poly of the p
    built from vals, so Lambda(w) is P_m (b_0 = 1) and Q_m = 1 exactly.

    Raises VerificationError when Lambda(w) is not certified nonzero.
    """
    w = vals.weight
    if w != 2 * big_p.degree + 1:
        raise InputError("special values of weight %d for P of degree %d"
                         % (w, big_p.degree))
    bits = vals.bits
    top_v, top_e = big_p.coeffs[-1]
    with mp.workprec(bits + 8):
        if abs(top_v) <= 2 * top_e:
            raise VerificationError(
                "Lambda(w) = %s +- %s is not certified nonzero; cannot form"
                " Q = P/Lambda(w)" % (mp.nstr(top_v, 8), mp.nstr(top_e, 8))
            )
        slack = mp.mpf(2) ** (4 - bits)
        cs = []
        for v, e in big_p.coeffs:
            q = v / top_v
            cs.append((q, e / abs(top_v) + abs(v) * top_e / top_v ** 2
                       + abs(q) * slack))
    return RealPolynomial(tuple(cs), bits=bits)


@dataclass(frozen=True)
class LValueRatios:
    """Finite L-value ratios r_j = L(w-j)/L(w) for j = 0..m-1 plus the
    central ratio L(m+1)/L(w), each with a propagated error bound."""

    ratios: tuple
    central: tuple


def l_value_ratios(q, t):
    """Read the ratios off Q and T = partial_sum_T: r_j = Q_{m-j}/T_j and
    central = 2 Q_0/T_m, as T_j = c_j.  Each error is err(Q)/T +
    |Q| err(T)/T^2 plus 2^-bits |r| for the rounding of the quotient at
    q.bits + 8."""
    if q.degree != t.degree:
        raise InputError("Q and T must have the same degree")
    m = q.degree
    with mp.workprec(q.bits + 8):
        slack = mp.mpf(2) ** -q.bits
        out = []
        for (qv, qe), (tv, te), scale in zip(
                reversed(q.coeffs), t.coeffs, [1] * m + [2]):
            r = scale * qv / tv
            out.append((r, scale * (qe / tv + abs(qv) * te / tv ** 2)
                        + abs(r) * slack))
    return LValueRatios(ratios=tuple(out[:-1]), central=out[-1])


def partial_sum_T(m, d, conductor, bits=192):
    """Degree-m truncation T_{m,d,N} of F_{d,N}, c_j = y^j/(j!)^{d/2} with
    y = (2pi)^{d/2}/sqrt(N), as a RealPolynomial (its coefficient errors
    are pure rounding slack)."""
    if m < 0:
        raise InputError("m must be >= 0")
    with mp.workprec(bits + 8):
        y = mp.power(2 * mp.pi, mp.mpf(d) / 2) / mp.sqrt(conductor)
        cs = []
        for j in range(0, m + 1):
            c = mp.power(y, j) / mp.factorial(j) ** (mp.mpf(d) / 2)
            cs.append((+c, +(abs(c) * mp.mpf(2) ** (4 - bits))))
    return RealPolynomial(tuple(cs), bits=bits)


def s_tail_parts(q, t):
    """Upper bound on |Q'(z) - z^m T'(1/z)| on |z| = 1 for every Q' and T'
    within the coefficient errors of q and t (both of degree m): the sum
    over k of |Q_k - T_{m-k}| + err(Q_k) + err(T_{m-k}), exact and rounded
    up once at q.bits."""
    if q.degree != t.degree:
        raise InputError("Q and T must have the same degree")
    terms = []
    for (qv, qe), (tv, te) in zip(q.coeffs, reversed(t.coeffs)):
        terms += [mpf_sub(qv._mpf_, tv._mpf_), qe._mpf_, te._mpf_]
    total = mpf_sum(terms, absolute=True)
    return mp.make_mpf(mpf_pos(total, q.bits, round_up))


def q_decomposition_residual(ratios, q, t):
    """Compare Q(z) and z^m T(1/z) + central + S(z) coefficient by
    coefficient, with S(z) = sum_{j<m} c_j (r_j - 1) z^{m-j} - c_m the
    exact remainder and c_j = T_j.  Returns sum_k |residual_k|, which
    bounds the residual's maximum over |z| = 1.  Pure consistency
    diagnostic: ratios is l_value_ratios(q, t), so the residual should
    sit at rounding level."""
    m = q.degree
    with mp.workprec(q.bits):
        c = t.values()
        central = c[m] * ratios.central[0] / 2
        # coefficients of z^{m-j}, j = 0..m: S has these, z^m T(1/z) has c_j
        s = [c[j] * (ratios.ratios[j][0] - 1) for j in range(m)] + [-c[m]]
        resid = mp.fsum(
            abs(q.values()[m - j] - c[j] - s[j]
                - (central if j == m else 0))
            for j in range(m + 1))
        return +resid
