"""Unit circle to critical line: the Rodriguez-Villegas transform.

Given a real polynomial U of degree e with U(1) != 0, expand

    U(z) / (1 - z)^{e+1} = sum_{l >= 0} H(l) z^l.

H(l) agrees with a polynomial of degree e in l; the transform returns
Z(s) = H(-s).  When every root of U lies on the unit circle, every root
of Z lies on the line Re(s) = 1/2, and when U is palindromic up to the
sign eps_U (U(z) = eps_U z^e U(1/z)) the transform satisfies the
functional equation Z(1 - s) = (-1)^e eps_U Z(s).

Applied to the special-value polynomial p (deflated once at z = 1 when
the root number is -1, whose functional equation forces p(1) = 0), this
yields a polynomial generating the completed special values through

    p(z) / (1 - z)^{w+1} = sum_l Z(-l) z^l,

with Z(s) = eps Z(1-s) and zeros on the critical line whenever the
circle statement holds for p.  A second route to the same Z goes through
an explicit double sum over signed Stirling numbers of the first kind
and the value moments

    M(j) = (1/(2m)!) sum_q b_q Lambda(q+1) q^j      (0^0 = 1),

which zeta_poly_closed_form evaluates exactly, in Fractions, and
closed_form_ok checks against the transform exactly.  The transform
itself is one linear map, exact in Python integers: e! Z = sum_j U_j B_j
over the transforms B_j(s) = prod_{i=1}^{e} (i - j - s) of z^j, and the
same basis bounds Z's error.  It rounds each coefficient of Z once,
counting that rounding in the coefficient's error; deflate_at_one
divides by (1 - z) exactly.  check_zeta_properties checks the functional
equation exactly on the coefficients of Z, in Python integers, and the
critical line on the located (uncertified) roots of Z's symmetric part:
with W(y) = 2^e Z((1 + y)/2) = y^par V(y^2), par = (1 - eps)/2, one root
search on V, of degree floor(e/2), gives them all.
"""

from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest, round_up

from .errors import InputError, VerificationError
from .polys import RealPolynomial
from .zeros import poly_roots


_FE_TOL = 1e-18  # functional-equation residual, relative
_LINE_TOL = 1e-8  # max |Re(root) - 1/2| of the roots of Z


@dataclass(frozen=True)
class ZetaPolynomial(RealPolynomial):
    """Polynomial with real coefficients satisfying (when constructed
    from circle-rooted input) Z(s) = eps Z(1-s) with zeros on
    Re(s) = 1/2.

    eps is the functional-equation sign; exact holds the coefficients as
    Fractions, before they are rounded into coeffs."""

    _: KW_ONLY
    eps: int
    exact: tuple


def stirling_first(a):
    """Signed Stirling numbers of the first kind: row s(a, q), q = 0..a,
    with sum_q s(a, q) x^q = x (x-1) ... (x-a+1) (empty product 1 for
    a = 0).  Exact integers."""
    row = [1]
    for k in range(a):
        row = [left - k * right for left, right in zip([0] + row, row + [0])]
    return row


def _integers(values):
    """Integers n and one positive integer den with values[j] = n[j] / den
    exactly, for mpf values: den = 2^-E, E the smallest exponent among
    their mantissas (1 when E >= 0)."""
    parts = [v._mpf_ for v in values]
    low = min([0] + [exp for _, man, exp, _ in parts if man])
    return [(-man if sign else man) << (exp - low)
            for sign, man, exp, _ in parts], 1 << -low


def _shift(c):
    """Coefficients of sum_q c[q] (1 + x)^q, by Horner in (1 + x):
    additions only, exact for integers."""
    out = []
    for cq in reversed(c):
        out = [a + b for a, b in zip(out + [0], [0] + out)]
        out[0] += cq
    return out


def _unit_transforms(e):
    """Coefficients of e! Z(s) for U = z^j, j = 0..e: H(l) = C(e + l - j, e),
    so column j is B_j(s) = prod_{i=1}^{e} (i - j - s).  Column j + 1 is
    column j times (-j - s), divided exactly by (e - j - s).  Exact
    integers."""
    col = [1]
    for i in range(1, e + 1):
        col = [i * c - d for c, d in zip(col + [0], [0] + col)]
    cols = [col]
    for j in range(e):
        # t = col (-j - s), then t / (r - s) from the top, r = e - j:
        # (r - s) q = t gives q_e = -t_{e+1} and q_{k-1} = r q_k - t_k
        t = [-j * c - d for c, d in zip(col + [0], [0] + col)]
        r = e - j
        col = [0] * e + [-t[e + 1]]
        for k in range(e, 0, -1):
            col[k - 1] = r * col[k] - t[k]
        cols.append(col)
    return cols


def rv_transform(u, eps=None):
    """Transform U into the line polynomial Z(s) = H(-s), with e = deg U.

    u is a RealPolynomial; a transform at e > deg U is that of U with zero
    coefficients appended.  U(1) must be certified nonzero, since the
    critical-line property fails without it.  eps, when given, is stored
    as the functional-equation sign; otherwise it is inferred from the
    palindrome type of U (and left at +1 if U has no palindrome type).

    The values and errors of U become integers a_j and b_j over one
    denominator, and the transform runs on them exactly in the basis B_j
    of _unit_transforms: e! Z = sum_j a_j B_j, held as Fractions in exact,
    and coeffs rounds it once at bits + 16 (values to nearest, errors up).
    The error of Z_q is sum_j b_j |B_j[q]| / e!, the exact bound of the
    linear map, plus the rounding of Z_q's stored value, found in
    integers over den e! like the rest, so
    |stored - exact| <= error even for an input without errors.
    """
    e = u.degree
    ints, den = _integers(u.values() + u.errors())
    a, b = ints[:e + 1], ints[e + 1:]
    if abs(sum(a)) <= sum(b):
        raise InputError(
            "U(1) = %.8g is not certified nonzero (error %.8g); deflate first"
            % (sum(a) / den, sum(b) / den)
        )
    zq = [0] * (e + 1)
    ze = [0] * (e + 1)
    for aj, bj, col in zip(a, b, _unit_transforms(e)):
        zq = [z + aj * c for z, c in zip(zq, col)]
        if bj:
            ze = [z + bj * abs(c) for z, c in zip(ze, col)]
    if eps is None:
        # Z(1-s) = (-1)^e eps_U Z(s) for U with palindrome sign eps_U
        eps = (-1) ** e * _palindrome_sign(a, b)
    scale = den * factorial(e)
    coeffs = []
    for z, err in zip(zq, ze):
        value = _ratio(z, scale, u.bits + 16, round_nearest)
        # value = man 2^exp, so value - z/scale = (man 2^exp scale - z)/scale
        sign, man, exp, _ = value
        man = -man if sign else man
        lift = max(-exp, 0)
        miss = abs((man << max(exp, 0)) * scale - (z << lift))
        err = _ratio((err << lift) + miss, scale << lift, u.bits + 16,
                     round_up)
        coeffs.append((mp.make_mpf(value), mp.make_mpf(err)))
    return ZetaPolynomial(tuple(coeffs), bits=u.bits, eps=eps,
                          exact=tuple([Fraction(z, scale) for z in zq]))


def _ratio(num, den, prec, rnd):
    """num / den (den > 0) rounded to prec bits in direction rnd, as a
    raw mpf: the integer quotient has at least prec + 1 bits, and one
    sticky bit below it stands for a nonzero remainder, so from_man_exp
    rounds as the exact ratio would be rounded."""
    k = max(0, prec + 1 + den.bit_length() - abs(num).bit_length())
    q, r = divmod(abs(num) << k, den)
    man = q << 1 | (r != 0)
    return from_man_exp(-man if num < 0 else man, -k - 1, prec, rnd)


def _palindrome_sign(a, b):
    """+1 or -1 when U(z) = +-z^e U(1/z) (e = len(a) - 1) within the
    coefficient errors plus 1e-20 max |U_j| (circle products rounded in
    mpf are only nearly palindromic); +1 when neither holds.  a and b are
    U's values and errors as integers over one denominator."""
    slack = max(abs(v) for v in a)
    for sign in (1, -1):
        if all(10 ** 20 * abs(a[j] - sign * a[-1 - j])
               <= 10 ** 20 * (b[j] + b[-1 - j]) + slack
               for j in range(len(a))):
            return sign
    return 1


def deflate_at_one(p, eps):
    """Prepare the special-value polynomial for the transform.

    p(1) and the sum of the coefficient errors are exact (_integers).
    eps = -1: p(1) = 0 is forced, so divide once by (1 - z) via
    cumulative sums, q_j = sum_{i <= j} p_i, exactly, so that
    p = (1 - z) q + p(1) z^{deg p}; the error of q_j is the sum of those
    of p_0..p_j, rounded up once at p.bits.  The remainder p(1) must be
    explained by the coefficient errors, or VerificationError is raised.
    eps = +1: p is returned unchanged, but p(1) must be certified
    nonzero."""
    if eps not in (1, -1):
        raise InputError("eps must be +1 or -1")
    ints, den = _integers(p.values() + p.errors())
    vals, errs = ints[:p.degree + 1], ints[p.degree + 1:]
    total, terr = sum(vals), sum(errs)
    if eps == 1:
        if abs(total) <= terr:
            raise VerificationError(
                "p(1) = %.8g +- %.8g is not certified nonzero"
                % (total / den, terr / den))
        return p
    if abs(total) > terr:
        raise VerificationError(
            "p(1) = %.8g exceeds its error bound %.8g; eps = -1 requires a"
            " zero at z = 1" % (total / den, terr / den))
    # den is a power of two, since p's coefficients are mpf
    shift = 1 - den.bit_length()
    q = tuple([(mp.make_mpf(from_man_exp(v, shift)),
                mp.make_mpf(from_man_exp(er, shift, p.bits, round_up)))
               for v, er in zip(accumulate(vals[:-1]), accumulate(errs[:-1]))])
    return RealPolynomial(q, bits=p.bits)


def maclaurin_coefficients(u, e, count):
    """First `count` Maclaurin coefficients of U(z)/(1-z)^{e+1}, computed
    directly: c_l = sum_j U_j C(e + l - j, e).  Independent check of the
    identity sum_l Z(-l) z^l."""
    with mp.workprec(u.bits):
        vals = u.values()
        out = []
        for l in range(count):
            out.append(
                +mp.fsum(vals[j] * comb(e + l - j, e) for j in range(len(vals)))
            )
        return out


def zeta_poly_closed_form(p):
    """The explicit double-sum formula for Z, exactly, as Fractions.

    The formula: Z(s) = sum_{h} (-s)^h sum_{j <= 2m-h}
    C(h+j, h) S(2m, h+j) M(j), with S(2m, .) the signed Stirling row of
    prod_{i=0}^{2m-1} (x - i) (stirling_first) and M(j) the value moments
    of the module docstring.  b_q Lambda(q+1) is the coefficient p_{2m-q}
    of the special-value polynomial p (build_p_poly), so the moments are
    formed from the stored coefficients of p, which are exact.

    Normalization: Z(-ell) equals the Hilbert-series coefficient h_ell of
    p(z)/(1-z)^{2m+1}, with no root-number prefactor: the reindexing
    j -> 2m-j that produces it is an identity on the coefficients of p,
    independent of the functional equation.  So this is the transform of
    p at e = 2m; closed_form_ok relates it to the transform of the
    deflated p when eps = -1."""
    e = p.degree  # = 2m
    ints, den = _integers(p.values())
    moments = [sum(ints[e - q] * q ** j for q in range(e + 1))
               for j in range(e + 1)]
    srow = stirling_first(e)
    scale = den * factorial(e)
    return tuple([
        Fraction((-1) ** h * sum(comb(h + j, h) * srow[h + j] * moments[j]
                                 for j in range(e + 1 - h)), scale)
        for h in range(e + 1)])


def closed_form_ok(p, zeta):
    """Whether the closed form of p equals zeta, the transform of its
    deflation (rv_transform of deflate_at_one), exactly.

    For eps = +1 the deflation is p itself.  For eps = -1,
    p = (1 - z) p_hat + p(1) z^{2m} exactly, so the transform of p at
    e = 2m is zeta + p(1) Z(z^{2m}), with (2m)! Z(z^{2m}) the last column
    of _unit_transforms(2m)."""
    e = p.degree
    want = list(zeta.exact) + [0] * (e - zeta.degree)
    if zeta.degree < e:
        ints, den = _integers(p.values())
        p1 = Fraction(sum(ints), den * factorial(e))
        want = [w + p1 * u for w, u in zip(want, _unit_transforms(e)[e])]
    return zeta_poly_closed_form(p) == tuple(want)


@dataclass(frozen=True)
class ZetaCheck:
    """Measured functional-equation residual and root-line deviation,
    with the verdict on each and ok for both.

    roots are the roots of Z's symmetric part, the part that satisfies
    Z(1-s) = eps Z(s) exactly, located by poly_roots(..., radii=False)
    on its half V (check_zeta_properties), not certified: no inclusion
    radius backs them, so the line deviation is an unchecked cross-check.
    fe_residual bounds the rest of Z."""

    fe_residual: float
    max_line_deviation: float
    roots: tuple
    fe_ok: bool
    line_ok: bool

    @property
    def ok(self):
        return self.fe_ok and self.line_ok


def check_zeta_properties(zp):
    """Check Z(s) = eps Z(1-s) on the coefficients and locate the roots
    of Z's symmetric part.

    Z's values and errors are integers n_q and r_q over one power of two
    (_integers), and _shift(n)_k = sum_{q >= k} C(q, k) n_q.  So the
    coefficient d_k = n_k - eps (-1)^k _shift(n)_k of Z(s) - eps Z(1-s) is
    exact, and fe_residual = max_k |d_k| / max_q |n_q| is rounded once;
    fe_ok is fe_residual <= _FE_TOL.

    W(y) = 2^e Z((1 + y)/2) has the coefficients _shift(n_q 2^(e-q)), its
    errors shifted the same way.  The functional equation says
    W(-y) = eps W(y), so Z's symmetric part is W = y^par V(y^2), with
    par = (1 - eps)/2 and V's coefficients w_par, w_par+2, ... taken
    exactly.  Its roots are s = 1/2 when par = 1 and s = (1 +- sqrt(v))/2
    over the roots v of V, located by one poly_roots call without radii
    after V's leading coefficients within their errors are stripped.  s
    is on Re(s) = 1/2 exactly when v is real and <= 0, and line_ok is
    max |Re sqrt(v)|/2 <= _LINE_TOL.  W's other-parity part, Z's
    departure from the functional equation, is what fe_residual bounds."""
    e = zp.degree
    par = (1 - zp.eps) // 2 if e else 0  # a constant has no roots
    ints, den = _integers(zp.values() + zp.errors())
    n, err = ints[:e + 1], ints[e + 1:]
    d = [nk - zp.eps * (-1) ** k * tk
         for k, (nk, tk) in enumerate(zip(n, _shift(n)))]
    fe_res = max(abs(x) for x in d) / max(abs(x) for x in n)
    v, verr = (_shift([c << e - q for q, c in enumerate(cs)])[par::2]
               for cs in (n, err))
    while len(v) > 1 and abs(v[-1]) <= verr[-1]:
        v.pop()
        verr.pop()
    low = 1 - den.bit_length() - e
    # tuples from lists, not generators (RealPolynomial.__post_init__)
    vp = RealPolynomial(tuple([(mp.make_mpf(from_man_exp(c, low)),
                                mp.make_mpf(from_man_exp(r, low)))
                               for c, r in zip(v, verr)]), bits=zp.bits)
    with mp.workprec(zp.bits + 16):
        half = mp.mpf(1) / 2
        rs = [mp.sqrt(x) / 2 for x in poly_roots(vp, radii=False)]
        roots = [mp.mpc(half)] * par + [
            s for r in rs for s in (half + r, half - r)]
    max_dev = float(max((abs(r.real) for r in rs), default=0))
    return ZetaCheck(
        fe_residual=fe_res,
        max_line_deviation=max_dev,
        roots=tuple(roots),
        fe_ok=fe_res <= _FE_TOL,
        line_ok=max_dev <= _LINE_TOL,
    )
