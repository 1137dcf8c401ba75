"""Unit circle to critical line: the Rodriguez-Villegas transform.

Given a real polynomial U of degree at most e with U(1) != 0, expand

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

which this module evaluates under both readings of the Stirling
convention and checks against the transform.
"""

from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from math import comb, factorial

import mpmath as mp

from .errors import ConventionError, InputError, VerificationError
from .polys import RealPolynomial, binomial_weight


_CLOSED_FORM_REL_TOL = 1e-9  # closed form vs transform, relative
_FE_GRID = 64  # complex sample points of the functional-equation check


@dataclass(frozen=True)
class ZetaPolynomial(RealPolynomial):
    """Polynomial with real coefficients satisfying (when constructed
    from circle-rooted input) Z(s) = eps Z(1-s) with zeros on
    Re(s) = 1/2.

    exact optionally holds the coefficients as Fractions when the input
    was exact.  e is the transform degree parameter; eps the
    functional-equation sign."""

    _: KW_ONLY
    e: int
    eps: int
    exact: tuple = None


def stirling_first(a):
    """Signed Stirling numbers of the first kind: row s(a, q), q = 0..a,
    with sum_q s(a, q) x^q = x (x-1) ... (x-a+1) (empty product 1 for
    a = 0).  Exact integers."""
    return _stirling_rows(a)[a]


def _stirling_rows(a_max):
    rows = [[1]]
    for k in range(a_max):
        prev = rows[-1]
        nxt = [0] * (len(prev) + 1)
        for q in range(len(nxt)):
            left = prev[q - 1] if 1 <= q <= len(prev) else 0
            right = prev[q] if q < len(prev) else 0
            nxt[q] = left - k * right
        rows.append(nxt)
    return rows


def _coefficients(u):
    """(values, errors, bits, exact) of a RealPolynomial or an ascending
    coefficient list; a list of ints and Fractions stays exact, with
    zero errors."""
    if not isinstance(u, RealPolynomial):
        u = list(u)
        if u and all(isinstance(v, (int, Fraction)) for v in u):
            return [Fraction(v) for v in u], [0] * len(u), 192, True
        u = RealPolynomial(tuple((v, 0) for v in u))
    return u.values(), u.errors(), u.bits, False


def rv_transform(poly_or_coeffs, e=None, eps=None, label=""):
    """Transform U into the line polynomial Z(s) = H(-s).

    poly_or_coeffs: a RealPolynomial or an ascending coefficient list
    (ints and Fractions are processed exactly).  e defaults to deg U and
    must be >= deg U.  U(1) must be certified nonzero, since the
    critical-line property fails without it.  eps, when given, is stored
    as the functional-equation sign; otherwise it is inferred from the
    palindrome type of U (and left at +1 if U has no palindrome type).
    """
    vals, errs, bits, exact = _coefficients(poly_or_coeffs)
    total = sum if exact else mp.fsum
    n_coeff = len(vals)
    deg = n_coeff - 1
    if e is None:
        e = deg
    if e < deg:
        raise InputError("e must be at least deg U = %d" % deg)

    with mp.workprec(bits + 16):
        u1 = total(vals)
        u1e = total(errs)
        if abs(u1) <= u1e:
            raise InputError(
                "U(1) = %s is not certified nonzero (error %s); deflate first"
                % (mp.nstr(u1, 8), mp.nstr(u1e, 8))
            )
        # H(l) for l = 0..e, then its forward differences at l = 0
        cur = [total(vals[j] * comb(e + l - j, e) for j in range(n_coeff))
               for l in range(e + 1)]
        cure = [total(errs[j] * comb(e + l - j, e) for j in range(n_coeff))
                for l in range(e + 1)]
        diffs = [cur[0]]
        diffe = [cure[0]]
        for _ in range(e):
            cur = [cur[i + 1] - cur[i] for i in range(len(cur) - 1)]
            cure = [cure[i + 1] + cure[i] for i in range(len(cure) - 1)]
            diffs.append(cur[0])
            diffe.append(cure[0])
        rows = _stirling_rows(e)
        zv = [0] * (e + 1)
        ze = [0] * (e + 1)
        for k in range(e + 1):
            fk = diffs[k] / factorial(k)
            fke = diffe[k] / factorial(k)
            for q in range(k + 1):
                s = rows[k][q]
                if s:
                    zv[q] += fk * s
                    ze[q] += fke * abs(s)
        zq = [((-1) ** q) * zv[q] for q in range(e + 1)]
        if eps is None:
            # Z(1-s) = (-1)^e eps_U Z(s) for U with palindrome sign eps_U
            slack = 0 if exact else max(abs(v) for v in vals) * mp.mpf("1e-20")
            eps = ((-1) ** e) * _palindrome_sign(vals, errs, e, slack)
        if not exact:
            coeffs = tuple((+zq[q], +ze[q]) for q in range(e + 1))
    if exact:
        with mp.workprec(bits):
            coeffs = tuple(
                (mp.mpf(c.numerator) / c.denominator, mp.mpf(0)) for c in zq
            )
    return ZetaPolynomial(
        coeffs,
        bits=bits,
        label=label,
        e=e,
        eps=eps,
        exact=tuple(zq) if exact else None,
    )


def _palindrome_sign(vals, errs, e, slack):
    """+1 or -1 when U(z) = +-z^e U(1/z) within the coefficient errors
    plus slack; +1 when neither holds."""
    pad = [0] * (e + 1 - len(vals))
    vs = list(vals) + pad
    es = list(errs) + pad
    for sign in (1, -1):
        if all(abs(vs[j] - sign * vs[e - j]) <= es[j] + es[e - j] + slack
               for j in range(e + 1)):
            return sign
    return 1


def deflate_at_one(p, eps):
    """Prepare the special-value polynomial for the transform.

    eps = -1: p(1) = 0 is forced, so divide once by (1 - z) via
    cumulative sums (q_j = sum_{i <= j} p_i); the remainder p(1) must be
    explained by the coefficient errors or VerificationError is raised.
    eps = +1: p is returned unchanged, but p(1) must be certified
    nonzero."""
    if eps not in (1, -1):
        raise InputError("eps must be +1 or -1")
    with mp.workprec(p.bits):
        total = mp.fsum(v for v in p.values())
        terr = mp.fsum(e for e in p.errors())
        if eps == 1:
            if abs(total) <= terr:
                raise VerificationError(
                    "p(1) = %s +- %s is not certified nonzero"
                    % (mp.nstr(total, 8), mp.nstr(terr, 8))
                )
            return p
        slack = mp.mpf(2) ** (8 - p.bits) * max(abs(v) for v in p.values())
        if abs(total) > terr + slack:
            raise VerificationError(
                "p(1) = %s exceeds its error bound %s; eps = -1 requires a"
                " zero at z = 1" % (mp.nstr(total, 8), mp.nstr(terr, 8))
            )
        q = []
        acc = mp.mpf(0)
        ace = mp.mpf(0)
        for v, er in p.coeffs[:-1]:
            acc += v
            ace += er
            q.append((+acc, +ace))
    return RealPolynomial(tuple(q), bits=p.bits, label=p.label + "/(1-z)")


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


def zeta_polynomial(data, vals):
    """The line polynomial of a dataset: transform of the (possibly
    deflated) special-value polynomial, with e its degree (2m, or 2m - 1
    when eps = -1)."""
    from .polys import build_p_poly

    p = build_p_poly(data, vals)
    u = deflate_at_one(p, data.root_number)
    return rv_transform(
        u, e=u.degree, eps=data.root_number, label=(data.label or "") + "-zeta"
    )


def zeta_poly_closed_form(data, vals, zeta):
    """Evaluate the explicit double-sum formula for Z under both readings
    of the Stirling convention and return the one matching the transform.

    The formula: Z(s) = sum_{h} (-s)^h sum_{j <= n-1-h}
    C(h+j, h) S(n-1, h+j) M(j), where n - 1 = 2m = w - 1 here, and
    S(a, q) is the coefficient of x^q in either prod_{i=0}^{a-1} (x - i)
    (reading A, the standard signed Stirling row) or
    prod_{i=0}^{a} (x - i) truncated to degrees 0..a (reading B, the
    verbatim defining product, which has degree a + 1).

    Normalization: Z(-ell) equals the Hilbert-series coefficient h_ell of
    p(z)/(1-z)^n, and h_ell = sum_j b~_j Lambda(j+1) C(ell+j, n-1) carries
    no root-number prefactor -- the reindexing j -> n-1-j that produces it
    is an identity on the coefficients of p, independent of the functional
    equation.  (For eps = -1 the numerator has a root at z = 1, so this is
    the same series as the deflated quotient over (1-z)^{n-1}, which is
    what the transform route computes.)  zeta is that transform, as
    zeta_polynomial(data, vals) returns it.  Returns
    (ZetaPolynomial, winning_reading, report dict).  Raises
    ConventionError when neither reading reproduces the transform."""
    n = data.weight  # = 2m + 1
    m = data.m
    eps = data.root_number
    with mp.workprec(vals.bits):
        fact = factorial(n - 1)
        mm = []
        mme = []
        for j in range(n):
            acc = mp.mpf(0)
            ace = mp.mpf(0)
            for q in range(n):
                b = binomial_weight(m, data.hodge, abs(m - q))
                pw = q ** j if (q or not j) else 0  # 0^0 = 1
                if pw:
                    acc += b * pw * mp.mpf(vals.value(q + 1))
                    ace += b * pw * mp.mpf(vals.error(q + 1))
            mm.append(acc / fact)
            mme.append(ace / fact)

        # reading B is row n truncated to degrees 0..n-1
        rows = _stirling_rows(n)
        results = {}
        for name, srow in (("A", rows[n - 1]), ("B", rows[n][:n])):
            zc = [mp.mpf(0)] * n
            zce = [mp.mpf(0)] * n
            for h in range(n):
                acc = mp.mpf(0)
                ace = mp.mpf(0)
                for j in range(n - h):
                    s = srow[h + j] if h + j < len(srow) else 0
                    if s:
                        acc += comb(h + j, h) * s * mm[j]
                        ace += comb(h + j, h) * abs(s) * mme[j]
                zc[h] = ((-1) ** h) * acc
                zce[h] = ace
            results[name] = (zc, zce)

        scale = max(abs(v) for v in zeta.values()) or mp.mpf(1)
        tol = mp.mpf(_CLOSED_FORM_REL_TOL) * scale
        report = {}
        winner = None
        for name, (zc, zce) in results.items():
            worst = mp.mpf(0)
            for q in range(n):
                ov = zeta.values()[q] if q <= zeta.degree else mp.mpf(0)
                oe = zeta.errors()[q] if q <= zeta.degree else mp.mpf(0)
                worst = max(worst, abs(zc[q] - ov) - (zce[q] + oe))
            report[name] = +worst
            if worst <= tol and winner is None:
                winner = name
        if winner is None:
            raise ConventionError(
                "neither Stirling reading matches the transform: "
                + ", ".join(
                    "%s off by %s" % (k, mp.nstr(v, 6)) for k, v in report.items()
                )
            )
        zc, zce = results[winner]
        zp = ZetaPolynomial(
            tuple((+zc[q], +zce[q]) for q in range(n)),
            bits=vals.bits,
            label=(data.label or "") + "-zeta-closed",
            e=zeta.e,
            eps=eps,
        )
    return zp, winner, report


@dataclass(frozen=True)
class ZetaCheck:
    """Measured functional-equation residual and root-line deviation."""

    fe_residual: float
    max_line_deviation: float
    roots: tuple
    ok: bool


def check_zeta_properties(zp, tol_fe=1e-18, tol_line=1e-8):
    """Verify Z(s) = eps Z(1-s) on a deterministic complex grid (relative
    residual) and locate the roots, measuring max |Re(root) - 1/2|.

    Degenerate leading coefficients (the eps = -1 drop when the closed
    form is written to full length) are stripped before root finding."""
    vals = list(zp.coeffs)
    while len(vals) > 1 and abs(vals[-1][0]) <= vals[-1][1]:
        vals.pop()
    rp = RealPolynomial(tuple(vals), bits=zp.bits, label=zp.label)
    with mp.workprec(zp.bits):
        worst = mp.mpf(0)
        scale = max(abs(v) for v, _ in vals)
        for i in range(_FE_GRID):
            s = mp.mpc(
                mp.mpf(i % 8) / 2 - 1.5, mp.mpf(i // 8) / 4 - 1
            )
            r = abs(zp(s) - zp.eps * zp(1 - s))
            worst = max(worst, r)
        fe_res = float(worst / scale)
    from .zeros import poly_roots

    if rp.degree >= 1:
        located = poly_roots(rp)
        with mp.workprec(zp.bits):
            dev = max(abs(mp.re(z) - mp.mpf(1) / 2) for z, _ in located)
        roots = tuple(z for z, _ in located)
        max_dev = float(dev)
    else:
        roots = ()
        max_dev = 0.0
    return ZetaCheck(
        fe_residual=fe_res,
        max_line_deviation=max_dev,
        roots=roots,
        ok=(fe_res <= tol_fe and max_dev <= tol_line),
    )
