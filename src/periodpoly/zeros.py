"""Root location and counting tools.

Three independent devices certify where the zeros of the special-value
polynomials live:

1. poly_roots: root isolation with a per-root inclusion radius: complex128
   Aberth-Ehrlich sweeps down to their rounding floor, then a fixed-point
   polish of each root alone, scaled by the power of two nearest |z| (one
   absolute scale would lose to cancellation the digits of the
   high-degree zeta-polynomials), in real arithmetic by synthetic
   division, its first step at about half the bits.  The classical radius
   deg |p/p'|, widened to hold for every polynomial within the coefficient
   errors, is a separate pass at the returned roots, skipped for callers
   that read no radius.

2. trig_sign_changes: on |z| = 1 a (anti)palindromic real polynomial
   reduces to a pure cosine (eps = +1) or sine (eps = -1) polynomial in
   the angle; sign changes across a fixed grid of intervals certify the
   full complement of circle roots, and bisection brackets each angle.
   The samples come from circle_values, one fixed-point evaluator on
   |z| = 1 whose bound covers the coefficient errors and its rounding.

3. count_disc_zeros: F_{d,N}(z) = G(y z) with G(u) = sum_j u^j/(j!)^{d/2},
   y = (2 pi)^{d/2}/sqrt(N), has only negative real zeros (1/j! is a
   multiplier sequence: Polya & Schur, J. reine angew. Math. 144, 1914).
   They are bracketed on the negative axis, each end's sign proved in
   integers; a complex128 winding count checks that none was missed.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from numbers import Integral

import mpmath as mp
import numpy as np
from mpmath.libmp import (fone, from_int, from_man_exp, mpf_abs, mpf_add,
                          mpf_cos_sin, mpf_div, mpf_gt, mpf_mul, mpf_neg,
                          mpf_pi, mpf_pow, mpf_shift, mpf_sqrt, mpf_sub,
                          round_ceiling, round_floor, round_nearest, to_fixed,
                          to_rational)

from .errors import CertificationError, InputError

_ABERTH_ITERS = 60  # cap on complex128 sweeps and on each root's polish steps
_FLOAT_STOP = 1e-14  # relative step that ends the complex128 sweeps
_POLISH_GUARD_BITS = 32  # fractional bits of the polish beyond p.bits + 16
_TRIG_SAMPLES = 16  # grid points per interval of the trig census
_CIRCLE_TOL = 1e-8  # circle_report's limit on a root's distance and radius


def star_discrepancy(intervals):
    """Bounds (lo, hi) on the star discrepancy D* = sup_u |#{theta/2pi <=
    u}/n - u| of n angles (1.0 for none), each in an interval (a, b) of
    radians shorter than a turn; exact angles (a = b) give lo = hi.  In the
    formula D* = max_i max(i/n - u_i, u_i - (i-1)/n) (Kuipers & Niederreiter,
    1974, ch. 2) the i-th smallest turn u_i lies between the i-th smallest
    a and b in turns, mod 1 (an interval across 0 spans all); each step in
    doubles is monotone, so the bounds hold for D* so computed at any
    points of the intervals."""
    n = len(intervals)
    if n == 0:
        return 1.0, 1.0
    turns = [[float(x) / (2.0 * np.pi) % 1.0 for x in ab] for ab in intervals]
    turns = [(u, v) if u <= v else (0.0, 1.0) for u, v in turns]
    lo = hi = 0.0
    for i, (u, v) in enumerate(zip(sorted(u for u, _ in turns),
                                   sorted(v for _, v in turns)), start=1):
        lo = max(lo, i / n - v, u - (i - 1) / n)
        hi = max(hi, i / n - u, v - (i - 1) / n)
    return lo, hi


def _fixed(x, f):
    """floor(x 2^f) for a float x, exactly."""
    n, d = float(x).as_integer_ratio()
    return (n << f) // d


def _horner(cs, ur, ui, f):
    """q(u) and q'(u) for q(u) = sum_j cs[j] u^j 2^-f at u = (ur + i ui)
    2^-f, by one Horner pass on integers; all four results are in units
    of 2^-f.  Each product is truncated, so every step is off by less
    than sqrt(2) units."""
    ar = ai = br = bi = 0
    for c in reversed(cs):
        br, bi = (((br * ur - bi * ui) >> f) + ar,
                  ((br * ui + bi * ur) >> f) + ai)
        ar, ai = (((ar * ur - ai * ui) >> f) + c,
                  (ar * ui + ai * ur) >> f)
    return ar, ai, br, bi


def _error_bounds(es, t, f):
    """Upper bounds, in units of 2^-f, on sum_j es[j] |u|^j, on its
    derivative sum_j j es[j] |u|^(j-1), and on how far _horner's q(u) and
    q'(u) lie from those of the exact coefficients, given that each cs[j]
    is within one unit of its exact value, for every u with |u| 2^f <= t."""
    err = derr = ra = rb = 0
    for ej in reversed(es):
        # per step, products rounded up: q' gains the error of q and
        # sqrt(2) < 2 units; q gains sqrt(2) + 1 < 3 units (product, c_j)
        rb = -(-rb * t >> f) + ra + 2
        ra = -(-ra * t >> f) + 3
        derr = -(-derr * t >> f) + err
        err = -(-err * t >> f) + ej
    return err, derr, ra, rb


def _scaled(p, k, f):
    """(m, cs, es): q(u) = p(2^k u) 2^-m, largest coefficient in [1/2, 1),
    has coefficients cs and error bounds es (rounded up) in units 2^-f."""
    parts = [v._mpf_ for v in p.values()]
    m = max((exp + bc + j * k for j, (_, man, exp, bc) in enumerate(parts)
             if man), default=0)
    sh = [f + j * k - m for j in range(len(parts))]
    return m, [to_fixed(c, s) for c, s in zip(parts, sh)], [
        -to_fixed(mpf_neg(e._mpf_), s) for e, s in zip(p.errors(), sh)]


def circle_values(p, thetas):
    """p(e^{i theta}) at each angle theta (an mpf) in fixed point, with one
    bound for all of them.

    Returns (values, bound, exp): values[i] = (re, im) and bound are
    integers in units of 2^exp, and every polynomial within p's
    coefficient errors takes at exactly e^{i theta_i} a value within
    bound of values[i].  The coefficients are scaled so the largest lies
    in [1/2, 1), with f = p.bits + 32 fractional bits, and each point u is
    e^{i theta} cut to that grid, so |u - e^{i theta}| < 2 units and
    |u| 2^f <= t = 2^f + 2.  The bound adds the coefficient errors
    sum_j e_j, the Horner rounding, and 2 units times sum_j j |a_j|
    t^(j-1), which bounds how far p moves between u and e^{i theta}."""
    f = p.bits + 32
    m, cs, es = _scaled(p, 0, f)
    t = (1 << f) + 2
    err, _, ra, _ = _error_bounds(es, t, f)
    _, slope, _, _ = _error_bounds([abs(c) + 1 for c in cs], t, f)
    bound = err + ra + (-(-2 * slope >> f))
    values = []
    for theta in thetas:
        c, s = mpf_cos_sin(theta._mpf_, f + 8)
        values.append(_horner(cs, to_fixed(c, f), to_fixed(s, f), f)[:2])
    return values, bound, m - f


def _aberth_float(desc, seeds):
    """complex128 Aberth-Ehrlich sweeps over all roots of the polynomial
    with descending coefficients desc, until every step is below
    _FLOAT_STOP of its root, or the largest relative step stops shrinking
    within 10 _FLOAT_STOP (the rounding floor: degree-30 products hover
    at 1e-14 to 6e-14, clusters far above), or after _ABERTH_ITERS sweeps."""
    ddesc = np.polyder(desc)
    z, last = seeds.copy(), math.inf
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_ITERS):
            w = np.polyval(desc, z) / np.polyval(ddesc, z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            step = w / (1 - w * (1 / diff).sum(axis=1))
            step[~np.isfinite(step)] = 0
            z -= step
            rel = np.max(np.abs(step) / np.abs(z))  # nan if a root is 0
            if np.all(np.abs(step) <= _FLOAT_STOP * np.abs(z)) or \
                    last <= rel <= 10 * _FLOAT_STOP:
                break
            last = rel
    return z


def _real_horner(cs, ur, ui, f):
    """_horner's four results by real arithmetic: Knuth's synthetic
    division of q by z^2 - r z + s, r = 2 Re u and s = |u|^2 (TAOCP
    vol. 2, 4.6.4), four products per coefficient instead of eight.
    b_k = c_k + r b_{k+1} - s b_{k+2} gives q(u) = b_1 u + c_0 - s b_2;
    the quotient B = sum_{k>=2} b_k z^(k-2), divided the same way (d_k),
    gives B(u) = d_3 u + b_2 - s d_4 and q'(u) = 2 i Im(u) B(u) + b_1.
    Each step truncates once; the results differ from _horner's by less
    than twice its rounding bound (_error_bounds)."""
    r, s = 2 * ur, (ur * ur + ui * ui) >> f
    b1 = b2 = d1 = d2 = 0
    for c in reversed(cs[1:]):
        # d1, d2 = d_{k+2}, d_{k+3} runs two steps behind b1, b2 = b_k, b_{k+1}
        d1, d2 = b2 + ((r * d1 - s * d2) >> f), d1
        b1, b2 = c + ((r * b1 - s * b2) >> f), b1
    qr = cs[0] + ((b1 * ur - s * b2) >> f)
    br = b2 + ((d1 * ur - s * d2) >> f)
    bi = (d1 * ui) >> f
    return qr, (b1 * ui) >> f, b1 - (2 * ui * bi >> f), 2 * ui * br >> f


def _newton_step(cs, ur, ui, others, f):
    """The Newton step with the Aberth correction, u -= q / (q' - q sigma),
    sigma = sum_j 1/(u - u_j) over the complex128 positions others of the
    other roots, at u = (ur + i ui) 2^-f; None where the denominator
    vanishes."""
    ar, ai, br, bi = _real_horner(cs, ur, ui, f)
    u = complex(ur / (1 << f), ui / (1 << f))
    try:
        sig = sum(1 / (u - w) for w in others)
    except ZeroDivisionError:  # u on another root's position
        sig = 0j
    if not cmath.isfinite(sig):
        sig = 0j
    sr, si = _fixed(sig.real, f), _fixed(sig.imag, f)
    dr = br - ((ar * sr - ai * si) >> f)
    di = bi - ((ar * si + ai * sr) >> f)
    den = dr * dr + di * di
    if den == 0:
        return None
    return ((ar * dr + ai * di) << f) // den, ((ai * dr - ar * di) << f) // den


def _polish(cs, cut, h, u0, others, f, stop):
    """Newton-Aberth steps from the complex128 seed u0 (in the scaled
    variable u, like others) until the squared step (in units of 2^-2f)
    is at most stop or no smaller than the one before, or after
    _ABERTH_ITERS steps; returns u in units of 2^-f.  The first step runs
    on cut, the coefficients cs cut to h fractional bits, the rest on
    cs."""
    ur, ui = _fixed(u0.real, h) << f - h, _fixed(u0.imag, h) << f - h
    last = None
    for i in range(_ABERTH_ITERS):
        coeffs, g = (cut, h) if i == 0 else (cs, f)
        step = _newton_step(coeffs, ur >> f - g, ui >> f - g, others, g)
        if step is None:
            break
        dr, di = step[0] << f - g, step[1] << f - g
        ur, ui = ur - dr, ui - di
        size = dr * dr + di * di
        if size <= stop or (last is not None and size >= last):
            break
        last = size
    return ur, ui


def _locate(p):
    """The roots of p, located but not certified: (f, scaled, located)
    with scaled[k] = _scaled(p, k, f) and located the sorted list of
    (k, ur, ui, root), root = (ur + i ui) 2^(k - f) rounded to p.bits + 16
    (see poly_roots)."""
    deg = p.degree
    # a power of two brings the coefficients into double range (the roots
    # do not move); only inputs outside it are shifted
    tops = [exp + bc for _, man, exp, bc in (v._mpf_ for v in p.values())
            if man]
    shift = -max(tops) if max(tops) >= 1024 or min(tops) < -1021 else 0
    vals = [float(mp.ldexp(v, shift)) for v in p.values()]
    desc = np.array(vals[::-1]) / max(abs(v) for v in vals)
    seeds = np.roots(desc)
    if len(seeds) != deg or not np.all(np.isfinite(seeds)):
        raise CertificationError(
            "%d finite complex128 seeds for degree %d: the coefficients span"
            " more than doubles hold" % (np.sum(np.isfinite(seeds)), deg))
    # tiny deterministic stagger so exactly coincident seeds separate
    idx = np.arange(len(seeds))
    seeds = seeds + 1e-12 * (((idx * 7) % 11 - 5) + 1j * ((idx * 3) % 7 - 3))
    zf = _aberth_float(desc, seeds).tolist()

    f = p.bits + 16 + _POLISH_GUARD_BITS
    stop = 1 << 2 * (f + 8 - p.bits)
    prec, rnd = p.bits + 16, round_nearest
    ks = [round(math.log2(abs(z0))) if z0 else 0 for z0 in zf]
    scaled = {k: _scaled(p, k, f) for k in set(ks)}
    # the first step takes a seed's ~46 correct bits to ~92: half of f,
    # and 24 bits for the rounding of a degree-40 evaluation, hold them
    h = f // 2 + 24
    cut = {k: [c >> f - h for c in scaled[k][1]] for k in scaled}
    out = []
    for i, (z0, k) in enumerate(zip(zf, ks)):
        # z = 2^k u with |u| near 1
        others = [w / 2.0 ** k for j, w in enumerate(zf) if j != i]
        ur, ui = _polish(scaled[k][1], cut[k], h, z0 / 2.0 ** k, others, f,
                         stop)
        if ui * ui <= stop:
            # p is real: an imaginary part under the step tolerance is noise;
            # its sign would put a positive real root first or last
            ui = 0
        # rounding to p.bits + 16 leaves z on the fixed-point grid, so the
        # radius pass evaluates at exactly the returned z
        re, im = (from_man_exp(x, k - f, prec, rnd) for x in (ur, ui))
        ur, ui = to_fixed(re, f - k), to_fixed(im, f - k)
        x, y = math.ldexp(ur, k - f), math.ldexp(ui, k - f)
        out.append((math.atan2(y, x) % (2 * math.pi), math.hypot(x, y), i,
                    (k, ur, ui, mp.make_mpc((re, im)))))
    return f, scaled, [t[3] for t in sorted(out)]


def poly_roots(p, radii=True):
    """All complex roots of a RealPolynomial with certified inclusion
    radii, as a list of (root, radius) ordered by the double-precision
    argument in [0, 2 pi) and modulus of each returned root, ties kept in
    seed order, whatever the caller's precision.  With radii=False, the
    same roots in the same order, located but not certified: the radius
    pass is skipped.

    The numpy companion-matrix seeds (from coefficients shifted by a power
    of two where they fall outside double range) are converged by
    _aberth_float; each root is then polished alone in fixed point at
    p.bits + 16 plus guard bits, scaled by the power of two 2^k nearest
    its modulus (once per k), with real arithmetic (_real_horner) and a
    first step at about half those bits, until its step falls below
    2^(8 - p.bits) of the root or stops shrinking, and returned at
    p.bits + 16.  Each radius holds a root of every polynomial within the
    coefficient error bounds e_j: it adds sum_j e_j |z|^j to |p(z)| and
    subtracts sum_j j e_j |z|^(j-1) from |p'(z)|, each evaluated by
    _horner at the returned root with its rounding, in libmp rounded to
    nearest at p.bits + 16; a cluster's bound divides by |lead| - e_lead.
    Raises InputError for a degenerate (leading coefficient not
    certifiably nonzero) input, and CertificationError when the
    complex128 seeds are not deg finite numbers.
    """
    if p.degenerate:
        raise InputError(
            "leading coefficient is not certified nonzero; deflate first"
        )
    deg = p.degree
    if deg == 0:
        return []
    f, scaled, located = _locate(p)
    if not radii:
        return [z for _, _, _, z in located]
    prec, rnd = p.bits + 16, round_nearest
    lead = mpf_sub(mpf_abs(p.values()[-1]._mpf_, prec, rnd),
                   p.errors()[-1]._mpf_, prec, rnd)
    out = []
    for k, ur, ui, z in located:
        m, cs, es = scaled[k]
        ar, ai, br, bi = _horner(cs, ur, ui, f)
        perr, derr, ra, rb = _error_bounds(es, isqrt(ur * ur + ui * ui) + 1, f)
        resid = mpf_sqrt(from_int(ar * ar + ai * ai), prec, rnd)
        dp_low = mpf_sqrt(from_int(br * br + bi * bi), prec, rnd)
        for a, b in ((perr, rb), (ra, derr)):
            resid = mpf_add(resid, from_int(a), prec, rnd)
            dp_low = mpf_sub(dp_low, from_int(b), prec, rnd)
        resid, dp_low = mpf_shift(resid, m - f), mpf_shift(dp_low, m - k - f)
        if mpf_gt(dp_low, mpf_shift(lead, -(p.bits // 2))):
            rad = mpf_div(mpf_mul(resid, from_int(deg), prec, rnd), dp_low,
                          prec, rnd)
        else:
            # clustered/multiple root: product-of-distances bound
            rad = mpf_pow(mpf_div(resid, lead, prec, rnd),
                          mpf_div(fone, from_int(deg), prec, rnd), prec, rnd)
        out.append((z, mp.make_mpf(rad)))
    return out


@dataclass(frozen=True)
class UnitCircleReport:
    """Verdicts for each root against the unit circle.

    verdicts[i] is "on", "off", or "uncertain"; an "uncertain" root is
    never counted as on."""

    roots: tuple
    radii: tuple
    verdicts: tuple

    @property
    def num_on(self):
        return sum(1 for v in self.verdicts if v == "on")


def circle_report(p):
    """Locate the roots of p and classify each against |z| = 1.

    A root is "on" when both its distance from the circle and its
    inclusion radius are at most _CIRCLE_TOL; it is "off" when its
    distance exceeds radius + _CIRCLE_TOL (certainly off even allowing
    for location error); anything else is "uncertain"."""
    located = poly_roots(p)
    verdicts = []
    with mp.workprec(p.bits):
        for z, r in located:
            dist = abs(abs(z) - 1)
            if dist <= _CIRCLE_TOL and r <= _CIRCLE_TOL:
                verdicts.append("on")
            elif dist > r + _CIRCLE_TOL:
                verdicts.append("off")
            else:
                verdicts.append("uncertain")
    # tuples of lists, not of generators: see RealPolynomial.__post_init__
    return UnitCircleReport(roots=tuple([z for z, _ in located]),
                            radii=tuple([r for _, r in located]),
                            verdicts=tuple(verdicts))


@dataclass(frozen=True)
class TrigScan:
    """Sign-change census of the circle restriction.

    kind is "cos" or "sin"; changes[i] counts sign changes found inside
    the i-th census interval; failing lists indices of intervals with
    none.  certified_on_circle converts the census to a count of
    unit-circle roots of the original degree-2n polynomial (conjugate
    doubling, plus the forced pair z = +-1 in the sine case).  brackets
    holds an angle interval (lo, hi) in (0, pi) per sign change; angles
    and dstar are None unless all 2n roots are certified."""

    kind: str
    changes: tuple
    failing: tuple
    brackets: tuple
    angles: tuple
    dstar: tuple

    @property
    def certified_on_circle(self):
        return 2 * sum(self.changes) + (2 if self.kind == "sin" else 0)


def trig_sign_changes(P, eps):
    """Census the circle values of p through its folded half P.

    For eps = +1, p(e^{i theta}) = 2 e^{i m theta} C(theta) with
    C(theta) = sum_j a_j cos(j theta) = Re P(e^{i theta}); each of the
    n = deg P intervals ((2k+1) pi/(2n+1), (2k+3) pi/(2n+1)), k = 0..n-1,
    is scanned for a sign change of C.  For eps = -1 the circle
    restriction is the sine polynomial S(theta) = sum_j a_j sin(j theta)
    = Im P(e^{i theta}), whose zeros theta = 0 and (by oddness) theta = pi
    are exact; its other n - 1 zeros in (0, pi) are sought on
    (2k pi/(2n+1), (2k+2) pi/(2n+1)), k = 1..n-1.  P is evaluated by
    circle_values, and a sign change counts only between samples whose
    value beats its bound, so it holds for every polynomial within P's
    coefficient errors.  Those two samples bracket a root, halved by one
    circle_values call a round until the midpoint's sign is undecided or
    the width below 2^-P.bits.  With all 2n roots of p certified, angles
    holds the brackets, their mirrors 2 pi - theta and, for eps = -1, 0 and
    pi, rounded outward; dstar is star_discrepancy(angles) widened by 2^-50,
    past its doubles' rounding (at most 2^-51), so it bounds the true D*."""
    if eps not in (1, -1):
        raise InputError("eps must be +1 or -1")
    n = P.degree
    if n < 1:
        raise InputError("folded polynomial must have positive degree")
    part = 0 if eps == 1 else 1  # C = Re P; S = Im P, scanned from k = 1
    den = 2 * n + 1
    grid = []
    with mp.workprec(P.bits):
        width = 2 * mp.pi / den
        inset = width * mp.mpf("1e-9")
        for k in range(part, n):
            lo = mp.pi * (2 * k + 1 - part) / den
            grid += [lo + inset + (width - 2 * inset) * i / (_TRIG_SAMPLES - 1)
                     for i in range(_TRIG_SAMPLES)]
    values, bound, _ = circle_values(P, grid)
    changes, brackets = [], []
    for k in range(0, len(grid), _TRIG_SAMPLES):
        # samples whose sign the bound could flip are dropped; a change
        # between the remaining neighbours is certain
        kept = [(theta, v[part] > 0) for theta, v in
                zip(grid[k:k + _TRIG_SAMPLES], values[k:k + _TRIG_SAMPLES])
                if abs(v[part]) > bound]
        found = [[t0, t1, s0] for (t0, s0), (t1, s1) in zip(kept, kept[1:])
                 if s0 != s1]
        changes.append(len(found))
        brackets += found
    angles = dstar = None
    # a midpoint rounded at P.bits + 8 lies strictly inside a bracket in
    # (0, pi) at least 2^-P.bits wide
    with mp.workprec(P.bits + 8):
        live = brackets
        while live:
            mids = [(lo + hi) / 2 for lo, hi, _ in live]
            values, bound, _ = circle_values(P, mids)
            live, halved = [], live
            for b, mid, v in zip(halved, mids, values):
                if abs(v[part]) > bound:
                    b[(v[part] > 0) != b[2]] = mid  # lo if mid's sign is lo's
                    if b[1] - b[0] >= mp.ldexp(1, -P.bits):
                        live.append(b)
        brackets = tuple([(lo, hi) for lo, hi, _ in brackets])
        if len(brackets) == n - part:
            pi = [mp.make_mpf(mpf_pi(P.bits, r))
                  for r in (round_floor, round_ceiling)]
            ends = [(mp.mpf(0), mp.mpf(0)), tuple(pi)] if part else []
            angles = tuple(sorted(ends + list(brackets) + [
                (mp.fsub(2 * pi[0], hi, exact=True),
                 mp.fsub(2 * pi[1], lo, exact=True)) for lo, hi in brackets]))
            lo, hi = star_discrepancy(angles)
            dstar = (max(0.0, lo - 2.0 ** -50), hi + 2.0 ** -50)
    return TrigScan(kind="cos" if eps == 1 else "sin", changes=tuple(changes),
                    failing=tuple([k for k, c in enumerate(changes) if not c]),
                    brackets=brackets, angles=angles, dstar=dstar)


@dataclass(frozen=True)
class DiscCount:
    """The zeros -x of F_{d,N} in |z| < radius, each x inside one bracket
    (lo, hi) of Fractions in roots; points counts the winding samples."""

    zeros: int
    radius: float
    points: int
    roots: tuple


def _neg_series(k, s):
    """a_j = (-s)^j/(j!)^k in doubles, so that G(-s x) = sum_j a_j x^j, up
    to the first term below 2^-52 of the largest with each later one at
    most half the one before ((j + 1)^k >= 2 s)."""
    # Python floats reach inf without numpy's overflow warning; a peak
    # past doubles ends the list at inf
    a, peak, s = [1.0], 1.0, float(s)
    while peak < math.inf and (len(a) ** k < 2 * s
                               or abs(a[-1]) >= 2.0 ** -52 * peak):
        a.append(a[-1] * -s / len(a) ** k)
        peak = max(peak, abs(a[-1]))
    return np.array(a)


def _exact_sign(k, u, terms):
    """The sign of G(-u) at the double u, proved, or 0: the first terms + 1
    terms, summed in integers, must beat 2 t_{terms+1}, which bounds the
    tail while (terms + 2)^k >= 2 u."""
    p, q = float(u).as_integer_ratio()
    b = den = 1  # the sum is b/den, den = q^J (J!)^k, by Horner inward
    for j in range(terms, 0, -1):
        den *= q * j ** k
        b = den - p * b
    proved = q * (terms + 2) ** k >= 2 * p and \
        abs(b) * q * (terms + 1) ** k > 2 * p ** (terms + 1)
    return ((b > 0) - (b < 0)) if proved else 0


def _bracket(k, a, s, lo, hi, sign, slack):
    """Bisect (lo, hi), a sign change of G(-u) with that sign at lo, in
    doubles while the midpoint's value beats slack, the rounding bound at
    hi, and prove the signs at both ends."""
    coeffs = a[::-1].tolist()
    while lo < (lo + hi) / 2 < hi:
        mid, val = (lo + hi) / 2, 0.0
        for c in coeffs:
            val = val * (mid / s) + c
        if abs(val) <= slack:
            break
        lo, hi = (mid, hi) if (val > 0) == (sign > 0) else (lo, mid)
    if [_exact_sign(k, u, len(a) - 1) for u in (lo, hi)] != [sign, -sign]:
        raise CertificationError("unproved sign change on (%r, %r)" % (lo, hi))
    return lo, hi


def count_disc_zeros(d, conductor, radius=1.0):
    """Count the zeros of F_{d,N} in |z| < radius, bracketed on the
    negative axis: sign changes of G(-u) in doubles at u = v^k, v in steps
    of 1/8 to 2 v_r + 4 (v_r on the circle; the zeros lie about pi/(k
    sin(pi/k)), in [1, pi/2], apart in v), bisected, with the ends' signs
    proved.  A winding count on 2^10 points, midway across the first gap
    between brackets whose middle is at or beyond the circle, must equal
    the brackets inside it.  A series term past doubles (d >= 84 at
    N = 1), a sign not proved, a winding that disagrees or a bracket
    across the radius raises CertificationError."""
    if not (isinstance(d, Integral) and isinstance(conductor, Integral)
            and d >= 2 and d % 2 == 0 and conductor >= 1):
        raise InputError("need an even d >= 2 and a conductor >= 1")
    radius = float(radius)
    if not 0.5 <= radius <= 2.0:
        raise InputError("radius must lie in [0.5, 2]")
    k = d // 2
    v_r = (radius * (2 * math.pi) ** k / math.sqrt(conductor)) ** (1 / k)
    v = np.arange(math.ceil(16 * v_r) + 33) / 8
    s, x = v[-1] ** k, (v / v[-1]) ** k
    a = _neg_series(k, s)
    if not math.isfinite(a[-1]):
        raise CertificationError("d = %d is too large for the double-precision"
                                 " grid at conductor %d" % (d, conductor))
    vals = np.polyval(a[::-1], x)
    # a sign counts where the value beats its rounding: J units from x,
    # 3 J from the coefficients and 2 J from Horner's rule
    slack = 6 * len(a) * 2.0 ** -52 * np.polyval(np.abs(a[::-1]), x)
    signs = np.where(np.abs(vals) > slack, np.sign(vals), 0)
    kept = np.flatnonzero(signs)
    cells = [(v[i], v[j], signs[i], slack[j]) for i, j in zip(kept, kept[1:])
             if signs[i] != signs[j]]
    ends = [0.0] + [e for c in cells for e in c[:2]] + [v[-1]]
    # the last gap's middle lies past v_r + 2, so one qualifies
    i = next(i for i in range(0, len(ends), 2)
             if ends[i] + ends[i + 1] >= 2 * v_r)
    brackets = [_bracket(k, a, s, lo ** k, hi ** k, sign, tol)
                for lo, hi, sign, tol in cells[:i // 2]]
    aw = _neg_series(k, ((ends[i] + ends[i + 1]) / 2) ** k)
    n = 2 ** 10
    phases = np.angle(np.polyval(aw[::-1],
                                 -np.exp(2j * np.pi * np.arange(n) / n)))
    steps = (np.diff(phases, append=phases[0]) + np.pi) % (2 * np.pi) - np.pi
    if not np.max(np.abs(steps)) < np.pi / 2 or \
            round(np.sum(steps) / (2 * np.pi)) != len(brackets):
        raise CertificationError("the winding count does not confirm the "
                                 "%d brackets" % len(brackets))
    # y = (2 pi)^k/sqrt(N) between Fractions to 2^-128, inside the brackets
    pi_lo, pi_hi = (Fraction(*to_rational(mpf_pi(128, rnd)))
                    for rnd in (round_floor, round_ceiling))
    root = isqrt(conductor << 256)
    y_lo, y_hi = ((2 * pi_lo) ** k * 2 ** 128 / (root + 1),
                  (2 * pi_hi) ** k * 2 ** 128 / root)
    roots = [(Fraction(lo) / y_hi, Fraction(hi) / y_lo) for lo, hi in brackets]
    if any(lo < radius <= hi for lo, hi in roots):
        raise CertificationError("a zero lies too near |z| = %r" % radius)
    inside = tuple([(lo, hi) for lo, hi in roots if hi < radius])
    return DiscCount(zeros=len(inside), radius=radius, points=n, roots=inside)


def disc_transition_table(d, n_limit, radius=1.0):
    """[(N, count at N), ...] for each first conductor up to n_limit with
    a new (lower) count of zeros of F_{d,N} in |z| < radius.  The zeros of
    F_{d,N} are those of F_{d,1} times sqrt(N), so the zero -x leaves the
    disc at N = ceil(radius^2/x^2), read exactly from its bracket or else
    CertificationError."""
    if n_limit < 1:
        raise InputError("n_limit must be at least 1")
    count = count_disc_zeros(d, 1, radius)
    r2 = Fraction(count.radius) ** 2
    drops = [(math.ceil(r2 / hi ** 2), math.ceil(r2 / lo ** 2))
             for lo, hi in count.roots]
    if any(first <= n_limit and first != last for first, last in drops):
        raise CertificationError("a zero of F_{%d,1} leaves |z| < %g at an "
                                 "undecided conductor" % (d, radius))
    firsts = sorted({first for first, _ in drops if first <= n_limit})
    return [(1, count.zeros)] + [
        (n, sum(1 for first, _ in drops if first > n)) for n in firsts]
