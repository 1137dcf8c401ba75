"""Root location and counting tools.

Three independent devices certify where the zeros of the special-value
polynomials live:

1. poly_roots: root isolation in two stages, with a per-root inclusion
   radius.  Aberth-Ehrlich sweeps in complex128 converge all roots from
   companion-matrix seeds together; then each root is polished alone by
   Newton steps (with the Aberth correction against the complex128
   positions of the others) in fixed-point Python integers, and stops
   once its step has converged or stopped shrinking.  The polish scales
   each root by the power of two rho nearest |z|, so its integers hold
   c_j rho^j relative to max_j |c_j| rho^j: one absolute scale for all
   roots would lose to cancellation the digits of the high-degree
   zeta-polynomials.  The radius applies the classical bound (the disc
   of radius deg * |p(z)/p'(z)| about z contains a root) to every
   polynomial within the coefficient error bounds, since our
   coefficients are special values known only to such bounds: the
   largest change of p(z) over that ball, and the Horner rounding bound
   of the fixed-point evaluation, are added to |p(z)|, and the largest
   change of p'(z) and its rounding bound are subtracted from |p'(z)|.

2. trig_sign_changes: on |z| = 1 a (anti)palindromic real polynomial
   reduces to a pure cosine (eps = +1) or sine (eps = -1) polynomial in
   the angle; sign changes across a fixed grid of intervals certify the
   full complement of circle roots without locating them first.  The
   samples come from circle_values, one fixed-point evaluator on |z| = 1
   whose bound covers the coefficient errors and its own rounding.

3. count_disc_zeros: the argument principle on |z| = r for the entire
   approximant series F_{d,N}, with adaptive contour refinement until
   every phase increment is below pi/2 and the winding total lands within
   0.1 of an integer multiple of 2*pi.
"""

import math
from dataclasses import dataclass
from math import isqrt

import mpmath as mp
import numpy as np
from mpmath.libmp import mpf_cos_sin, mpf_neg, to_fixed

from .errors import CertificationError, InputError

_ABERTH_ITERS = 60  # cap on complex128 sweeps and on each root's polish steps
_FLOAT_STOP = 1e-14  # relative step that ends the complex128 sweeps
_POLISH_GUARD_BITS = 32  # fractional bits of the polish beyond p.bits + 16
_TRIG_SAMPLES = 16  # grid points per interval of the trig census


def star_discrepancy(angles):
    """Exact star discrepancy of angles (radians) against the uniform
    distribution on the circle: D* = sup_u |#{theta/2pi <= u}/n - u|,
    computed by the order-statistics formula.  Empty input gives 1.0."""
    n = len(angles)
    if n == 0:
        return 1.0
    us = sorted((float(a) / (2.0 * np.pi)) % 1.0 for a in angles)
    d = 0.0
    for i, u in enumerate(us, start=1):
        d = max(d, i / n - u, u - (i - 1) / n)
    return d


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

    def up(x):  # ceil(x 2^-f)
        return -(-x >> f)

    err = derr = ra = rb = 0
    for ej in reversed(es):
        # per step: q' gains the error of q and sqrt(2) < 2 units; q gains
        # sqrt(2) + 1 < 3 units (product and coefficient)
        rb = up(rb * t) + ra + 2
        ra = up(ra * t) + 3
        derr = up(derr * t) + err
        err = up(err * t) + ej
    return err, derr, ra, rb


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
    parts = [v._mpf_ for v in p.values()]
    m = max((exp + bc for _, man, exp, bc in parts if man), default=0)
    cs = [to_fixed(c, f - m) for c in parts]
    es = [-to_fixed(mpf_neg(e._mpf_), f - m) for e in p.errors()]
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
    _FLOAT_STOP of its root or after _ABERTH_ITERS sweeps."""
    ddesc = np.polyder(desc)
    z = seeds.copy()
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_ITERS):
            w = np.polyval(desc, z) / np.polyval(ddesc, z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            step = w / (1 - w * (1 / diff).sum(axis=1))
            step[~np.isfinite(step)] = 0
            z -= step
            if np.all(np.abs(step) <= _FLOAT_STOP * np.abs(z)):
                break
    return z


def _polish(cs, ur, ui, others, f, stop):
    """Newton steps with the Aberth correction against the complex128
    positions others of the other roots (all in the scaled variable u),
    from u = (ur + i ui) 2^-f, until the squared step (in units of
    2^-2f) is at most stop or no smaller than the one before, or after
    _ABERTH_ITERS steps."""
    one = 1 << f
    last = None
    for _ in range(_ABERTH_ITERS):
        ar, ai, br, bi = _horner(cs, ur, ui, f)
        sig = complex(np.sum(1 / (complex(ur / one, ui / one) - others)))
        if not np.isfinite(sig):
            sig = 0j
        sr, si = _fixed(sig.real, f), _fixed(sig.imag, f)
        # u -= q / (q' - q sigma), sigma = sum_j 1/(u - u_j)
        dr = br - ((ar * sr - ai * si) >> f)
        di = bi - ((ar * si + ai * sr) >> f)
        den = dr * dr + di * di
        if den == 0:
            break
        step_r = ((ar * dr + ai * di) << f) // den
        step_i = ((ai * dr - ar * di) << f) // den
        ur -= step_r
        ui -= step_i
        size = step_r * step_r + step_i * step_i
        if size <= stop or (last is not None and size >= last):
            break
        last = size
    return ur, ui


def poly_roots(p):
    """All complex roots of a RealPolynomial with certified inclusion
    radii, as a list of (root, radius) sorted by argument.

    Seeds come from the numpy companion matrix.  Aberth-Ehrlich sweeps
    in complex128 converge all roots together; each root is then
    polished alone in fixed point at p.bits + 16 plus guard bits, scaled
    by the power of two nearest its modulus, and stops once its step
    falls below 2^(8 - p.bits) of the root or stops shrinking.  Roots are
    returned at p.bits + 16.  Each radius holds a root of every
    polynomial within the coefficient error bounds e_j: it adds
    sum_j e_j |z|^j to the residual |p(z)| at the returned point and
    subtracts sum_j j e_j |z|^(j-1) from |p'(z)|, each with the rounding
    of that evaluation, and a clustered root's bound divides by
    |lead| - e_lead.  Raises InputError for a degenerate (leading
    coefficient not certifiably nonzero) input.
    """
    if p.degenerate:
        raise InputError(
            "leading coefficient is not certified nonzero; deflate first"
        )
    deg = p.degree
    if deg == 0:
        return []
    vals = [float(v) for v in p.values()]
    scale = max(abs(v) for v in vals)
    if scale == 0:
        raise InputError("zero polynomial")
    desc = np.array(vals[::-1]) / scale
    seeds = np.roots(desc)
    # tiny deterministic stagger so exactly coincident seeds separate
    idx = np.arange(len(seeds))
    seeds = seeds + 1e-12 * (((idx * 7) % 11 - 5) + 1j * ((idx * 3) % 7 - 3))
    zf = _aberth_float(desc, seeds)

    f = p.bits + 16 + _POLISH_GUARD_BITS
    stop = 1 << 2 * (f + 8 - p.bits)
    parts = [v._mpf_ for v in p.values()]
    neg_errs = [mpf_neg(e._mpf_) for e in p.errors()]
    out = []
    for i, z0 in enumerate(zf):
        # z = 2^k u with |u| near 1; q(u) = p(2^k u) 2^-m has every
        # coefficient below 1 in modulus and the largest above 1/2
        k = round(math.log2(abs(z0))) if z0 else 0
        m = max(exp + bc + j * k
                for j, (_, man, exp, bc) in enumerate(parts) if man)
        cs = [to_fixed(c, f + j * k - m) for j, c in enumerate(parts)]
        others = np.delete(zf, i) / 2.0 ** k
        ur, ui = _polish(cs, _fixed(z0.real / 2.0 ** k, f),
                         _fixed(z0.imag / 2.0 ** k, f), others, f, stop)
        if ui * ui <= stop:
            # p is real: an imaginary part below the step tolerance is
            # noise, whose sign would otherwise decide whether a positive
            # real root sorts first or last
            ui = 0
        with mp.workprec(p.bits + 16):
            z = mp.mpc(mp.mpf((ur, k - f)), mp.mpf((ui, k - f)))
            # rounding to p.bits + 16 leaves z on the fixed-point grid,
            # so the radius pass evaluates at exactly the returned z
            ur = to_fixed(z.real._mpf_, f - k)
            ui = to_fixed(z.imag._mpf_, f - k)
            ar, ai, br, bi = _horner(cs, ur, ui, f)
            # the coefficient errors scaled like cs, rounded up
            es = [-to_fixed(e, f + j * k - m) for j, e in enumerate(neg_errs)]
            perr, derr, ra, rb = _error_bounds(
                es, isqrt(ur * ur + ui * ui) + 1, f)
            lead = abs(p.values()[-1]) - p.errors()[-1]
            resid = mp.ldexp(mp.sqrt(ar * ar + ai * ai) + perr + ra, m - f)
            dp_low = mp.ldexp(mp.sqrt(br * br + bi * bi) - rb - derr,
                              m - k - f)
            if dp_low > mp.ldexp(lead, -(p.bits // 2)):
                rad = deg * resid / dp_low
            else:
                # clustered/multiple root: product-of-distances bound
                rad = (resid / lead) ** (mp.mpf(1) / deg)
            out.append((z, +rad))
    out.sort(key=lambda t: (mp.arg(t[0]) % (2 * mp.pi), abs(t[0])))
    return out


@dataclass(frozen=True)
class UnitCircleReport:
    """Verdicts for each root against the unit circle.

    verdicts[i] is "on", "off", or "uncertain"; an "uncertain" root is
    never counted as on."""

    roots: tuple
    radii: tuple
    verdicts: tuple
    tolerance: float

    @property
    def num_on(self):
        return sum(1 for v in self.verdicts if v == "on")

    @property
    def num_off(self):
        return sum(1 for v in self.verdicts if v == "off")

    @property
    def num_uncertain(self):
        return sum(1 for v in self.verdicts if v == "uncertain")

    @property
    def all_on(self):
        return self.num_on == len(self.roots) and self.roots != ()

    def on_angles(self):
        return [
            float(mp.arg(z)) % (2.0 * float(mp.pi))
            for z, v in zip(self.roots, self.verdicts)
            if v == "on"
        ]

    @property
    def discrepancy(self):
        """Star discrepancy of the angles of the certified-on roots (1.0
        when there are none)."""
        return star_discrepancy(self.on_angles())


def circle_report(p, tolerance=1e-8):
    """Locate the roots of p and classify each against |z| = 1.

    A root is "on" when both its distance from the circle and its
    inclusion radius sit within the effective tolerance
    max(tolerance, 1e-8); it is "off" when its distance exceeds radius +
    tolerance (certainly off even allowing for location error); anything
    else is "uncertain"."""
    tol = max(float(tolerance), 1e-8)
    located = poly_roots(p)
    roots = tuple(z for z, _ in located)
    radii = tuple(r for _, r in located)
    verdicts = []
    with mp.workprec(p.bits):
        for z, r in located:
            dist = abs(abs(z) - 1)
            if dist <= tol and r <= tol:
                verdicts.append("on")
            elif dist > r + tol:
                verdicts.append("off")
            else:
                verdicts.append("uncertain")
    return UnitCircleReport(
        roots=roots,
        radii=radii,
        verdicts=tuple(verdicts),
        tolerance=tol,
    )


@dataclass(frozen=True)
class TrigScan:
    """Sign-change census of the circle restriction.

    kind is "cos" or "sin"; changes[i] counts sign changes found inside
    the i-th census interval; failing lists indices of intervals with
    none.  certified_on_circle converts the census to a count of
    unit-circle roots of the original degree-2n polynomial (conjugate
    doubling, plus the forced pair z = +-1 in the sine case)."""

    kind: str
    changes: tuple
    failing: tuple
    boundary_zero: bool

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
    coefficient errors."""
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
    changes = []
    for k in range(0, len(grid), _TRIG_SAMPLES):
        # samples whose sign the bound could flip are dropped; a change
        # between the remaining neighbours is certain
        signs = [v[part] > 0 for v in values[k:k + _TRIG_SAMPLES]
                 if abs(v[part]) > bound]
        changes.append(sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1))
    return TrigScan(
        kind="cos" if eps == 1 else "sin",
        changes=tuple(changes),
        failing=tuple(i for i, c in enumerate(changes) if c == 0),
        boundary_zero=(eps == -1),
    )


@dataclass(frozen=True)
class DiscCount:
    """Argument-principle count of zeros of F_{d,N} in |z| < radius.

    radius is the contour actually used (it may differ from the request
    when a near-zero forced a perturbed retry); points is the final
    number of contour samples; min_abs the smallest |F| seen on the
    contour."""

    zeros: int
    radius: float
    requested_radius: float
    points: int
    min_abs: float


def _series_on_contour(d, conductor, r, ts):
    """F_{d,N}(r e^{2 pi i t}) for a vector of t, complex128 incremental
    series with termination when terms fall below 1e-20 of the running
    magnitude."""
    y = float((2.0 * np.pi) ** (d / 2.0) / np.sqrt(conductor))
    z = r * np.exp(2j * np.pi * ts)
    term = np.ones_like(z)
    acc = np.ones_like(z)
    scale = 1.0
    for j in range(1, 600):
        term = term * (y * z) / float(j) ** (d / 2.0)
        acc += term
        scale = max(scale, float(np.max(np.abs(acc))))
        if float(np.max(np.abs(term))) < 1e-20 * scale:
            break
    else:
        raise CertificationError("series did not converge on the contour")
    return acc


def count_disc_zeros(d, conductor, radius=1.0):
    """Count zeros of F_{d,N} inside |z| < radius by the argument
    principle, with certification.

    The contour starts at 2^10 uniform samples and doubles to 2^12 while
    any wrapped phase increment reaches pi/2; past that, offending
    segments are bisected locally.  The winding total must land within
    0.1 of 2 pi k.  A contour point too close to a zero (min |F| below
    1e-7 of the median) triggers retries at perturbed radii; persistent
    failure raises CertificationError."""
    if d < 2 or d % 2:
        raise InputError("d must be a positive even integer")
    if conductor < 1:
        raise InputError("conductor must be positive")
    r0 = float(radius)
    if not 0.5 <= r0 <= 2.0:
        raise InputError("radius must lie in [0.5, 2]")
    last_reason = ""
    for bump in (0.0, 3e-4, -3e-4, 1e-3, -1e-3, 3e-3, -3e-3):
        r = r0 * (1.0 + bump)
        ts = np.arange(2 ** 10, dtype=np.float64) / 2 ** 10
        for _ in range(24):
            fv = _series_on_contour(d, conductor, r, ts)
            mags = np.abs(fv)
            med = float(np.median(mags))
            mn = float(np.min(mags))
            if med == 0 or mn < 1e-7 * med:
                last_reason = "contour point too close to a zero"
                break
            # phase increments along the closed contour, wrapped into [-pi, pi)
            phases = np.angle(fv)
            steps = np.diff(np.concatenate([phases, phases[:1]]))
            steps = (steps + np.pi) % (2 * np.pi) - np.pi
            total = float(np.sum(steps))
            if float(np.max(np.abs(steps))) < np.pi / 2:
                k = round(total / (2 * np.pi))
                if abs(total - 2 * np.pi * k) < 0.1:
                    return DiscCount(
                        zeros=int(k),
                        radius=r,
                        requested_radius=r0,
                        points=len(ts),
                        min_abs=mn,
                    )
                last_reason = "winding total %.6f not near a multiple of 2 pi" % total
                break
            if len(ts) < 2 ** 12:
                ts = np.arange(2 * len(ts), dtype=np.float64) / (2 * len(ts))
                continue
            # local bisection of offending segments
            bad = np.nonzero(np.abs(steps) >= np.pi / 2)[0]
            if len(ts) > 2 ** 21:
                last_reason = "contour refinement exploded"
                break
            nxt = ts[(bad + 1) % len(ts)]
            nxt = np.where(nxt <= ts[bad], nxt + 1.0, nxt)
            mids = ((ts[bad] + nxt) / 2.0) % 1.0
            ts = np.unique(np.concatenate([ts, mids]))
        else:
            last_reason = "refinement loop exhausted"
    raise CertificationError(
        "could not certify the winding number at radius %.6g: %s"
        % (r0, last_reason or "unknown")
    )


def disc_transition_table(d, n_limit, radius=1.0):
    """Conductor thresholds where the |z| < radius zero count of F_{d,N}
    drops.  Returns [(N, count at N), ...] listing each first conductor
    with a new (lower) count, exploiting that the count is nonincreasing
    in N.  Binary searches each drop, so large n_limit is cheap."""
    if n_limit < 1:
        raise InputError("n_limit must be at least 1")
    cache = {}

    def cnt(n):
        if n not in cache:
            cache[n] = count_disc_zeros(d, n, radius).zeros
        return cache[n]

    out = [(1, cnt(1))]
    cur = out[0][1]
    lo = 1
    while cur > cnt(n_limit):
        # smallest n with cnt(n) < cur
        hi = n_limit
        l = lo
        while l + 1 < hi:
            mid = (l + hi) // 2
            if cnt(mid) < cur:
                hi = mid
            else:
                l = mid
        out.append((hi, cnt(hi)))
        cur = cnt(hi)
        lo = hi
    return out
