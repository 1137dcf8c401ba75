"""Root location and counting tools.

Three independent devices certify where the zeros of the special-value
polynomials live:

1. poly_roots: Aberth-Ehrlich refinement of companion-matrix seeds, with
   a per-root inclusion radius.  The radius combines the classical bound
   (the disc of radius deg * |p(z)/p'(z)| about z contains a root) with a
   first-order coefficient-perturbation term, since our coefficients are
   special values known only to an explicit error bound.

2. trig_sign_changes: on |z| = 1 a (anti)palindromic real polynomial
   reduces to a pure cosine (eps = +1) or sine (eps = -1) polynomial in
   the angle; sign changes across a fixed grid of intervals certify the
   full complement of circle roots without locating them first.

3. count_disc_zeros: the argument principle on |z| = r for the entire
   approximant series F_{d,N}, with adaptive contour refinement until
   every phase increment is below pi/2 and the winding total lands within
   0.1 of an integer multiple of 2*pi.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import CertificationError, InputError
from .polys import ApproximantSeries

_ABERTH_ITERS = 60  # Aberth-Ehrlich sweeps before poly_roots stops
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


def poly_roots(p):
    """All complex roots of a RealPolynomial with certified inclusion
    radii, as a list of (root, radius) sorted by argument.

    Seeds come from the numpy companion matrix at double precision;
    Aberth-Ehrlich iteration then polishes all roots simultaneously at
    p.bits.  Each radius covers both the residual |p| at the returned
    point and the coefficient error bounds.  Raises InputError for a
    degenerate (leading coefficient not certifiably nonzero) input.
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
    seeds = np.roots([v / scale for v in reversed(vals)])
    with mp.workprec(p.bits + 16):
        zs = [mp.mpc(complex(s)) for s in seeds]
        # tiny deterministic stagger so exactly coincident seeds separate
        zs = [
            z + mp.mpc(1e-12 * ((k * 7) % 11 - 5), 1e-12 * ((k * 3) % 7 - 3))
            for k, z in enumerate(zs)
        ]
        dp = p.derivative()
        eps_stop = mp.mpf(2) ** (8 - p.bits)
        for _ in range(_ABERTH_ITERS):
            moved = mp.mpf(0)
            for i in range(len(zs)):
                pz = p(zs[i])
                dpz = dp(zs[i])
                if pz == 0:
                    continue
                if dpz == 0:
                    zs[i] += mp.mpf("1e-8")
                    continue
                w = pz / dpz
                s = mp.fsum(
                    (1 / (zs[i] - zs[j]) for j in range(len(zs)) if j != i),
                    absolute=False,
                )
                denom = 1 - w * s
                step = w if denom == 0 else w / denom
                zs[i] -= step
                moved = max(moved, abs(step) / (1 + abs(zs[i])))
            if moved < eps_stop:
                break
        out = []
        for z in zs:
            pz, perr = p.eval_with_error(z)
            dpz = dp(z)
            lead = abs(p.values()[-1])
            if abs(dpz) > mp.mpf(2) ** (-p.bits // 2) * lead:
                rad = deg * (abs(pz) + perr) / abs(dpz)
            else:
                # clustered/multiple root: product-of-distances bound
                rad = ((abs(pz) + perr) / lead) ** (mp.mpf(1) / deg)
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

    kind is "cos" or "sin"; intervals holds (lo, hi) angle pairs;
    changes[i] counts sign changes found inside intervals[i]; failing
    lists indices of intervals with none.  certified_on_circle converts
    the census to a count of unit-circle roots of the original
    degree-2n polynomial (conjugate doubling, plus the forced pair
    z = +-1 in the sine case)."""

    kind: str
    intervals: tuple
    changes: tuple
    failing: tuple
    boundary_zero: bool

    @property
    def certified_on_circle(self):
        return 2 * sum(self.changes) + (2 if self.kind == "sin" else 0)


def trig_sign_changes(P, eps):
    """Census the circle values of p through its folded half P.

    For eps = +1, p(e^{i theta}) = 2 e^{i m theta} C(theta) with
    C(theta) = sum_j a_j cos(j theta); each of the n = deg P intervals
    ((2j-1) pi/(2n+1), (2j+1) pi/(2n+1)), j = 1..n, is scanned for a sign
    change of C.  For eps = -1 the circle restriction is the sine
    polynomial S(theta) = sum_j a_j sin(j theta), scanned on
    (2j pi/(2n+1), 2(j+1) pi/(2n+1)), j = 0..n-1, with theta = 0 (and by
    oddness theta = pi) an exact zero on top of the census.  A sign
    change counts only between samples where |C| (or |S|) exceeds
    sum_j err_j, the bound P's coefficient errors put on it."""
    if eps not in (1, -1):
        raise InputError("eps must be +1 or -1")
    n = P.degree
    if n < 1:
        raise InputError("folded polynomial must have positive degree")
    a = P.values()
    # C (eps = +1) or S (eps = -1): the sine sum has no j = 0 term
    trig, j0 = (mp.cos, 0) if eps == 1 else (mp.sin, 1)
    with mp.workprec(P.bits):
        noise = mp.fsum(P.errors()[j0:])

    def f(theta):
        with mp.workprec(P.bits):
            return mp.fsum(a[j] * trig(j * theta) for j in range(j0, n + 1))

    den = 2 * n + 1
    with mp.workprec(P.bits):
        ivs = [(mp.pi * (2 * k + 1 - j0) / den, mp.pi * (2 * k + 3 - j0) / den)
               for k in range(n)]
        changes = []
        for lo, hi in ivs:
            width = hi - lo
            inset = width * mp.mpf("1e-9")
            grid = [
                lo + inset + (width - 2 * inset) * k / (_TRIG_SAMPLES - 1)
                for k in range(_TRIG_SAMPLES)
            ]
            # samples whose sign the coefficient errors could flip are
            # dropped; a change between the remaining neighbours is certain
            signs = [mp.sign(v) for v in map(f, grid) if abs(v) > noise]
            c = sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)
            changes.append(c)
    failing = tuple(i for i, c in enumerate(changes) if c == 0)
    return TrigScan(
        kind="cos" if eps == 1 else "sin",
        intervals=tuple((float(lo), float(hi)) for lo, hi in ivs),
        changes=tuple(changes),
        failing=failing,
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
    retries: int = 0


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


def count_disc_zeros(series, radius=1.0):
    """Count zeros of F_{d,N} inside |z| < radius by the argument
    principle, with certification.

    The contour starts at 2^10 uniform samples and doubles to 2^12 while
    any wrapped phase increment reaches pi/2; past that, offending
    segments are bisected locally.  The winding total must land within
    0.1 of 2 pi k.  A contour point too close to a zero (min |F| below
    1e-7 of the median) triggers retries at perturbed radii; persistent
    failure raises CertificationError."""
    if not isinstance(series, ApproximantSeries):
        raise InputError("series must be an ApproximantSeries")
    r0 = float(radius)
    if not 0.5 <= r0 <= 2.0:
        raise InputError("radius must lie in [0.5, 2]")
    d, cond = series.d, series.conductor
    last_reason = ""
    for attempt, bump in enumerate((0.0, 3e-4, -3e-4, 1e-3, -1e-3, 3e-3, -3e-3)):
        r = r0 * (1.0 + bump)
        ts = np.arange(2 ** 10, dtype=np.float64) / 2 ** 10
        for _ in range(24):
            fv = _series_on_contour(d, cond, r, ts)
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
                        retries=attempt,
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
            cache[n] = count_disc_zeros(
                ApproximantSeries(d, n, bits=64), radius
            ).zeros
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
