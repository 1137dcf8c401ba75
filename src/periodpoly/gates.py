"""Sufficient-condition gates for unit-circle root location.

Two checkable conditions guarantee that every zero of the special-value
polynomial lies on |z| = 1:

* m = 1 with h_0 in {0, 1} ("M1"): the quadratic/low-degree case, no
  conductor requirement.
* m >= 2 with 2 m^{h_m + h_0} >= (m+1)^{h_0} and N > A_m^d ("LARGE_N"),
  where

      A_m = max_{1 <= j <= m-1} (2 pi / (m - j)) (zeta(j+1/2)/zeta(j+3/2))^2.

For large m there is a weaker guarantee ("LARGE_M"): the normalized
polynomial Q has exactly m - c_{d,N} zeros inside the unit disc, where
c_{d,N} counts the disc zeros of the limit series F_{d,N}.  That transfer
is certified here by an explicit Rouche comparison of min |T| on the
circle against the remainder bound.

The inequalities behind LARGE_N are also exposed directly with margins:

  (ratio chain)  (m-j)^{-d/2} L(m+j+1) < sqrt(N/(2 pi)^d) L(m+j+2)
                 for 1 <= j <= m-1, and
  (central step) (1/2) [prod_nu m^{-h_nu}] Lambda(m+1)
                 <= [prod_nu (m+1-nu)^{-h_nu}] Lambda(m+2),

so a gate verdict can always be cross-examined against the measured
slack on concrete data.
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import InputError
from .lfunc import gamma_completed
from .polys import ApproximantSeries, partial_sum_T, s_tail_parts
from .zeros import count_disc_zeros, poly_roots

# Conductor ranges of odd symmetric powers of weight-2 newforms that the
# sufficient conditions above do not reach (squarefree level only).  The
# root numbers recorded in the LMFDB are -1 throughout, except for the
# two isogeny classes listed under eps_plus.  Reporting only; nothing is
# decided by this table.
SYM_POWER_GAPS = {
    (2, 5): {"levels": (11, 43), "eps_plus": (37, 43)},
    (2, 7): {"levels": (11, 15), "eps_plus": ()},
}

# Level floors above which the LARGE_N gate is known to fire for odd
# symmetric powers of non-CM newforms of the given (modular weight, power).
COROLLARY_LEVEL_FLOORS = {(2, 5): 46, (2, 7): 17, (4, 3): 17}

_ROUCHE_GRID = 4096  # circle points where rouche_transfer samples |T|
_GATE_BITS = 128  # precision of A_m and A_m^d in theorem_gate

_ZETA_CACHE = {}
_AM_CACHE = {}


def _zeta_half(two_s, bits):
    """zeta(two_s / 2) memoized on the doubled integer argument."""
    key = (two_s, bits)
    if key not in _ZETA_CACHE:
        with mp.workprec(bits):
            _ZETA_CACHE[key] = +mp.zeta(mp.mpf(two_s) / 2)
    return _ZETA_CACHE[key]


def compute_A_m(m, bits=128):
    """A_m = max over 1 <= j <= m-1 of (2 pi/(m-j)) (zeta(j+1/2)/zeta(j+3/2))^2.

    The zeta ratio is decreasing in j (zeta is decreasing on (1, oo) with
    limit 1), so its square never exceeds its j = 1 value ~3.7923; the
    scan runs j from m-1 downward and stops as soon as that cap times
    2 pi/(m-j) cannot beat the current best.  This keeps A_m for large m
    (where the maximum sits at j = m-1) a handful of zeta evaluations.
    """
    if m < 2:
        raise InputError("A_m is defined for m >= 2")
    key = (m, bits)
    if key in _AM_CACHE:
        return _AM_CACHE[key]
    with mp.workprec(bits):
        cap = (_zeta_half(3, bits) / _zeta_half(5, bits)) ** 2
        best = mp.mpf(0)
        for j in range(m - 1, 0, -1):
            if 2 * mp.pi / (m - j) * cap <= best:
                break
            ratio = _zeta_half(2 * j + 1, bits) / _zeta_half(2 * j + 3, bits)
            cand = 2 * mp.pi / (m - j) * ratio ** 2
            if cand > best:
                best = cand
        _AM_CACHE[key] = +best
    return _AM_CACHE[key]


def hodge_condition(m, hodge):
    """The exact-integer test 2 m^{h_m + h_0} >= (m+1)^{h_0}
    (equivalently 2 m^{h_m} >= (1 + 1/m)^{h_0}).  Returns
    (ok, lhs, rhs)."""
    if m < 1:
        raise InputError("m must be >= 1")
    h0 = hodge[0]
    hm = hodge[m] if len(hodge) > m else 0
    lhs = 2 * m ** (hm + h0)
    rhs = (m + 1) ** h0
    return lhs >= rhs, lhs, rhs


def _finite_l(data, vals, s):
    """(L(s), error) stripped of conductor and archimedean factors."""
    with mp.workprec(vals.bits):
        g = gamma_completed(s, data, bits=vals.bits)
        den = mp.power(data.conductor, mp.mpf(s) / 2) * g
        return mp.mpf(vals.value(s)) / den, mp.mpf(vals.error(s)) / abs(den)


def coefficient_inequalities(data, vals):
    """Measured slack in the two value inequalities.

    Returns (margins, central_margin): margins[j-1] = (value, error) of
    sqrt(N/(2 pi)^d) L(m+j+2) - (m-j)^{-d/2} L(m+j+1) for j = 1..m-1
    (empty for m = 1), and central_margin the slack of the central step
    in completed values.  Positive values mean the inequality holds."""
    m = data.m
    d = data.degree
    with mp.workprec(vals.bits):
        pref = mp.sqrt(mp.mpf(data.conductor) / (2 * mp.pi) ** d)
        margins = []
        for j in range(1, m):
            la, ea = _finite_l(data, vals, m + j + 1)
            lb, eb = _finite_l(data, vals, m + j + 2)
            wgt = mp.mpf(m - j) ** (-mp.mpf(d) / 2)
            margins.append((+(pref * lb - wgt * la), +(pref * eb + wgt * ea)))
        prod_a = mp.mpf(1)
        prod_b = mp.mpf(1)
        for nu, h in enumerate(data.hodge):
            if h:
                prod_a *= mp.mpf(m) ** (-h)
                prod_b *= mp.mpf(m + 1 - nu) ** (-h)
        va, ea = mp.mpf(vals.value(m + 1)), mp.mpf(vals.error(m + 1))
        vb, eb = mp.mpf(vals.value(m + 2)), mp.mpf(vals.error(m + 2))
        central = (+(prod_b * vb - prod_a * va / 2), +(prod_b * eb + prod_a * ea / 2))
    return tuple(margins), central


@dataclass(frozen=True)
class GateReport:
    """Outcome of the sufficient-condition scan for one dataset.

    case is "M1", "LARGE_N", or "NONE"; satisfied says whether one of the
    two unconditional gates fired.  a_m and a_m_power_d are None when
    m = 1.  margins_11/margin_22 are filled when special values were
    supplied.  notes carries reporting-only context (known gap ranges,
    large-m transfer results)."""

    label: str
    case: str
    m: int
    degree: int
    conductor: int
    hodge_ok: bool
    hodge_lhs: int
    hodge_rhs: int
    a_m: object = None
    a_m_power_d: object = None
    margins_11: tuple = ()
    margin_22: tuple = None
    notes: tuple = ()

    @property
    def satisfied(self):
        return self.case in ("M1", "LARGE_N")


def theorem_gate(data, vals=None, sym_context=None):
    """Evaluate the unit-circle gates on one dataset.

    sym_context, when given, is (modular_weight, power, base_level) for a
    symmetric-power dataset; it only adds reporting notes from the known
    gap table, never changes the verdict.  vals (special values) enables
    the margin measurements."""
    m = data.m
    hodge_ok, lhs, rhs = hodge_condition(m, data.hodge)
    notes = []
    a_m = None
    a_pow = None
    if m == 1:
        case = "M1" if data.hodge[0] in (0, 1) else "NONE"
        if case == "NONE":
            notes.append("m = 1 but h_0 = %d is outside {0, 1}" % data.hodge[0])
    else:
        a_m = compute_A_m(m, bits=_GATE_BITS)
        with mp.workprec(_GATE_BITS):
            a_pow = +(a_m ** data.degree)
        if hodge_ok and mp.mpf(data.conductor) > a_pow:
            case = "LARGE_N"
        else:
            case = "NONE"
            if not hodge_ok:
                notes.append(
                    "Hodge condition fails: 2 m^(h_m+h_0) = %d < %d = (m+1)^h_0"
                    % (lhs, rhs)
                )
            if not mp.mpf(data.conductor) > a_pow:
                notes.append(
                    "conductor %d does not exceed A_m^d = %s"
                    % (data.conductor, mp.nstr(a_pow, 8))
                )
    if sym_context is not None:
        k, n, base = sym_context
        gap = SYM_POWER_GAPS.get((k, n))
        if gap and gap["levels"][0] <= base <= gap["levels"][1]:
            eps_note = (
                "root number +1 recorded for levels %s" % (gap["eps_plus"],)
                if base in gap["eps_plus"]
                else "root number -1 recorded for this level"
            )
            notes.append(
                "level %d lies in the known gap range %d..%d for power %d; %s"
                % (base, gap["levels"][0], gap["levels"][1], n, eps_note)
            )
        floor = COROLLARY_LEVEL_FLOORS.get((k, n))
        if floor is not None and base >= floor:
            notes.append(
                "level %d meets the known floor %d for (weight %d, power %d)"
                % (base, floor, k, n)
            )
    margins = ()
    central = None
    if vals is not None:
        margins, central = coefficient_inequalities(data, vals)
    return GateReport(
        label=data.label,
        case=case,
        m=m,
        degree=data.degree,
        conductor=data.conductor,
        hodge_ok=hodge_ok,
        hodge_lhs=lhs,
        hodge_rhs=rhs,
        a_m=a_m,
        a_m_power_d=a_pow,
        margins_11=margins,
        margin_22=central,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class RoucheTransfer:
    """Disc-zero transfer certificate for m >= 2.

    If min |T| on |z| = 1 exceeds the remainder bound, Q and the reversed
    truncation share their disc-zero count, which equals m minus the
    number of zeros of T in the closed unit disc region reached by the
    reversal; t_disc_zeros and f_disc_zeros let the truncation be checked
    against the limit series."""

    certified: bool
    min_t: object
    remainder_bound: object
    t_disc_zeros: int
    f_disc_zeros: int
    q_disc_zeros: object  # int when certified, else None


def rouche_transfer(data, ratios):
    """Run the circle comparison |Q - z^m T(1/z)| <= remainder < min |T|.

    The minimum of |T| over the circle is certified from a uniform grid
    and a derivative bound (|T'| summed coefficient magnitudes).  ratios
    is l_value_ratios(data, vals)."""
    m = data.m
    if m < 2:
        raise InputError("the transfer device applies to m >= 2")
    d = data.degree
    parts = s_tail_parts(data, ratios)
    t = partial_sum_T(m, d, data.conductor, bits=ratios.bits)
    with mp.workprec(ratios.bits):
        # |T'| on the circle is at most sum j |c_j|
        deriv_cap = mp.fsum(j * abs(v) for j, v in enumerate(t.values()))
        step = 2 * mp.pi / _ROUCHE_GRID
        mn = mp.inf
        for i in range(_ROUCHE_GRID):
            z = mp.expj(step * i)
            mn = min(mn, abs(t(z)))
        min_t = mn - deriv_cap * step / 2
        bound = parts.total
        certified = min_t > bound
    located = poly_roots(t)
    t_in_disc = sum(1 for z, r in located if abs(z) + r < 1)
    # a root straddling the circle makes the reversal count ambiguous
    if any(abs(z) - r <= 1 <= abs(z) + r for z, r in located):
        certified = False
    f_count = count_disc_zeros(
        ApproximantSeries(d, data.conductor, bits=64), 1.0
    ).zeros
    return RoucheTransfer(
        certified=bool(certified),
        min_t=+min_t,
        remainder_bound=+bound,
        t_disc_zeros=t_in_disc,
        f_disc_zeros=f_count,
        q_disc_zeros=(m - t_in_disc) if certified else None,
    )
