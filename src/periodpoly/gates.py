"""Sufficient-condition gates for unit-circle root location.

Two checkable conditions guarantee that every zero of the special-value
polynomial lies on |z| = 1:

* m = 1 with h_0 in {0, 1} ("M1"): the quadratic/low-degree case, no
  conductor requirement.
* m >= 2 with 2 m^{h_m + h_0} >= (m+1)^{h_0} and N > A_m^d ("LARGE_N"),
  where

      A_m = max_{1 <= j <= m-1} (2 pi / (m - j)) (zeta(j+1/2)/zeta(j+3/2))^2.

LARGE_N forces L-value inequalities, and by the identity
b_j Lambda(w-j) = Lambda(w) c_j L(w-j)/L(w) of polys each is a positive
multiple of one step of the folded polynomial P's coefficients:
P_{j+1} - P_j is N^{w/2} L_inf(w) y^{m-j}/((m-j-1)!)^{d/2} times
sqrt(N/(2 pi)^d) L(m+j+2) - (m-j)^{-d/2} L(m+j+1) for j = 1..m-1, and
P_1 - P_0 is b_m m^{sum h} times the central inequality's slack.  So the
inequalities say that P's coefficients increase, and
coefficient_inequalities measures them there, with no Gamma evaluated,
to cross-examine a verdict.

For large m there is a weaker guarantee ("LARGE_M"): the normalized
polynomial Q has exactly m - c_{d,N} zeros inside the unit disc, where
c_{d,N} counts the disc zeros of the limit series F_{d,N}.
rouche_transfer proves the count m - t, t the disc zeros of F's truncation
T, by Rouche (min |T| on the circle beats the remainder bound) and by the
winding number of the same samples.
"""

from dataclasses import dataclass
from functools import cache
from math import isqrt

import mpmath as mp
from mpmath.libmp import (from_int, from_man_exp, mpf_add, mpf_div, mpf_mul,
                          mpf_pi, mpf_shift, mpf_sub, mpf_sum, round_ceiling,
                          round_floor, round_up)

from .errors import InputError
from .zeros import circle_values, count_disc_zeros

# Conductor ranges of odd symmetric powers of weight-2 newforms that the
# sufficient conditions above do not reach (squarefree level only), keyed
# by the power.  The root numbers recorded in the LMFDB are -1 throughout,
# except for the two isogeny classes listed under eps_plus.  Reporting
# only; nothing is decided by this table.
SYM_POWER_GAPS = {
    5: {"levels": (11, 43), "eps_plus": (37, 43)},
    7: {"levels": (11, 15), "eps_plus": ()},
}

# Level floors above which the LARGE_N gate is known to fire for odd
# symmetric powers of non-CM weight-2 newforms, keyed by the power.
COROLLARY_LEVEL_FLOORS = {5: 46, 7: 17}

_ROUCHE_GRID = 4096  # circle points where rouche_transfer samples |T|
_GATE_BITS = 128  # precision of A_m and A_m^d in theorem_gate


@cache
def _zeta_half(two_s, bits):
    """zeta(two_s / 2) memoized on the doubled integer argument."""
    with mp.workprec(bits):
        return +mp.zeta(mp.mpf(two_s) / 2)


@cache
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
        return +best


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


def coefficient_inequalities(big_p):
    """The steps of P's coefficients: the measured slack in the value
    inequalities behind LARGE_N (module docstring).

    Returns (margins, central), (value, error) pairs: central = P_1 - P_0,
    b_m m^{sum h} times [prod_nu (m+1-nu)^{-h_nu}] Lambda(m+2) - (1/2)
    [prod_nu m^{-h_nu}] Lambda(m+1), and margins[j-1] = P_{j+1} - P_j,
    N^{w/2} L_inf(w) y^{m-j}/((m-j-1)!)^{d/2} times sqrt(N/(2 pi)^d)
    L(m+j+2) - (m-j)^{-d/2} L(m+j+1), for j = 1..m-1 (none for m = 1).
    Positive means the inequality holds.  Each difference is exact; each
    error is err(P_j) + err(P_{j+1}), rounded up once at big_p.bits."""
    steps = [(mp.make_mpf(mpf_sub(hi._mpf_, lo._mpf_)),
              mp.make_mpf(mpf_add(lo_e._mpf_, hi_e._mpf_, big_p.bits,
                                  round_up)))
             for (lo, lo_e), (hi, hi_e) in zip(big_p.coeffs, big_p.coeffs[1:])]
    return tuple(steps[1:]), steps[0]


@dataclass(frozen=True)
class GateReport:
    """Outcome of the sufficient-condition scan for one dataset.

    case is "M1", "LARGE_N", or "NONE"; satisfied says whether one of the
    two unconditional gates fired.  a_m and a_m_power_d are None when
    m = 1.  margins_11/margin_22 are P's coefficient steps P_{j+1} - P_j
    and P_1 - P_0, positive multiples of the inequalities' slack
    (coefficient_inequalities), filled when P was supplied; positive means
    the inequality holds.  notes carries reporting-only context (known gap
    ranges, large-m transfer results)."""

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


def theorem_gate(data, big_p=None, sym_context=None):
    """Evaluate the unit-circle gates on one dataset.

    sym_context, when given, is (power, base_level) for a symmetric power
    of a weight-2 newform; it only adds reporting notes from the known
    gap table, never changes the verdict.  big_p (build_P_poly of the
    dataset's values) enables the margin measurements: the steps of its
    coefficients, positive multiples of the inequalities' slack."""
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
        n, base = sym_context
        gap = SYM_POWER_GAPS.get(n)
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
        floor = COROLLARY_LEVEL_FLOORS.get(n)
        if floor is not None and base >= floor:
            notes.append(
                "level %d meets the known floor %d for (weight 2, power %d)"
                % (base, floor, n)
            )
    margins = ()
    central = None
    if big_p is not None:
        margins, central = coefficient_inequalities(big_p)
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


def _winding(values):
    """Winding number about 0 of the closed integer polygon values (no edge
    through 0): signed crossings of the positive real axis, by a d - b c."""
    wind, (a, b) = 0, values[-1]
    for c, d in values:
        wind += (b <= 0 < d and a * d > b * c) - (d <= 0 < b and a * d < b * c)
        a, b = c, d
    return wind


@dataclass(frozen=True)
class RoucheTransfer:
    """Disc-zero transfer certificate for m >= 2.

    If min |T| on |z| = 1 exceeds the remainder bound, Q has as many zeros
    in |z| < 1 as z^m T(1/z): m less T's zeros in the disc (Rouche), whose
    number t_disc_zeros is the winding number of T's circle samples when
    min_t > 0, else None.  f_disc_zeros checks T against the limit series."""

    certified: bool
    min_t: object
    remainder_bound: object
    t_disc_zeros: object  # int when min_t > 0, else None
    f_disc_zeros: int
    q_disc_zeros: object  # int when certified, else None


def rouche_transfer(data, bound, t):
    """Run the circle comparison |Q - z^m T(1/z)| <= bound < min |T|.

    bound is s_tail_parts(q, t); t is partial_sum_T(m, d, N, bits) at the
    bits of Q.  min_t <= min |T| on the circle, in directed rounding, is
    the least circle_values sample less their bound and less sum_j j
    (|c_j| + err_j) >= |T'| times half the step: the samples are exact
    multiples of a step >= 2 pi/_ROUCHE_GRID, so no gap (the last, up to
    2 pi, included) is wider.  If min_t > 0, every T within the coefficient
    errors lies within less than |S| of the nearer sample S, so it turns by
    less than pi from sample to sample, and the samples' winding number
    counts its zeros in |z| < 1."""
    m = data.m
    if m < 2:
        raise InputError("the transfer device applies to m >= 2")
    step = mpf_div(mpf_shift(mpf_pi(t.bits, round_ceiling), 1),
                   from_int(_ROUCHE_GRID), t.bits, round_ceiling)
    grid = [mp.make_mpf(mpf_mul(step, from_int(i)))
            for i in range(_ROUCHE_GRID)]
    values, err, exp = circle_values(t, grid)
    low = isqrt(min(re * re + im * im for re, im in values)) - err
    deriv_cap = mpf_sum([mpf_mul(from_int(j), x._mpf_)
                         for j, pair in enumerate(t.coeffs) for x in pair],
                        absolute=True)
    drift = mpf_mul(deriv_cap, mpf_shift(step, -1), t.bits, round_ceiling)
    min_t = mp.make_mpf(mpf_sub(from_man_exp(low, exp), drift, t.bits,
                                round_floor))
    t_in_disc = _winding(values) if min_t > 0 else None
    certified = t_in_disc is not None and min_t > bound
    f_count = count_disc_zeros(data.degree, data.conductor).zeros
    return RoucheTransfer(
        certified=certified,
        min_t=min_t,
        remainder_bound=bound,
        t_disc_zeros=t_in_disc,
        f_disc_zeros=f_count,
        q_disc_zeros=(m - t_in_disc) if certified else None,
    )
