"""The analysis of one dataset as a library call.

analyze() calls each step of the analysis once and keeps what it returns.
p, its deflation p_hat, P, Q = P/Lambda(w), the truncation T, the L-value
ratios read off Q and T, the remainder bound and the zeta-polynomial Z are
built once and handed to the steps that read them (build_P_poly,
rv_transform, build_Q_poly, l_value_ratios, q_decomposition_residual,
theorem_gate, rouche_transfer, closed_form_ok).  The gate's margins are
P's coefficient steps: by b_j Lambda(w-j) = Lambda(w) c_j L(w-j)/L(w),
P_{j+1} - P_j is N^{w/2} L_inf(w) y^{m-j}/((m-j-1)!)^{d/2} times the
slack of one LARGE_N inequality and P_1 - P_0 is b_m m^{sum h} times the
central one's, so no Gamma is evaluated outside the AFE kernel.
Obtaining the values (special_values or a cache) and rendering the result
stay with the caller.
"""

import math
from dataclasses import dataclass

from .errors import CertificationError
from .gates import rouche_transfer, theorem_gate
from .lfunc import verify_hypothesis
from .numutil import log_gamma_c_real
from .polys import (build_P_poly, build_Q_poly, build_p_poly, l_value_ratios,
                    partial_sum_T, q_decomposition_residual, s_tail_parts)
from .rv import (check_zeta_properties, closed_form_ok, deflate_at_one,
                 rv_transform)
from .zeros import circle_report, star_discrepancy, trig_sign_changes


def scale_estimate(data):
    """Rough magnitude of Lambda(w), used to set an absolute error target."""
    w = data.weight
    ln = 0.5 * w * math.log(data.conductor)
    for nu, h in enumerate(data.hodge):
        ln += h * log_gamma_c_real(w - nu)
    return max(1.0, math.exp(ln))


@dataclass(frozen=True)
class Analysis:
    """Everything analyze() computes for one dataset.

    discrepancy counts the forced root at z = 1 when eps = -1.  rouche is
    None for m = 1, and when the transfer raised (rouche_error then holds
    the message)."""

    data: object
    vals: object
    violations: list
    p: object
    p_hat: object
    big_p: object
    ratios: object
    big_q: object
    circle: object
    discrepancy: float
    trig: object
    q_residual: object
    remainder_bound: object
    gate: object
    rouche: object
    rouche_error: str
    zeta: object
    closed_form_ok: bool
    zeta_check: object

    @property
    def checks(self):
        """The checks that gate the verdict, each True when it passes,
        plus all_pass."""
        checks = {
            "hypothesis_clean": not self.violations,
            "zeta_fe_ok": self.zeta_check.fe_ok,
            "closed_form_ok": self.closed_form_ok,
        }
        checks["all_pass"] = all(checks.values())
        return checks


def analyze(data, vals, sym_context=None):
    """Run the full analysis of data on its completed values vals.

    sym_context is passed to theorem_gate: (power, base level) for a
    symmetric power of a weight-2 newform, else None."""
    violations = verify_hypothesis(data, vals)
    p = build_p_poly(data, vals)
    big_p = build_P_poly(p)
    big_q = build_Q_poly(big_p, vals)
    p_hat = deflate_at_one(p, data.root_number)
    circ = circle_report(p_hat)
    angles = circ.on_angles()
    if data.root_number == -1:
        angles.append(0.0)
    t = partial_sum_T(data.m, data.degree, data.conductor, bits=big_q.bits)
    ratios = l_value_ratios(big_q, t)
    bound = s_tail_parts(big_q, t)

    rouche = rouche_error = None
    if data.m >= 2:
        try:
            rouche = rouche_transfer(data, bound, t)
        except CertificationError as exc:
            rouche_error = str(exc)

    zeta = rv_transform(p_hat, eps=data.root_number)
    return Analysis(
        data=data,
        vals=vals,
        violations=violations,
        p=p,
        p_hat=p_hat,
        big_p=big_p,
        ratios=ratios,
        big_q=big_q,
        circle=circ,
        discrepancy=star_discrepancy(angles),
        trig=trig_sign_changes(big_p, data.root_number),
        q_residual=q_decomposition_residual(ratios, big_q, t),
        remainder_bound=bound,
        gate=theorem_gate(data, big_p, sym_context=sym_context),
        rouche=rouche,
        rouche_error=rouche_error,
        zeta=zeta,
        closed_form_ok=closed_form_ok(p, zeta),
        zeta_check=check_zeta_properties(zeta),
    )
