"""The analysis of one dataset as a library call.

analyze() calls each step of the analysis once and keeps what it returns.
The L-value ratios and the zeta-polynomial Z are built once and handed to
the steps that read them (build_Q_poly, q_decomposition_residual,
rouche_transfer, zeta_poly_closed_form); build_P_poly and zeta_polynomial
still rebuild p from (data, vals).  Obtaining the values (special_values
or a cache) and rendering the result stay with the caller.
"""

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import CertificationError, QuadratureError
from .gates import rouche_transfer, theorem_gate
from .lfunc import verify_hypothesis
from .numutil import log_gamma_c_real
from .polys import (build_P_poly, build_Q_poly, build_p_poly, l_value_ratios,
                    q_decomposition_residual, s_tail_parts)
from .rv import (check_zeta_properties, deflate_at_one, zeta_poly_closed_form,
                 zeta_polynomial)
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
    q_max_remainder: object
    s_parts: object
    gate: object
    rouche: object
    rouche_error: str
    zeta: object
    closed_form_winner: str
    closed_form_report: dict
    closed_form_agreement: float
    zeta_check: object

    @property
    def checks(self):
        """The checks that gate the verdict, each True when it passes,
        plus all_pass."""
        checks = {
            "hypothesis_clean": not self.violations,
            "zeta_fe_ok": self.zeta_check.fe_residual <= 1e-18,
            "closed_form_ok": self.closed_form_agreement <= 1e-9,
        }
        checks["all_pass"] = all(checks.values())
        return checks


def analyze(data, vals, sym_context=None):
    """Run the full analysis of data on its completed values vals.

    sym_context is passed to theorem_gate: (modular weight, power, base
    level) for a symmetric-power dataset, else None."""
    violations = verify_hypothesis(data, vals)
    p = build_p_poly(data, vals)
    ratios = l_value_ratios(data, vals)
    big_p = build_P_poly(data, vals)
    p_hat = deflate_at_one(p, data.root_number)
    circ = circle_report(p_hat)
    angles = circ.on_angles()
    if data.root_number == -1:
        angles.append(0.0)
    q_res, q_max_s = q_decomposition_residual(data, ratios)

    rouche = rouche_error = None
    if data.m >= 2:
        try:
            rouche = rouche_transfer(data, ratios)
        except (CertificationError, QuadratureError) as exc:
            rouche_error = str(exc)

    zeta = zeta_polynomial(data, vals)
    zeta_closed, winner, closed_report = zeta_poly_closed_form(data, vals,
                                                               zeta)
    with mp.workprec(vals.bits + 16):
        scale = max(abs(v) for v in zeta.values())
        agreement = float(
            max(abs(a - b) for a, b in
                zip(zeta.values(), zeta_closed.values())) / scale)
    return Analysis(
        data=data,
        vals=vals,
        violations=violations,
        p=p,
        p_hat=p_hat,
        big_p=big_p,
        ratios=ratios,
        big_q=build_Q_poly(data, ratios),
        circle=circ,
        discrepancy=star_discrepancy(angles),
        trig=trig_sign_changes(big_p, data.root_number),
        q_residual=q_res,
        q_max_remainder=q_max_s,
        s_parts=s_tail_parts(data, ratios) if data.m >= 2 else None,
        gate=theorem_gate(data, vals, sym_context=sym_context),
        rouche=rouche,
        rouche_error=rouche_error,
        zeta=zeta,
        closed_form_winner=winner,
        closed_form_report=closed_report,
        closed_form_agreement=agreement,
        zeta_check=check_zeta_properties(zeta),
    )
