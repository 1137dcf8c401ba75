"""Completed special values of self-dual motivic L-functions and the
polynomials built from them.

The library computes the completed values Lambda(s) = N^{s/2} L_inf(s) L(s)
at the integers s = 1..w inside the critical strip, assembles the
special-value polynomial p(z) and its companions P(z), Q(z), locates their
zeros relative to the unit circle, counts disc zeros of the limiting entire
series F_{d,N}, evaluates the sufficient-condition gates that force all
zeros onto |z| = 1, and converts deflated polynomials to zeta-polynomials
satisfying Z(1-s) = +/- Z(s).
"""

__version__ = "0.1.0"

from .errors import (
    InputError,
    PoleError,
    InsufficientCoefficients,
    QuadratureError,
    CertificationError,
    VerificationError,
)
from .lfunc import (
    AfePlan,
    Header,
    LFunctionData,
    SpecialValues,
    Precision,
    gamma_completed,
    dirichlet_l,
    special_values,
    verify_hypothesis,
)
from .sympow import (
    CurveSpec,
    ap_count,
    sym_local_factor,
    sym_dirichlet_coeffs,
    sym_header,
    sym_hodge,
    sym_lfunction_data,
)
from .polys import (
    RealPolynomial,
    LValueRatios,
    binomial_weight,
    build_p_poly,
    build_P_poly,
    build_Q_poly,
    l_value_ratios,
    partial_sum_T,
    s_tail_parts,
    q_decomposition_residual,
)
from .zeros import (
    UnitCircleReport,
    DiscCount,
    TrigScan,
    poly_roots,
    circle_report,
    count_disc_zeros,
    disc_transition_table,
    trig_sign_changes,
    star_discrepancy,
)
from .gates import (
    GateReport,
    RoucheTransfer,
    SYM_POWER_GAPS,
    COROLLARY_LEVEL_FLOORS,
    compute_A_m,
    hodge_condition,
    coefficient_inequalities,
    theorem_gate,
    rouche_transfer,
)
from .rv import (
    ZetaPolynomial,
    ZetaCheck,
    stirling_first,
    rv_transform,
    maclaurin_coefficients,
    zeta_poly_closed_form,
    closed_form_ok,
    check_zeta_properties,
    deflate_at_one,
)
from .pipeline import Analysis, analyze, scale_estimate
from .files import (
    SpecialValuesCache,
    data_digest,
    parse_coefficient_file,
    parse_coefficient_text,
    coefficient_file_text,
    write_coefficient_file,
    parse_curve_file,
    parse_curve_text,
    parse_eps_overrides,
    parse_eps_overrides_text,
    mpf_to_obj,
    mpf_from_obj,
    canonical_report_text,
    write_report,
    sha256_file,
)

__all__ = [
    "__version__",
    "InputError", "PoleError", "InsufficientCoefficients", "QuadratureError",
    "CertificationError", "VerificationError",
    "AfePlan", "Header", "LFunctionData", "SpecialValues", "Precision",
    "gamma_completed", "dirichlet_l", "special_values",
    "verify_hypothesis",
    "CurveSpec", "ap_count", "sym_local_factor",
    "sym_dirichlet_coeffs", "sym_header", "sym_hodge", "sym_lfunction_data",
    "RealPolynomial", "LValueRatios",
    "binomial_weight", "build_p_poly", "build_P_poly", "build_Q_poly",
    "l_value_ratios", "partial_sum_T", "s_tail_parts",
    "q_decomposition_residual",
    "UnitCircleReport", "DiscCount", "TrigScan", "poly_roots",
    "circle_report", "count_disc_zeros",
    "disc_transition_table", "trig_sign_changes", "star_discrepancy",
    "GateReport", "RoucheTransfer", "SYM_POWER_GAPS",
    "COROLLARY_LEVEL_FLOORS", "compute_A_m", "hodge_condition",
    "coefficient_inequalities", "theorem_gate", "rouche_transfer",
    "ZetaPolynomial", "ZetaCheck", "stirling_first", "rv_transform",
    "maclaurin_coefficients", "zeta_poly_closed_form",
    "closed_form_ok", "check_zeta_properties", "deflate_at_one",
    "Analysis", "analyze", "scale_estimate",
    "SpecialValuesCache", "data_digest", "parse_coefficient_file",
    "parse_coefficient_text", "coefficient_file_text",
    "write_coefficient_file", "parse_curve_file", "parse_curve_text",
    "parse_eps_overrides", "parse_eps_overrides_text",
    "mpf_to_obj", "mpf_from_obj", "canonical_report_text", "write_report",
    "sha256_file",
]
