"""The analysis as a library call, without the command line."""

from periodpoly import analyze


def test_sym3_analysis_passes(sym3_data, sym3_vals):
    result = analyze(sym3_data, sym3_vals)
    assert result.checks == {"hypothesis_clean": True, "zeta_fe_ok": True,
                             "closed_form_ok": True, "all_pass": True}
    assert result.closed_form_winner == "A"
    assert result.circle.num_on == 2
    # eps = +1: no forced root joins the angles
    assert result.discrepancy == result.circle.discrepancy
