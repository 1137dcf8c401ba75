"""The library interface: the analysis without the command line, and the
names the package exports."""

import periodpoly
from periodpoly import analyze


def test_all_names_resolve_once():
    names = periodpoly.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(periodpoly, n)] == []


def test_sym3_analysis_passes(sym3_data, sym3_vals):
    result = analyze(sym3_data, sym3_vals)
    assert result.checks == {"hypothesis_clean": True, "zeta_fe_ok": True,
                             "closed_form_ok": True, "all_pass": True}
    assert result.circle.num_on == 2
    # eps = +1: no forced root joins the angles
    assert result.discrepancy == result.circle.discrepancy
