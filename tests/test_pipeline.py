"""The library interface: the analysis without the command line, and the
names the package exports."""

import periodpoly
from periodpoly import analyze, count_disc_zeros
from periodpoly.cli import _rouche_obj


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


def test_sym5_rouche_transfer_certifies(sym5_data, sym5_vals, sym7_data,
                                        sym7_vals):
    for data, vals in ((sym5_data, sym5_vals), (sym7_data, sym7_vals)):
        result = analyze(data, vals)
        rt = result.rouche
        assert result.rouche_error is None
        assert rt.certified
        assert rt.t_disc_zeros == 0
        assert rt.q_disc_zeros == data.m
        assert rt.f_disc_zeros == count_disc_zeros(data.degree,
                                                   data.conductor).zeros
        # the report renders the certified branch
        obj = _rouche_obj(result)
        assert obj["certified"] is True
        assert obj["q_disc_zeros"] == data.m
        assert set(obj) == {"certified", "min_t_on_circle", "remainder_bound",
                            "t_disc_zeros", "f_disc_zeros", "q_disc_zeros"}
