"""The library interface: the analysis without the command line, and the
names the package exports."""

import argparse
import sys
from dataclasses import replace

import pytest

import periodpoly
from periodpoly import (AfePlan, CurveSpec, Precision, analyze,
                        count_disc_zeros, rv, special_values, sym_header,
                        sym_lfunction_data, zeros)
from periodpoly.cli import _analysis_lines, _analysis_report, _rouche_obj
from periodpoly.pipeline import scale_estimate


def test_all_names_resolve_once():
    names = periodpoly.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(periodpoly, n)] == []


def test_sym3_analysis_passes(sym3_data, sym3_vals):
    result = analyze(sym3_data, sym3_vals)
    assert result.checks == {"hypothesis_clean": True, "zeta_fe_ok": True,
                             "closed_form_ok": True, "all_pass": True}
    assert result.trig.certified_on_circle == len(result.trig.angles) == 2
    assert result.trig.dstar[1] < 0.35


def test_sym3_analysis_isolates_no_circle_root(monkeypatch, sym3_data,
                                               sym3_vals):
    # the census is the one circle device: the only root isolation left is
    # check_zeta_properties' poly_roots call on half of Z, without radii
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, sys._getframe(1).f_code.co_name, kwargs))
            return real(*args, **kwargs)
        return wrapper

    for name in ("poly_roots", "circle_report"):
        wrapper = spy(name, getattr(zeros, name))
        for module in (zeros, rv):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    analyze(sym3_data, sym3_vals)
    assert calls == [("poly_roots", "check_zeta_properties",
                      {"radii": False})]


def test_census_failure_is_reported_not_raised():
    # 11a1 Sym^3 with Lambda(2) made ten times Lambda(3): C(theta) =
    # b_1 Lambda(2)/2 + Lambda(3) cos(theta) keeps its sign on the one
    # census interval, so p's roots are off the circle
    curve = CurveSpec(0, -1, 1, -10, -20, 11, "11a1")
    plan = AfePlan(sym_header(curve, 3), Precision(64, 1e-3))
    data = sym_lfunction_data(curve, 3, plan.required)
    vals = special_values(data, plan)
    values = dict(vals.values)
    values[2] = (10 * values[3][0], values[3][1])
    result = analyze(data, replace(vals, values=values))
    scan = result.trig
    assert scan.changes == (0,) and scan.certified_on_circle == 0
    assert scan.angles is None and scan.dstar is None
    args = argparse.Namespace(precision_bits=64, target_error=1e-3)
    report = _analysis_report(result, args, {}, 3)
    assert report["circle"] == {"angles": None, "dstar_lo": None,
                                "dstar_hi": None}
    assert report["trig_certificate"]["failing_intervals"] == [0]
    lines = _analysis_lines(result)
    assert "failing intervals [0]" in "\n".join(lines)
    assert not any(line.startswith("circle:") for line in lines)


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


# Odd symmetric powers of the stored semistable curves that the LARGE_N
# gate does not reach: Sym^5 below level 46, Sym^7 below level 17
GAP_PAIRS = ([(5, label) for label in ("11a1", "14a1", "15a1", "17a1",
                                       "19a1", "37a1", "43a1")]
             + [(7, label) for label in ("11a1", "14a1", "15a1")])


@pytest.mark.parametrize("n, label", GAP_PAIRS)
def test_gate_gaps_are_certified(curve_table, n, label):
    # where the gate gives no verdict, the census puts every root of p on
    # the circle and Rouche puts m roots of Q in the disc
    curve = curve_table[label]
    header = sym_header(curve, n)
    plan = AfePlan(header, Precision(64, scale_estimate(header) * 1e-3))
    data = sym_lfunction_data(curve, n, plan.required)
    result = analyze(data, special_values(data, plan))
    assert result.gate.case == "NONE"
    assert result.trig.certified_on_circle == result.p.degree
    assert result.rouche.q_disc_zeros == data.m
    assert result.checks["all_pass"]
