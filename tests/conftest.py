"""Shared fixtures.

The expensive objects (symmetric-power datasets and their completed
special values) are session-scoped and lazy: tests that never touch the
degree-6 or degree-8 fixtures never pay for them.  Values feeding frozen
comparisons were computed at 192 bits with an absolute target well below
every tolerance asserted against them.
"""

import os
from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest
from mpmath.libmp import to_rational

from periodpoly import (LFunctionData, Precision, SpecialValues,
                        gamma_completed, parse_curve_file,
                        parse_eps_overrides, special_values,
                        sym_lfunction_data)
from periodpoly.pipeline import scale_estimate

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def data_path(name):
    return os.path.abspath(os.path.join(DATA_DIR, name))


@pytest.fixture(scope="session")
def double_sum():
    """The closed-form double sum for Z, in Fractions, on the stored
    coefficients of p, with srow read as S(2m, .):

        Z_h = (-1)^h sum_j C(h+j, h) S(2m, h+j) M(j),
        M(j) = (1/(2m)!) sum_q p_{2m-q} q^j.

    Reading A takes the signed Stirling row of prod_{i=0}^{2m-1} (x - i),
    reading B the verbatim defining product prod_{i=0}^{2m} (x - i)
    truncated to degrees 0..2m."""
    def evaluate(p, srow):
        e = p.degree
        c = [Fraction(*to_rational(v._mpf_)) for v in p.values()]
        moments = [sum(c[e - q] * q ** j for q in range(e + 1)) / factorial(e)
                   for j in range(e + 1)]
        return tuple((-1) ** h * sum(comb(h + j, h) * srow[h + j] * moments[j]
                                     for j in range(e + 1 - h))
                     for h in range(e + 1))
    return evaluate


@pytest.fixture(scope="session")
def curve_table():
    return {c.label: c for c in parse_curve_file(data_path("curves.txt"))}


@pytest.fixture(scope="session")
def eps_table():
    return parse_eps_overrides(data_path("eps_overrides.txt"))


@pytest.fixture(scope="session")
def curve_11a1(curve_table):
    return curve_table["11a1"]


@pytest.fixture(scope="session")
def sym3_data(curve_11a1):
    return sym_lfunction_data(curve_11a1, 3, 10000)


@pytest.fixture(scope="session")
def sym3_vals(sym3_data):
    return special_values(sym3_data, Precision(192, 1e-25))


@pytest.fixture(scope="session")
def sym5_data(curve_11a1):
    return sym_lfunction_data(curve_11a1, 5, 100000)


@pytest.fixture(scope="session")
def sym5_vals(sym5_data):
    target = scale_estimate(sym5_data) * 1e-25
    return special_values(sym5_data, Precision(192, target))


@pytest.fixture(scope="session")
def sym7_data(curve_11a1):
    # the degree-8 tail majorant asks for ~77k terms at the target below
    return sym_lfunction_data(curve_11a1, 7, 90000)


@pytest.fixture(scope="session")
def sym7_vals(sym7_data):
    # Reduced precision: the degree-8 tail majorants make a full 192-bit
    # certification far slower than anything the root-angle trend needs.
    target = scale_estimate(sym7_data) * 1e-9
    return special_values(sym7_data, Precision(128, target))


@pytest.fixture(scope="session")
def trend_sym3(curve_table):
    """Weight-3 datasets over several conductors for the angle trend."""
    out = {}
    for label in ("11a1", "14a1", "15a1"):
        curve = curve_table[label]
        data = sym_lfunction_data(curve, 3, 10000)
        target = scale_estimate(data) * 1e-12
        out[label] = (data, special_values(data, Precision(128, target)))
    return out


@pytest.fixture(scope="session")
def large_n_synthetic():
    """m = 2 dataset with conductor above A_2^6 and finite L values 1:
    Lambda(s) = N^{s/2} L_inf(s) for s = 3, 4, 5."""
    n_cond = 200000007
    data = LFunctionData(weight=5, degree=6, conductor=n_cond,
                         hodge=(1, 1, 1), root_number=1,
                         coefficients=(mp.mpf(1),), label="large-n")
    with mp.workprec(192):
        tiny = mp.mpf(2) ** (-120)
        values = {}
        for s in (3, 4, 5):
            lam = mp.power(n_cond, mp.mpf(s) / 2) * gamma_completed(
                s, data, bits=192
            )
            values[s] = (+lam, tiny)
        values[1] = values[5]  # functional-equation mirrors; P reads
        values[2] = values[4]  # only s = 3, 4, 5
        vals = SpecialValues(weight=5, values=values, bits=192, target=1e-20,
                             label=data.label)
    return data, vals
