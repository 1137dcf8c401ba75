import collections
import math
from dataclasses import replace

import pytest
import mpmath
from mpmath import mp
from mpmath.libmp import mpc_abs, to_fixed

from periodpoly import (InputError, InsufficientCoefficients, LFunctionData,
                        PoleError, Precision, SpecialValues, dirichlet_l,
                        gamma_completed, special_values, sym_lfunction_data,
                        verify_hypothesis)
from periodpoly import lfunc
from periodpoly.lfunc import (_LOG_SLACK, _N0_CAP, _OFFSETS, _TARGET_MARGIN,
                              AfePlan, _bisect, _Rung, _min_offset,
                              log_abs_gamma_bound)
from periodpoly.numutil import divisor_count_at, primes_upto
from periodpoly.pipeline import scale_estimate
from periodpoly.sympow import sym_header


def toy_data(**kw):
    args = dict(weight=3, degree=2, conductor=7, hodge=(0, 1),
                root_number=1,
                coefficients=(mp.mpf(1), mp.mpf("0.5"), mp.mpf("-0.25")),
                label="toy")
    args.update(kw)
    return LFunctionData(**args)


class TestDataValidation:
    def test_accepts_valid(self):
        data = toy_data()
        assert data.m == 1
        assert data.coefficients[1] == mp.mpf("0.5")

    def test_rejects_even_weight(self):
        with pytest.raises(InputError):
            toy_data(weight=4)

    def test_rejects_weight_one(self):
        with pytest.raises(InputError):
            toy_data(weight=1, hodge=(1,))

    def test_rejects_degree_mismatch(self):
        with pytest.raises(InputError):
            toy_data(degree=4)

    def test_rejects_zero_hodge(self):
        with pytest.raises(InputError):
            toy_data(hodge=(0, 0), degree=0)

    def test_rejects_bad_root_number(self):
        with pytest.raises(InputError):
            toy_data(root_number=2)

    def test_rejects_lambda1(self):
        with pytest.raises(InputError):
            toy_data(coefficients=(mp.mpf(2), mp.mpf(1)))

    def test_rejects_bad_conductor(self):
        with pytest.raises(InputError):
            toy_data(conductor=0)

    @pytest.mark.parametrize("target", [math.inf, math.nan, 0.0, -1e-3])
    def test_precision_needs_a_finite_positive_target(self, target):
        with pytest.raises(InputError):
            Precision(96, target)


class TestGammaCompleted:
    def test_weight3_degree4_value(self, sym3_data):
        # L_inf(3) = Gamma_C(3) Gamma_C(2) = 8 (2 pi)^{-5}
        with mp.workprec(192):
            got = gamma_completed(3, sym3_data, bits=192)
            assert abs(got - mp.mpf("8.16940910763346368157062405663e-4")) \
                < mp.mpf("1e-30")

    def test_weight5_degree6_value(self, sym5_data):
        with mp.workprec(192):
            got = gamma_completed(5, sym5_data, bits=192)
            assert abs(got - mp.mpf("6.08588938422561402714377188366e-7")) \
                < mp.mpf("1e-33")

    def test_pole_raises(self, sym3_data):
        # Gamma_C(s - 1) has a pole at s = 1
        with pytest.raises(PoleError):
            gamma_completed(1, sym3_data, bits=96)
        with pytest.raises(PoleError):
            gamma_completed(0, sym3_data, bits=96)


class TestDirichletL:
    def test_domain_boundary(self, sym3_data):
        with pytest.raises(InputError):
            dirichlet_l(2.5, sym3_data, Precision(96, 1e-10))

    def test_converges_with_certified_tail(self, sym3_data):
        # the degree-4 divisor majorant at X = 1e4, t = 3/2 is coarse
        # (tens, absolute), so ask for a target it can certify
        val, tail = dirichlet_l(3, sym3_data, Precision(96, 100.0))
        with mp.workprec(96):
            assert mp.im(val) == 0 or abs(mp.im(val)) < mp.mpf("1e-20")
            assert 0 < tail < 100
            assert abs(val) < 50

    def test_insufficient_coefficients_names_requirement(self, sym3_data):
        from periodpoly import InsufficientCoefficients
        with pytest.raises(InsufficientCoefficients):
            dirichlet_l(3, sym3_data, Precision(96, 1e-10))


class TestSpecialValues:
    def test_functional_equation_exact(self, sym3_data, sym3_vals):
        # two-sided assembly makes Lambda(s) = eps Lambda(w+1-s) exact
        with mp.workprec(256):
            for s in (1, 2, 3):
                lhs = sym3_vals.value(s)
                rhs = sym3_data.root_number * sym3_vals.value(4 - s)
                assert lhs == rhs

    def test_error_bounds_met_target(self, sym3_vals):
        with mp.workprec(192):
            for s in (1, 2, 3):
                assert sym3_vals.error(s) < mp.mpf("1e-25")

    @pytest.mark.parametrize("keys", [(1, 3), (1, 2, 3, 4)])
    def test_set_must_cover_one_to_weight(self, keys):
        # a missing s or an extra one is refused where the set is made
        with pytest.raises(InputError, match="exactly s = 1..3"):
            SpecialValues(weight=3, values={s: (mp.mpf(1), mp.mpf(0))
                                            for s in keys})

    def test_central_nonnegative(self, sym3_vals):
        with mp.workprec(192):
            assert sym3_vals.value(2) >= 0  # Lambda(m + 1), m = 1


def kernel_data(hodge, conductor=11):
    m = len(hodge) - 1
    return LFunctionData(weight=2 * m + 1, degree=2 * sum(hodge),
                         conductor=conductor, hodge=hodge, root_number=1,
                         coefficients=(1,), label="kernel")


def kernel_rung(engine, sigma, h, c=None, log_thresh=None):
    """Nodes of one line at step h; by default the line two above the
    least offset, built until the dropped nodes weigh 2^-(bits+16) of the
    line's kernel-mass bound."""
    if c is None:
        c = _min_offset(sigma, engine.header.m) + 2
    if log_thresh is None:
        log_thresh = (engine._log_mass(sigma, c)
                      - (engine.bits + 16) * math.log(2))
    with mp.workprec(engine.workbits):
        rung = _Rung(c, mp.mpf(h))
        tails = engine._node_tails(sigma, c, float(rung.h), log_thresh)
        engine._build_nodes(sigma, rung, len(tails) + 1)
    return rung


def node_sum(engine, rung, ell, count=None):
    """The rung's trapezoid kernel sum Re(g_0/2 + sum_k g_k e^{i k h ell})
    over its first count nodes (all by default), as an mpf, with ell
    truncated to the ln table's fixed point as every term's ell is."""
    ell = to_fixed(mp.mpf(ell)._mpf_, engine.lnbits)
    zr, zi = engine._unit(rung.h, ell)
    total = engine._node_sum(rung, zr, zi, count or len(rung.g))
    return mp.mpf((total, -rung.fix_shift))


def kernel_integral(data, sigma, c, ell, bits):
    """(1/2 pi) int g(t) e^{i t ell} dt by mp.quad, for reference."""
    with mp.workprec(bits):
        def f(t):
            u = mp.mpc(c, t)
            return mp.re(gamma_completed(sigma + u, data, bits) / u
                         * mp.expj(t * ell))
        return mp.quad(f, [0, 5, 20, mp.inf]) / mp.pi


def chosen_lines(curve_table, label, bits, target):
    """Run the sums of Sym^3 of a curve on the coefficients its plan
    reads; return the plan, the coefficients, per sigma what the line
    choice saw and chose, (ladder, log_mass, ell, history), and every line
    built, (sigma, rung)."""
    curve = curve_table[label]
    plan = AfePlan(sym_header(curve, 3), Precision(bits, target))
    coefficients = sym_lfunction_data(curve, 3, plan.required).coefficients
    steps, built = {}, []
    choose, build = plan._choose_lines, plan._build_nodes

    def spy_choose(sigma, ladder, log_mass, ell, base, log_budget):
        history = choose(sigma, ladder, log_mass, ell, base, log_budget)
        steps[sigma] = (ladder, log_mass, ell.tolist(), history)
        return history

    def spy_build(sigma, rung, count):
        build(sigma, rung, count)
        built.append((sigma, rung))

    plan._choose_lines, plan._build_nodes = spy_choose, spy_build
    with mp.workprec(plan.workbits):
        for sigma in (1, 2, 3):
            plan.one_sided(sigma, coefficients)
    return plan, coefficients, steps, built


class TestAfeKernel:
    @pytest.mark.parametrize("bits", [64, 192])
    @pytest.mark.parametrize("hodge", [(1, 1), (1, 0, 1), (0, 1, 1),
                                       (1, 2, 3, 4)])
    def test_g_value_matches_gamma_completed(self, hodge, bits):
        data = kernel_data(hodge)
        engine = AfePlan(data.header, Precision(bits, 1e-3))
        for sigma in (1, data.weight):
            c = mp.mpf(_min_offset(sigma, data.m)) + 2
            for t in ("0", "0.375", "3.5", "17.25", "60"):
                with mp.workprec(engine.workbits):
                    got = engine._g_value(sigma, c, mp.mpf(t))
                with mp.workprec(bits + 64):
                    u = mp.mpc(c, mp.mpf(t))
                    want = gamma_completed(sigma + u, data, bits + 64) / u
                    assert abs(got - want) <= abs(want) * mp.mpf(2) ** (8 - bits)

    @pytest.mark.parametrize("hodge", [(1, 1), (1, 1, 1), (1, 1, 1, 1)])
    def test_nodes_match_mpmath_bit_for_bit(self, hodge):
        # the libmp node and its modulus, against the same formula in
        # mpmath's number types at F bits
        data = kernel_data(hodge)
        engine = AfePlan(data.header, Precision(64, 1e-3))
        big_h, top = engine._h_total, engine._top
        h = mp.ldexp(9973451, -24)  # a 24-bit step, as the lines use
        for sigma in (1, data.weight):
            c = _min_offset(sigma, data.m) + 2
            for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55):
                with mp.workprec(engine.fixbits):
                    z = mp.mpc(mp.mpf(sigma) + c, k * h)
                    want = mp.exp(big_h * (engine._ln2 + mp.loggamma(z - top))
                                  - engine._ln2pi * (big_h * z - engine._h_moment))
                    for j, e in engine._rising:
                        want *= (z - j) ** e
                    want /= mp.mpc(c, k * h)
                    with mp.workprec(engine.workbits):
                        got = engine._g_value(sigma, c, k * h)
                    assert got._mpc_ == want._mpc_
                    assert mpc_abs(got._mpc_, engine.fixbits, "n") == abs(want)._mpf_

    def test_stirling_bound_covers_gamma(self):
        with mp.workprec(96):
            for x in (0.03, 0.4, 1, 1.75, 3.5, 12, 60.25, 400, 1500):
                for t in (0, 0.2, 1, 4.5, 30, 150, 900):
                    true = mp.re(mp.loggamma(mp.mpc(x, t)))
                    bound = log_abs_gamma_bound(x, t)
                    assert true <= bound
                    assert bound == log_abs_gamma_bound(x, -t)
                    # Binet's 1/(12 x) is the only slack at large x
                    if x >= 12:
                        assert bound - true <= 1 / (12 * x) + 1e-8

    @pytest.mark.parametrize("hodge", [(1, 1), (1, 0, 1), (1, 2, 3, 4)])
    def test_kernel_mass_bound_covers_quad(self, hodge):
        data = kernel_data(hodge)
        engine = AfePlan(data.header, Precision(64, 1e-3))
        for sigma in (1, data.weight):
            cmin = _min_offset(sigma, data.m)
            for c in (cmin, cmin + 5, cmin + 24):
                with mp.workprec(80):
                    def abs_g(t, c=c):
                        u = mp.mpc(c, t)
                        return abs(gamma_completed(sigma + u, data, 80) / u)
                    true = mp.quad(abs_g, [0, 2, 10, 40, mp.inf]) / mp.pi
                    bound = engine._log_mass(sigma, c)
                    assert mp.log(true) <= bound
                    # a sizing bound, not a wild one
                    assert bound <= mp.log(true) + 2

    @pytest.mark.parametrize("hodge", [(1, 1), (1, 0, 1), (1, 2, 3, 4)])
    def test_a_priori_step_meets_alias_bound(self, hodge):
        data = kernel_data(hodge)
        bits = 64
        engine = AfePlan(data.header, Precision(bits, 1e-3))
        fine = AfePlan(data.header, Precision(bits + 64, 1e-3))
        worst = 0
        for sigma in (1, data.weight):
            cmin = _min_offset(sigma, data.m)
            for c in (cmin, cmin + 2, cmin + 9):
                for ell in (1.2, 0, -0.8, -3.5):
                    # h sized for an alias bound of 1e-6 of the kernel mass
                    log_scale = -engine._log_mass(sigma, c) + 6 * math.log(10)
                    h, a, log_e = engine._pick_step(sigma, c, ell, ell,
                                                    log_scale)
                    assert 0 < a < min(c, sigma + c - engine._top)
                    with mp.workprec(bits + 64):
                        alias = 2 * mp.exp(log_e) / mp.expm1(2 * mp.pi * a / h)
                        assert alias <= mp.exp(-log_scale) * (1 + 1e-9)
                        thresh = float(mp.log(alias * 1e-4 * mp.pi / h))
                    rung = kernel_rung(engine, sigma, h, c, thresh)
                    ref = kernel_rung(fine, sigma, h / 4, c,
                                      thresh - 25 * math.log(10))
                    with mp.workprec(bits + 64):
                        got = rung.h / mp.pi * node_sum(engine, rung, ell)
                        want = ref.h / mp.pi * node_sum(fine, ref, ell)
                        assert abs(got - want) <= alias
                        worst = max(worst, abs(got - want) / alias)
        print("worst true error / alias bound %.3g" % worst)
        # the bound is not vacuous: some case comes within 100x of it
        assert worst > 1e-2

    def test_reference_sum_matches_quad(self):
        # the 4x-finer trapezoid used as reference above is the integral
        data = kernel_data((1, 1))
        fine = AfePlan(data.header, Precision(128, 1e-3))
        sigma, ell = 1, -0.8
        c = _min_offset(sigma, data.m) + 2
        rung = kernel_rung(fine, sigma, 0.1, c)
        with mp.workprec(128):
            got = rung.h / mp.pi * node_sum(fine, rung, ell)
            want = kernel_integral(data, sigma, c, ell, 128)
            assert abs(got - want) <= abs(want) * mp.mpf("1e-25")

    def test_each_used_line_built_once(self, sym3_data):
        engine = AfePlan(sym3_data.header, Precision(64, 1e-3))
        nodes = []
        built = []
        g_value, build = engine._g_value, engine._build_nodes

        def counted(sigma, c, t):
            nodes.append((sigma, c, t))
            return g_value(sigma, c, t)

        def recorded(sigma, rung, log_thresh):
            build(sigma, rung, log_thresh)
            built.append((sigma, rung))

        engine._g_value, engine._build_nodes = counted, recorded
        with mp.workprec(engine.workbits):
            for sigma in (1, 2, 3):
                engine.one_sided(sigma, sym3_data.coefficients)
        assert len(nodes) == sum(len(r.g) for _, r in built)
        lines = [(sigma, r.c) for sigma, r in built]
        assert len(set(lines)) == len(lines)
        want = sorted((sigma, r.c, k * r.h) for sigma, r in built
                      for k in range(len(r.g)))
        assert sorted(nodes) == want
        # the three sigma use fewer lines than the ladder holds
        assert len(lines) < 3 * len(_OFFSETS)

    @pytest.mark.parametrize("bits", [64, 192])
    def test_fixed_point_sum_within_bound(self, bits):
        engine = AfePlan(kernel_data((1, 1), conductor=1331).header,
                         Precision(bits, 1e-3))
        rung = kernel_rung(engine, 1, "0.125")
        with mp.workprec(engine.workbits):
            mass = mp.fsum(abs(g) for g in rung.g)
        assert rung.fix_err < mass * mp.mpf(2) ** (-(bits + 16))
        smallest = mass
        for ell in ("3.6", "0.7", "0", "-1.7", "-4.25"):
            for count in (len(rung.g), len(rung.g) // 3):
                # enough bits that the integer result converts exactly
                with mp.workprec(engine.fixbits + 96):
                    got = node_sum(engine, rung, ell, count)
                    z = mp.expj(rung.h * mp.mpf(ell))
                    acc = rung.g[count - 1]
                    for k in range(count - 2, 0, -1):
                        acc = acc * z + rung.g[k]
                    ref = mp.re(acc * z + rung.g[0] / 2)
                    assert abs(got - ref) <= rung.fix_err
                    smallest = min(smallest, abs(ref))
        # the sums include one that cancels to far below the node mass
        assert smallest < mass * mp.mpf("1e-12")


class TestFixedPointTerms:
    @pytest.mark.parametrize("bits,target", [(64, 1e-3), (192, 1e-25)])
    def test_tables_within_bounds(self, sym3_data, bits, target):
        # every ln n, weight n^-(sigma + c_min) and e^{i h ell} the terms
        # use, against mpmath at F + 128 bits
        engine = AfePlan(sym3_data.header, Precision(bits, target))
        weights, units = [], []
        build_weights, unit = engine._weights, engine._unit

        def recorded_weights(a4, n0):
            out = build_weights(a4, n0)
            weights.append((a4, n0, out))
            return out

        def recorded_unit(h, ell):
            out = unit(h, ell)
            units.append((h, ell, out))
            return out

        engine._weights, engine._unit = recorded_weights, recorded_unit
        with mp.workprec(engine.workbits):
            for sigma in (1, 2, 3):
                engine.one_sided(sigma, sym3_data.coefficients)
        n0 = max(n for _, n, _ in weights)
        fix, lnbits = engine.fixbits, engine.lnbits
        with mp.workprec(fix + 128):
            ell_err = engine._ell_err * mp.ldexp(1, -lnbits)
            ln_sqrt = mp.log(sym3_data.conductor) / 2
            ell_of = {}
            for n in range(1, n0 + 1):
                ln_n = mp.log(n)
                assert abs(mp.ldexp(engine._ln[n], -lnbits) - ln_n) <= ell_err
                ell = engine._ln_sqrt_fix - engine._ln[n]
                assert abs(mp.ldexp(ell, -lnbits) - (ln_sqrt - ln_n)) <= ell_err
                ell_of[ell] = ln_sqrt - ln_n
            for a4, n0, (man, exp, delta) in weights:
                assert delta < mp.ldexp(1, -(bits + 48))
                for n in range(1, n0 + 1):
                    want = mp.power(n, -mp.mpf(a4) / 4)
                    assert abs(mp.ldexp(man[n], exp[n]) - want) <= delta * want
            assert len(units) > n0
            for h, ell, (zr, zi) in units:
                want = mp.expj(h * ell_of[ell])
                got = mp.mpc(mp.ldexp(zr, -fix), mp.ldexp(zi, -fix))
                assert abs(got - want) <= engine._z_units(h) * mp.ldexp(1, -fix)

    @pytest.mark.parametrize("label,bits,target", [("11a1", 64, 1e-3),
                                                   ("43a1", 64, 1e-3),
                                                   ("11a1", 192, 1e-25)])
    def test_chosen_lines_are_argmin_groups(self, curve_table, label, bits,
                                            target):
        # each chosen line takes one contiguous range of terms, and each
        # term is on the argmin of log_mass + c ell over the chosen lines;
        # the greedy starts from the argmin over the whole ladder and every
        # step it takes lowers the predicted work
        _, _, steps, _ = chosen_lines(curve_table, label, bits, target)
        merged = 0
        for sigma, (ladder, log_mass, ell, history) in steps.items():
            works = [w for w, _ in history]
            assert works == sorted(set(works), reverse=True)
            for k, (_, lines) in enumerate((history[0], history[-1])):
                idx = [i for i, *_ in lines]
                assert idx == sorted(set(idx))
                assert all(lo < hi for _, lo, hi, *_ in lines)
                assert [lo for _, lo, *_ in lines] == [0] + [hi for _, _, hi, *_ in lines[:-1]]
                assert lines[-1][2] == len(ell)
                among = range(len(ladder)) if k == 0 else idx
                for i, lo, hi, *_ in lines:
                    for x in ell[lo:hi]:
                        assert i == min(among, key=lambda j: log_mass[j] + ladder[j] * x)
            merged += len(history[-1][1]) < len(history[0][1])
        assert merged

    def test_predicted_node_counts_are_built(self, curve_table):
        # each line is built with the node count predicted for it, and that
        # count is the stop rule's at the exact heaviest weight of its terms
        plan, coefficients, steps, built = chosen_lines(curve_table, "43a1", 64, 1e-3)
        with mp.workprec(plan.workbits):
            for sigma, (ladder, _, ell, history) in steps.items():
                lines = history[-1][1]
                assert [len(r.g) for s, r in built if s == sigma] == [k for *_, k in lines]
                terms = [(n, lam) for n, lam in enumerate(coefficients, 1)
                         if lam and n <= plan._plans[sigma][2]]
                skip_share = plan.target / (2 * _TARGET_MARGIN) / 32 / len(terms)
                for i, lo, hi, h, _, _, count in lines:
                    c = ladder[i]
                    w_max = max(abs(lam) * mp.power(n, -sigma - c) for n, lam in terms[lo:hi])
                    w_max *= mp.power(plan.header.conductor, (sigma + c) / 2)
                    thresh = float(mp.log(skip_share / (w_max * h / mp.pi)))
                    assert len(plan._node_tails(sigma, c, h, thresh)) + 1 == count

    def test_no_mpmath_call_per_term(self, sym3_data, monkeypatch):
        now = [None]
        calls = collections.Counter()
        for name in ("exp", "expj", "log", "power"):
            def counted(*args, _f=getattr(mpmath, name), **kw):
                calls[now[0]] += 1
                return _f(*args, **kw)
            monkeypatch.setattr(mpmath, name, counted)
        n0s = {}
        lines = collections.Counter()
        nodes = collections.Counter()
        one_sided = AfePlan.one_sided
        weights = AfePlan._weights
        build = AfePlan._build_nodes

        def spy_one_sided(self, sigma, coefficients):
            now[0] = sigma
            return one_sided(self, sigma, coefficients)

        def spy_weights(self, a4, n0):
            n0s[now[0]] = n0
            return weights(self, a4, n0)

        def spy_build(self, sigma, rung, log_thresh):
            build(self, sigma, rung, log_thresh)
            lines[sigma] += 1
            nodes[sigma] += len(rung.g)

        monkeypatch.setattr(AfePlan, "one_sided", spy_one_sided)
        monkeypatch.setattr(AfePlan, "_weights", spy_weights)
        monkeypatch.setattr(AfePlan, "_build_nodes", spy_build)
        special_values(sym3_data, Precision(64, 1e-3))
        for sigma in (1, 2, 3):
            # the planning of every ladder line, one exp per node, a fixed
            # number per used line and at most one per prime for the tables
            allowed = (len(primes_upto(n0s[sigma])) + 6 * len(_OFFSETS)
                       + nodes[sigma] + 6 * lines[sigma])
            assert calls[sigma] <= allowed

    def test_rounding_dominated_coverage(self, sym3_data, sym3_vals):
        # a target so far below 2^-64 |Lambda| that the computed rounding
        # part, not the budgeted 7/8 of target/32, makes most of each bound
        with mp.workprec(256):
            target = float(abs(sym3_vals.value(3)) * mp.ldexp(1, -96))
        low = special_values(sym3_data, Precision(64, target))
        with mp.workprec(256):
            for s in (1, 2, 3):
                v, e = low.values[s]
                assert e > 2 * target * 7 / 8 / 32
                v_ref, e_ref = sym3_vals.values[s]
                assert abs(mp.mpf(v) - v_ref) <= e + e_ref

    def test_merged_lines_rounding_coverage(self, curve_table):
        # 43a1 has the largest ln sqrt(N), so a term moved to a higher line
        # cancels the most; at this target rounding makes most of each
        # bound of s = 1, 3 and some sigma still merges lines
        data = sym_lfunction_data(curve_table["43a1"], 3, 16000)
        ref = special_values(data, Precision(128, 1e-27))
        with mp.workprec(256):
            target = float(abs(ref.value(3)) * mp.ldexp(1, -93))
        plan = AfePlan(data.header, Precision(64, target))
        merged = []
        choose = plan._choose_lines

        def spy(*args):
            history = choose(*args)
            merged.append(len(history) > 1)
            return history

        plan._choose_lines = spy
        low = special_values(data, plan)
        assert any(merged)
        with mp.workprec(256):
            for s in (1, 2, 3):
                v, e = low.values[s]
                if s != 2:
                    assert e > 2 * target * 25 / 32 / 32
                assert abs(mp.mpf(v) - ref.value(s)) <= e + ref.error(s)


def bisected_n0(engine, sigma, c, log_bound, budget, cap):
    """Smallest n0 <= cap whose mpmath tail majorant is within budget, or
    None: doubling then bisection on _tail_bound alone, the reference for
    the double-precision planning in AfePlan._plan."""
    bound = mp.exp(log_bound)

    def fails(n):
        return engine._tail_bound(sigma, c, bound, n) > budget

    if fails(cap):
        return None
    lo, hi = 1, 1
    while fails(hi):
        lo, hi = hi, min(cap, hi * 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(mid):
            lo = mid + 1
        else:
            hi = mid
    return hi


def searched_n0(engine, sigma, c, log_bound, log_budget, cap):
    """One line's search in AfePlan._plan: the smallest n0 <= cap whose
    doubles clear log_budget by _LOG_SLACK, or None."""
    over = engine._log_excess(sigma, c, log_bound, log_budget - _LOG_SLACK)
    n = _bisect(over, cap)
    return n if over(n) <= 0 else None


def assert_n0_passes(plan):
    """Every sigma's n0 passes the mpmath tail majorant on its line."""
    with mp.workprec(plan.workbits):
        budget = plan.target / (2 * _TARGET_MARGIN) * 3 / 8
        for sigma, (ladder, log_mass, n0, i) in plan._plans.items():
            tail = plan._tail_bound(sigma, ladder[i], mp.exp(log_mass[i]), n0)
            assert tail <= budget, (plan.header, sigma)


SYM3_LABELS = ("11a1", "14a1", "15a1", "17a1", "19a1", "37a1", "43a1")


class TestTruncationPlanning:
    @pytest.mark.parametrize("hodge,conductor", [((1, 1), 11 ** 3),
                                                 ((1, 1, 1, 1), 11 ** 7)])
    def test_n0_equals_mpmath_bisection(self, hodge, conductor):
        # the doubles give mpmath's n0, or a larger one only where mpmath's
        # crossing lies within _LOG_SLACK of the budget
        data = kernel_data(hodge, conductor)
        engine = AfePlan(data.header, Precision(64, 1e-3))
        seen = {"cap": 0, "none": 0, "inside": 0}
        with mp.workprec(engine.workbits):
            for sigma in (1, data.m + 1, data.weight):
                cmin = _min_offset(sigma, data.m)
                for c in (cmin, cmin + 9, cmin + 130):
                    for log_bound in (-20.0, 0.0, 35.0):
                        for budget in ("1e-3", "1e-12", "1e-40"):
                            budget = mp.mpf(budget)
                            args = (sigma, c, log_bound)
                            need = bisected_n0(engine, *args, budget, _N0_CAP)
                            caps = [_N0_CAP, 1, 40, 10 ** 4]
                            if need is not None:
                                caps += [need, need - 1]
                            for cap in filter(None, caps):
                                want = bisected_n0(engine, *args, budget, cap)
                                got = searched_n0(engine, *args,
                                                  float(mp.log(budget)), cap)
                                if got != want:
                                    assert want is not None
                                    assert got is None or got > want
                                    tail = engine._tail_bound(
                                        sigma, c, mp.exp(log_bound), want)
                                    assert mp.log(tail / budget) > -2 * _LOG_SLACK
                                if want is None:
                                    seen["none"] += 1
                                elif want == cap:
                                    seen["cap"] += 1
                                else:
                                    seen["inside"] += 1
        assert all(seen.values()), seen

    def test_few_mpmath_bounds_per_sigma(self, sym3_data, curve_table,
                                         monkeypatch):
        # planning runs in doubles alone; each sigma's sum adds one mpmath
        # tail majorant, at its n0
        tails, sigmas = [], []
        divisor_tail, tail_bound = lfunc.divisor_tail, AfePlan._tail_bound

        def counted_tail(*args):
            tails.append(args)
            return divisor_tail(*args)

        def counted_bound(self, sigma, c, bound, n0):
            sigmas.append(sigma)
            return tail_bound(self, sigma, c, bound, n0)

        monkeypatch.setattr(lfunc, "divisor_tail", counted_tail)
        monkeypatch.setattr(AfePlan, "_tail_bound", counted_bound)
        for label in SYM3_LABELS:
            AfePlan(sym_header(curve_table[label], 3), Precision(64, 1e-3))
        assert not tails
        special_values(sym3_data, Precision(64, 1e-3))
        assert sorted(sigmas) == [1, 2, 3] and len(tails) == 3

    @pytest.mark.parametrize("err", ["down", "up"])
    def test_plan_passes_where_doubles_err(self, curve_table, monkeypatch,
                                           err):
        # doubles that understate ("down") or overstate ("up") the tail
        # majorant by 0.9 _LOG_SLACK still give every sigma an n0 that
        # passes in mpmath: on the seven Sym^3 headers at 1e-3, and at a
        # target whose budget lies _LOG_SLACK / 2 below the majorant of
        # 11a1's sigma = 1 at its n0, which understated doubles without the
        # margin would accept
        heads = [sym_header(curve_table[label], 3) for label in SYM3_LABELS]
        plan = AfePlan(heads[0], Precision(64, 1e-3))
        ladder, log_mass, n0, i = plan._plans[1]
        with mp.workprec(plan.workbits):
            tail = plan._tail_bound(1, ladder[i], mp.exp(log_mass[i]), n0)
            edge = float(tail * mp.exp(-_LOG_SLACK / 2) * 2 * _TARGET_MARGIN * 8 / 3)
        log_tail = lfunc.log_divisor_tail
        shift = 0.9 * _LOG_SLACK * (-1 if err == "down" else 1)
        monkeypatch.setattr(lfunc, "log_divisor_tail",
                            lambda x, t, k: log_tail(x, t, k) + shift)
        for head, target in [(h, 1e-3) for h in heads] + [(heads[0], edge)]:
            assert_n0_passes(AfePlan(head, Precision(64, target)))

    def test_required_is_tight(self, sym3_data):
        # X = 100 cannot reach 1e-3 at any sigma; the count the error names
        # certifies that sigma, and one coefficient fewer does not
        prec = Precision(64, 1e-3)
        plan = AfePlan(sym3_data.header, prec)
        coeffs = sym3_data.coefficients
        with mp.workprec(plan.workbits):
            for sigma in (1, 2, 3):
                with pytest.raises(InsufficientCoefficients) as failed:
                    plan.one_sided(sigma, coeffs[:100])
                need = failed.value.required
                assert 100 < need < sym3_data.coeff_limit
                _, err = plan.one_sided(sigma, coeffs[:need])
                assert err < prec.target_abs_error
                with pytest.raises(InsufficientCoefficients) as one_less:
                    plan.one_sided(sigma, coeffs[:need - 1])
                assert one_less.value.required == need

    @pytest.mark.parametrize("name,bits,target,scaled", [
        ("sym3_data", 64, 1e-3, False),
        ("sym3_data", 192, 1e-25, False),
        ("sym5_data", 192, 1e-25, True),
        ("sym7_data", 128, 1e-9, True),
    ])
    def test_capped_search_keeps_the_minimum(self, request, name, bits,
                                             target, scaled):
        # each later line searched only below the best n0 so far gives the
        # minimum of the uncapped searches, on its first line, and that n0
        # passes in mpmath
        data = request.getfixturevalue(name)
        if scaled:
            target *= scale_estimate(data)
        engine = AfePlan(data.header, Precision(bits, target))
        with mp.workprec(engine.workbits):
            log_budget = float(mp.log(engine.target / (2 * _TARGET_MARGIN) * 3 / 8))
            for sigma in range(1, data.weight + 1):
                ladder, log_mass, n0, line = engine._plan(sigma)
                n0s = [searched_n0(engine, sigma, c, lm, log_budget, _N0_CAP)
                       for c, lm in zip(ladder, log_mass)]
                want = min(n for n in n0s if n is not None)
                assert (n0, line) == (want, n0s.index(want)), sigma
        assert_n0_passes(engine)

    @pytest.mark.parametrize("label,bits,target,scaled", [
        ("11a1", 64, 1e-3, False),
        ("43a1", 64, 1e-3, False),
        ("11a1", 192, 1e-25, True),
    ])
    def test_counted_prefix_gives_the_same_values(self, curve_table, label,
                                                   bits, target, scaled):
        # the plan reads no coefficient: the values and bounds from the
        # required prefix are those from X = 10^4, bit for bit
        full = sym_lfunction_data(curve_table[label], 3, 10000)
        if scaled:
            target *= scale_estimate(full)
        prec = Precision(bits, target)
        plan = AfePlan(full.header, prec)
        prefix = sym_lfunction_data(curve_table[label], 3, plan.required)
        assert prefix.coefficients == full.coefficients[:plan.required]
        got, want = special_values(prefix, plan), special_values(full, prec)
        assert got.values == want.values
        if scaled:
            assert plan.required == 1423

    def test_plan_for_another_header_is_refused(self, sym3_data):
        # 37a1's Sym^3 header, not 11a1's
        plan = AfePlan(kernel_data((1, 1), conductor=37 ** 3).header,
                       Precision(64, 1e-3))
        with pytest.raises(InputError, match="AFE plan is for"):
            special_values(sym3_data, plan)

    def test_required_covers_every_sigma(self, sym3_data):
        # on 100 coefficients sigma = 1, 2, 3 need 187, 189 and 193: the
        # error names the largest, and that many certify every sigma
        prec = Precision(64, 1e-3)

        def first(x):
            return replace(sym3_data, coefficients=sym3_data.coefficients[:x])

        with pytest.raises(InsufficientCoefficients, match="s = 1, 2, 3;") as failed:
            special_values(first(100), prec)
        assert failed.value.required == 193
        vals = special_values(first(193), prec)
        assert all(vals.error(s) < prec.target_abs_error for s in (1, 2, 3))


class TestVerifyHypothesis:
    def _vals(self, data, triple, bits=160):
        with mp.workprec(bits + 16):
            tiny = mp.mpf("1e-30")
            values = {s: (mp.mpf(v), tiny)
                      for s, v in zip((1, 2, 3), triple)}
        return SpecialValues(weight=data.weight, values=values, bits=bits,
                             target=1e-30, label=data.label)

    def test_clean_dataset_empty(self, sym3_data, sym3_vals):
        assert verify_hypothesis(sym3_data, sym3_vals) == []

    def test_flags_coefficient_bound(self):
        w = 3
        bad = 10 * divisor_count_at(2, 2) * mp.mpf(2) ** mp.mpf(w / 2.0)
        data = toy_data(coefficients=(mp.mpf(1), bad))
        vals = self._vals(data, (1, 0.5, 1))
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("grc") for v in out)

    def test_flags_symmetry_break(self):
        data = toy_data()
        vals = self._vals(data, (1, 0.5, 2))   # Lambda(1) != Lambda(3)
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("functional-equation") for v in out)

    def test_flags_negative_central(self):
        data = toy_data()
        vals = self._vals(data, (-1, -0.5, -1))
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("central-sign") for v in out)

    def test_flags_monotonicity_break(self):
        # weight 5 so the chain Lambda(3) <= Lambda(4) <= Lambda(5) is
        # long enough to break in the middle
        data = LFunctionData(weight=5, degree=2, conductor=3, hodge=(0, 0, 1),
                             root_number=1,
                             coefficients=(mp.mpf(1),), label="mono")
        with mp.workprec(176):
            tiny = mp.mpf("1e-30")
            values = {1: (mp.mpf(1), tiny), 2: (mp.mpf(2), tiny),
                      3: (mp.mpf(3), tiny), 4: (mp.mpf(2), tiny),
                      5: (mp.mpf(1), tiny)}
        vals = SpecialValues(weight=5, values=values, bits=160,
                             target=1e-30, label="mono")
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("monotonicity") for v in out)

    def test_flags_strengthened_chain_for_odd_sign(self):
        data = LFunctionData(weight=5, degree=2, conductor=3, hodge=(0, 0, 1),
                             root_number=-1,
                             coefficients=(mp.mpf(1),), label="st")
        with mp.workprec(176):
            tiny = mp.mpf("1e-40")
            values = {1: (mp.mpf(-9), tiny), 2: (mp.mpf(-8), tiny),
                      3: (mp.mpf(0), tiny), 4: (mp.mpf(8), tiny),
                      5: (mp.mpf(9), tiny)}
        # Lambda(4)/1 = 8 but Lambda(5)/2 = 4.5 < 8: ratio chain broken
        vals = SpecialValues(weight=5, values=values, bits=160,
                             target=1e-40, label="st")
        out = verify_hypothesis(data, vals)
        assert any(v.startswith("strengthened-chain") for v in out)
