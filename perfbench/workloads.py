"""The benchmark workloads and the checks applied to every op.

A workload has a set-up step and a fixed list of ops (one pass).  Each op
returns an ``OpResult``: the list of failed checks (empty when the op is
correct) and, for analyze ops, the largest reported error bound divided by
the requested target.  Only ``circle-rv`` draws its inputs from the seed;
``sym3-cold-batch`` uses the fixed datasets in ``data/``.
"""

import contextlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

BATCH_LABELS = ("11a1", "14a1", "15a1", "17a1", "19a1", "37a1", "43a1")

# (n quadratic factors, n (1+z) factors) of each circle-rv polynomial, mean
# degree 21.4.  Degrees above 33 are left out: there the root polishing
# often runs to its iteration cap, and whether it does depends on the drawn
# angles (one shape took 0.3 s to 4 s), which made the pass time unsteady.
CIRCLE_SHAPES = (
    (1, 0), (2, 1), (3, 0), (4, 2), (5, 0), (6, 4), (7, 1), (8, 0),
    (9, 3), (10, 0), (11, 2), (12, 0), (12, 4), (13, 1), (13, 4), (14, 0),
    (14, 2), (14, 3), (15, 2), (16, 1),
)
CIRCLE_BITS = 192
DISC_TABLES = {
    4: (800, [(1, 4), (2, 3), (5, 2), (27, 1), (746, 0)]),
    6: (46000, [(1, 5), (2, 4), (7, 3), (38, 2), (495, 1), (45607, 0)]),
}
AM_MAX = 50


@dataclass
class OpResult:
    failures: list = field(default_factory=list)
    bound_ratio: float = None


def _cli_main(argv):
    """Run the CLI in-process; return (exit code, captured stderr)."""
    from periodpoly.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code
    return rc, err.getvalue().strip()


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class AnalyzeSpec:
    """One ``periodpoly analyze`` call on a curve from data/curves.txt;
    ``key`` names its entry in reference.json."""

    def __init__(self, key, label, sym, extra=()):
        self.key = key
        self.label = label
        self.sym = sym
        self.extra = list(extra)

    def argv(self, cache_dir, output):
        return ["analyze", "--curve", str(DATA / "curves.txt"),
                "--label", self.label, "--sym", str(self.sym),
                "--eps-overrides", str(DATA / "eps_overrides.txt"),
                *self.extra, "--cache-dir", str(cache_dir),
                "--output", str(output)]

    def run(self, cache_dir, output, reference):
        rc, err = _cli_main(self.argv(cache_dir, output))
        if rc != 0:
            return OpResult(["%s: exit status %s: %s" % (self.key, rc, err)])
        with open(output, encoding="utf-8") as fh:
            report = json.load(fh)
        return check_analyze_report(self.key, report, reference)


def check_analyze_report(key, report, reference):
    """All checks of one analyze report; reference may be None (smoke)."""
    from mpmath import mp, mpf

    failures = []
    if not report["checks"]["all_pass"]:
        failures.append("%s: checks.all_pass is false" % key)
    target = report["target_error_requested"]
    if target is None:
        target = report["target_error_effective"]
    values = report["special_values"]
    worst = max(float(e) for _, e in values.values())
    if worst > target:
        failures.append("%s: bound %.3g exceeds target %.3g"
                        % (key, worst, target))
    if reference is not None:
        ref = reference[key]["special_values"]
        if sorted(ref) != sorted(values):
            failures.append("%s: s-range %s, reference %s"
                            % (key, sorted(values), sorted(ref)))
        with mp.workprec(400):
            for s in sorted(set(ref) & set(values)):
                v, e = (mpf(x) for x in values[s])
                v_ref, e_ref = (mpf(x) for x in ref[s])
                if abs(v - v_ref) > e + e_ref:
                    failures.append("%s: Lambda(%s) = %s is off the reference "
                                    "%s by more than %s" % (key, s, values[s][0],
                                                            ref[s][0], e + e_ref))
    return OpResult(failures, worst / target)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    """Base: ``prepare`` builds the inputs (timed as set-up), ``ops`` is
    the fixed pass, each entry a zero-argument callable -> OpResult."""

    setup_reps = 5  # prepare() repetitions whose median counts as set-up

    def __init__(self, work_dir, seed):
        self.work_dir = Path(work_dir)
        self.seed = seed

    def prepare(self):
        pass

    def ops(self):
        raise NotImplementedError


class ColdBatch(Workload):
    """One op per analysis, each from an empty cache that it then writes."""

    def __init__(self, work_dir, seed, specs, reference):
        super().__init__(work_dir, seed)
        self.specs = specs
        self.reference = reference

    def ops(self):
        def op(spec):
            cache = _fresh_dir(self.work_dir / "cache")
            return spec.run(cache, self.work_dir / "report.json",
                            self.reference)
        return [lambda spec=spec: op(spec) for spec in self.specs]


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def circle_polynomials(seed, shapes):
    """Products of unit-circle quadratics z^2 - 2 cos(t) z + 1 and (1+z)
    factors.  The seed draws each angle inside its own slice of
    (0.05, pi - 0.02), so roots never cluster and each shape costs the
    same from seed to seed.  Returns [(RealPolynomial, n (1+z) factors)]."""
    import mpmath as mp
    from periodpoly import RealPolynomial

    rng = random.Random(seed)
    lo, hi = 0.05, math.pi - 0.02
    out = []
    with mp.workprec(CIRCLE_BITS):
        for n_quad, n_plus in shapes:
            width = (hi - lo) / n_quad
            coeffs = [mp.mpf(1)]
            for k in range(n_quad):
                theta = mp.mpf(lo + width * (k + rng.uniform(0.25, 0.75)))
                coeffs = _conv(coeffs, [mp.mpf(1), -2 * mp.cos(theta),
                                        mp.mpf(1)])
            for _ in range(n_plus):
                coeffs = _conv(coeffs, [mp.mpf(1), mp.mpf(1)])
            poly = RealPolynomial(tuple((c, mp.mpf(0)) for c in coeffs),
                                  bits=CIRCLE_BITS)
            out.append((poly, n_plus))
    return out


def circle_op(poly, n_plus):
    """rv_transform, then check_zeta_properties, then circle_report when
    the polynomial has no (1+z) factor."""
    from periodpoly.rv import check_zeta_properties, rv_transform
    from periodpoly.zeros import circle_report

    failures = []
    zcheck = check_zeta_properties(rv_transform(poly))
    if not zcheck.ok:
        failures.append("degree %d: ZetaCheck not ok (fe %.3g, line %.3g)"
                        % (poly.degree, zcheck.fe_residual,
                           zcheck.max_line_deviation))
    if n_plus == 0:
        circ = circle_report(poly)
        if circ.num_on != poly.degree:
            failures.append("degree %d: %d roots certified on the circle"
                            % (poly.degree, circ.num_on))
    return OpResult(failures)


def disc_table_op(work_dir, degree, n_max, expected):
    out = work_dir / "disc.json"
    rc, err = _cli_main(["disc-table", "--degree", str(degree),
                         "--n-max", str(n_max), "--output", str(out)])
    if rc != 0:
        return OpResult(["disc-table d=%d: exit status %s: %s"
                         % (degree, rc, err)])
    with open(out, encoding="utf-8") as fh:
        got = [(t["n"], t["count"]) for t in json.load(fh)["transitions"]]
    if got != expected:
        return OpResult(["disc-table d=%d: transitions %s, expected %s"
                         % (degree, got, expected)])
    return OpResult()


def am_table_op(work_dir, m_max):
    out = work_dir / "am.json"
    rc, err = _cli_main(["am-table", "--m-max", str(m_max),
                         "--output", str(out)])
    if rc != 0:
        return OpResult(["am-table: exit status %s: %s" % (rc, err)])
    with open(out, encoding="utf-8") as fh:
        a = [float(r["a_m"]) for r in json.load(fh)["rows"]]
    if (len(a) != m_max - 1 or not 23.80 < a[0] <= 23.83
            or any(x <= y for x, y in zip(a, a[1:]))
            or a[-1] <= 2 * math.pi):
        return OpResult(["am-table: A_m not decreasing from 23.8 to 2 pi"])
    return OpResult()


class CircleRv(Workload):
    """Seeded unit-circle polynomials through the RV transform and root
    isolation, plus the disc-zero and A_m tables."""

    def __init__(self, work_dir, seed, shapes=CIRCLE_SHAPES,
                 disc_tables=DISC_TABLES, m_max=AM_MAX):
        super().__init__(work_dir, seed)
        self.shapes = shapes
        self.disc_tables = disc_tables
        self.m_max = m_max
        self.polys = []

    def prepare(self):
        self.polys = circle_polynomials(self.seed, self.shapes)

    def ops(self):
        ops = [lambda p=p, j=j: circle_op(p, j) for p, j in self.polys]
        for d, (n_max, expected) in sorted(self.disc_tables.items()):
            ops.append(lambda d=d, n=n_max, e=expected:
                       disc_table_op(self.work_dir, d, n, e))
        ops.append(lambda: am_table_op(self.work_dir, self.m_max))
        return ops


BATCH = [AnalyzeSpec("sym3-cold-batch:" + label, label, 3,
                     ["--precision-bits", "64", "--target-error", "1e-3"])
         for label in BATCH_LABELS]

WORKLOADS = {
    "sym3-cold-batch": lambda wd, seed: ColdBatch(wd, seed, BATCH,
                                                  _load_reference()),
    "circle-rv": CircleRv,
}

# every analyze op whose values are pinned in reference.json
REFERENCE_SPECS = BATCH
