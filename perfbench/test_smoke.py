"""Seconds-long smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Exercises the checks, one untraced and one traced pass of each workload
kind, the per-layer figures, and the refusal to run without a source tree.
It does not touch reference.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import AnalyzeSpec, CircleRv, ColdBatch  # noqa: E402

TINY = ["--coeff-limit", "2000", "--precision-bits", "64",
        "--target-error", "1e-3"]


def _passes(wl):
    for _ in range(wl.setup_reps):
        wl.prepare()
    ops = wl.ops()
    plain = run.run_pass(ops)
    tracer = Tracer()
    traced = run.run_pass(ops, tracer)
    return plain, traced, layer_metrics(tracer.spans, tracer.counts)


def _failures(rec):
    return [f for _, res in rec["ops"] for f in res.failures]


def test_cold_batch(tmp_path):
    specs = [AnalyzeSpec("smoke:11a1", "11a1", 3, TINY),
             AnalyzeSpec("smoke:37a1", "37a1", 3, TINY)]
    plain, traced, layers = _passes(ColdBatch(tmp_path, 0, specs,
                                              reference=None))
    assert _failures(plain) == [] and _failures(traced) == []
    assert len(plain["ops"]) == 2
    assert all(0 < res.bound_ratio <= 1 for _, res in plain["ops"])
    assert layers["lfunc.special_values_calls"] == 2
    assert layers["lfunc.loggamma_calls"] > 0
    assert layers["sympow.ap_count_calls"] == 2 * 303  # primes up to 2000
    # every op starts from an empty cache
    assert layers["files.cache_lookups"] == 2
    assert layers["files.cache_hits"] == 0
    assert layers["cli.self_s"] > 0


def test_run_cycling_covers_every_op():
    calls = []
    ops = [lambda k=k: calls.append(k) or run.OpResult() for k in range(3)]
    per_op = run.run_cycling(ops, 0)
    assert calls == [0, 1, 2]
    assert [len(recs) for recs in per_op] == [1, 1, 1]


def test_circle_rv(tmp_path):
    wl = CircleRv(tmp_path, 7, shapes=((3, 0), (2, 1)),
                  disc_tables={4: (800, [(1, 4), (2, 3), (5, 2), (27, 1),
                                         (746, 0)])}, m_max=6)
    plain, traced, layers = _passes(wl)
    assert _failures(plain) == [] and _failures(traced) == []
    assert len(plain["ops"]) == 4
    # two check_zeta_properties calls plus one circle_report
    assert layers["zeros.poly_roots_calls"] == 3
    assert layers["zeros.contour_points"] > 0
    assert layers["lfunc.loggamma_calls"] == 0
    assert layers["sympow.ap_count_calls"] == 0


def test_wrong_disc_table_is_a_failure(tmp_path):
    wl = CircleRv(tmp_path, 7, shapes=(), m_max=6,
                  disc_tables={4: (800, [(1, 4)])})
    plain, _, _ = _passes(wl)
    assert any("disc-table d=4" in f for f in _failures(plain))


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "circle-rv", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_result_line_shape(tmp_path, capsys, monkeypatch):
    def tiny(work, seed):
        return CircleRv(work, seed, shapes=((2, 0),), disc_tables={}, m_max=3)

    monkeypatch.setitem(sys.modules["workloads"].WORKLOADS, "tiny", tiny)
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(run.END_TO_END_UNITS)
