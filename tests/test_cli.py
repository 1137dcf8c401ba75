"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main(argv) so the suite stays fast;
argparse exits (--version, unknown flags) are caught and normalized to codes.
Exit convention: 0 ok, 1 verification failure, 2 input error, 3 certification
failure.
"""

import json
import os

import pytest

from periodpoly.cli import main
from periodpoly.files import SpecialValuesCache, data_digest

DATA_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "data"))


def data_path(name):
    return os.path.join(DATA_DIR, name)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def coeff_file_lines(label, eps, pairs, conductor=5):
    lines = [
        "format=periodpoly-coeffs-1",
        "degree=2",
        "weight=3",
        f"conductor={conductor}",
        "hodge=0,1",
        f"eps={eps}",
        f"label={label}",
    ]
    lines.extend(f"{n} {value}" for n, value in pairs)
    return "\n".join(lines) + "\n"


def trivial_pairs(n_max, lambda_2="0"):
    pairs = [(1, "1"), (2, lambda_2)]
    pairs.extend((n, "0") for n in range(3, n_max + 1))
    return pairs


@pytest.fixture
def neg_coeffs(tmp_path):
    """eps = -1 synthetic whose L-series is identically 1."""
    path = tmp_path / "synneg.txt"
    path.write_text(coeff_file_lines("synthetic-neg", "-1", trivial_pairs(50)))
    return str(path)


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        import periodpoly

        assert out.strip() == periodpoly.__version__

    def test_no_subcommand_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "subcommand" in err.lower() or "usage" in err.lower()


class TestAmTable:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "am-table", "--m-max", "6")
        assert code == 0
        report = json.loads(out)
        assert report["format"] == "periodpoly-report-1"
        assert report["command"] == "am-table"
        rows = report["rows"]
        assert [row["m"] for row in rows] == [2, 3, 4, 5, 6]
        assert rows[0]["a_m"].startswith("23.8274693132")
        assert rows[1]["a_m"].startswith("11.9137346566")
        # the sequence decreases toward its limit on this range
        values = [float(row["a_m"]) for row in rows]
        assert values == sorted(values, reverse=True)

    def test_m_max_below_two_rejected(self, capsys):
        code, _, err = run_cli(capsys, "am-table", "--m-max", "1")
        assert code == 2
        assert "--m-max" in err


class TestDiscTable:
    def test_degree_four_segments(self, capsys):
        code, out, _ = run_cli(capsys, "disc-table", "--degree", "4", "--n-max", "30")
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 4
        assert report["certification_failures"] == []
        segments = [(s["from"], s["to"], s["count"]) for s in report["segments"]]
        assert segments == [(1, 1, 4), (2, 4, 3), (5, 26, 2), (27, 30, 1)]

    def test_odd_degree_rejected(self, capsys):
        code, _, err = run_cli(capsys, "disc-table", "--degree", "5", "--n-max", "10")
        assert code == 2
        assert "even" in err


class TestTableReproducibility:
    @pytest.mark.parametrize("argv", [
        ("am-table", "--m-max", "6"),
        ("disc-table", "--degree", "4", "--n-max", "30"),
    ])
    def test_identical_runs_give_identical_bytes(self, capsys, argv):
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b


class TestAnalyzeCurve:
    def test_symmetric_cube_runs_and_is_deterministic(
        self, capsys, tmp_path, sym3_data, sym3_vals
    ):
        cache_dir = tmp_path / "cache"
        SpecialValuesCache(str(cache_dir)).store("11a1-sym3", 3, sym3_vals,
                                                 data_digest(sym3_data))
        out_a = tmp_path / "report_a.json"
        out_b = tmp_path / "report_b.json"
        argv = (
            "analyze",
            "--curve", data_path("curves.txt"),
            "--label", "11a1",
            "--sym", "3",
            "--eps-overrides", data_path("eps_overrides.txt"),
            "--cache-dir", str(cache_dir),
        )
        code, _, _ = run_cli(capsys, *argv, "--output", str(out_a))
        assert code == 0
        code, _, _ = run_cli(capsys, *argv, "--output", str(out_b))
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        report = json.loads(out_a.read_text())
        assert report["label"] == "11a1-sym3"
        assert report["weight"] == 3
        assert report["degree"] == 4
        assert report["conductor"] == 11 ** 3
        assert report["root_number"] == 1
        assert report["checks"]["all_pass"] is True
        assert report["checks"]["hypothesis_clean"] is True
        assert report["checks"]["zeta_fe_ok"] is True
        assert report["checks"]["closed_form_ok"] is True
        assert report["zeta"]["closed_form_winner"] == "A"
        assert report["circle"]["num_off"] == 0
        assert report["circle"]["num_uncertain"] == 0
        assert report["gate"]["case"] in {"M1", "M2", "NONE"}

    def test_cache_misses_under_tighter_target(self, capsys, tmp_path):
        # values cached under 1e-3 must not answer a request for 1e-8
        argv = (
            "analyze",
            "--curve", data_path("curves.txt"),
            "--label", "11a1",
            "--sym", "3",
            "--eps-overrides", data_path("eps_overrides.txt"),
            "--precision-bits", "64",
            "--cache-dir", str(tmp_path / "cache"),
        )
        for target in (1e-3, 1e-8):
            code, out, _ = run_cli(capsys, *argv, "--target-error", str(target))
            assert code == 0
            report = json.loads(out)
            errors = [float(e) for _, e in report["special_values"].values()]
            assert max(errors) <= target
            assert report["target_error_effective"] == target

    def test_unknown_label_is_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze", "--curve", data_path("curves.txt"),
            "--label", "99z9", "--sym", "3",
        )
        assert code == 2
        assert "99z9" in err


class TestAnalyzeCoefficientFiles:
    def test_eps_minus_one_table_output(self, capsys, neg_coeffs):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", neg_coeffs, "--table")
        assert code == 0
        assert "forced root at z = 1 (eps = -1)" in out
        assert "checks: all pass" in out

    def test_eps_minus_one_json_report(self, capsys, neg_coeffs):
        code, out, _ = run_cli(capsys, "analyze", "--coeffs", neg_coeffs)
        assert code == 0
        report = json.loads(out)
        assert report["root_number"] == -1
        assert report["polynomials"]["forced_root_at_one"] is True
        assert report["hypothesis_violations"] == []
        # central value of the completed function vanishes identically,
        # and the functional equation pairs Lambda(1) with -Lambda(3)
        central_value, _ = report["special_values"]["2"]
        assert float(central_value) == 0.0
        low, _ = report["special_values"]["1"]
        high, _ = report["special_values"]["3"]
        assert low == "-" + high

    def test_growth_violation_fails_verification(self, capsys, tmp_path):
        path = tmp_path / "doctored.txt"
        path.write_text(
            coeff_file_lines("synthetic-grc", "+1", trivial_pairs(50, lambda_2="50"))
        )
        code, _, err = run_cli(capsys, "analyze", "--coeffs", str(path))
        assert code == 1
        assert "verification failure" in err
        assert "hypothesis_clean" in err

    def test_malformed_header_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("format=periodpoly-coeffs-1\ndegree=2\n1 1\n")
        code, _, err = run_cli(capsys, "analyze", "--coeffs", str(path))
        assert code == 2
        assert "input error" in err
        assert "broken.txt" in err

    def test_cache_keys_on_the_coefficients(self, capsys, tmp_path):
        # two files share a label; the second must not get the first's values
        paths = {}
        for name, lambda_2 in (("a", "0"), ("b", "0.5")):
            paths[name] = tmp_path / (name + ".txt")
            paths[name].write_text(coeff_file_lines(
                "shared", "-1", trivial_pairs(50, lambda_2=lambda_2)))
        cache = ("--cache-dir", str(tmp_path / "cache"))
        reports = {}
        for key, argv in (("a", ("--coeffs", str(paths["a"])) + cache),
                          ("b", ("--coeffs", str(paths["b"])) + cache),
                          ("b-cold", ("--coeffs", str(paths["b"])))):
            code, out, _ = run_cli(capsys, "analyze", *argv)
            assert code == 0
            reports[key] = json.loads(out)["special_values"]
        assert reports["b"] == reports["b-cold"]
        assert reports["b"] != reports["a"]

    def test_short_coefficient_list_is_a_certification_failure(
        self, capsys, tmp_path
    ):
        path = tmp_path / "tiny.txt"
        path.write_text(coeff_file_lines("tiny", "+1", trivial_pairs(4)))
        code, _, err = run_cli(capsys, "analyze", "--coeffs", str(path))
        assert code == 3
        assert "certification failure" in err
        assert "too short" in err

    def test_exactly_one_input_required(self, capsys, tmp_path, neg_coeffs):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 2
        assert "exactly one" in err

        code, _, err = run_cli(
            capsys,
            "analyze", "--coeffs", neg_coeffs, "--curve", data_path("curves.txt"),
        )
        assert code == 2
        assert "exactly one" in err

    def test_low_precision_rejected(self, capsys, neg_coeffs):
        code, _, err = run_cli(
            capsys, "analyze", "--coeffs", neg_coeffs, "--precision-bits", "32"
        )
        assert code == 2
        assert "64" in err


class TestCacheCommand:
    def test_lists_seeded_entries(self, capsys, tmp_path, sym3_data, sym3_vals):
        cache_dir = tmp_path / "cache"
        digest = data_digest(sym3_data)
        SpecialValuesCache(str(cache_dir)).store("11a1-sym3", 3, sym3_vals,
                                                 digest)
        code, out, _ = run_cli(capsys, "cache", "--dir", str(cache_dir))
        assert code == 0
        report = json.loads(out)
        entries = report["entries"]
        assert len(entries) == 1
        assert entries[0]["label"] == "11a1-sym3"
        assert entries[0]["data_sha256"] == digest
        assert entries[0]["records"] == 3
        assert entries[0]["s_values"] == [1, 2, 3]

    def test_empty_directory_lists_nothing(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "cache", "--dir", str(tmp_path / "nowhere"))
        assert code == 0
        assert json.loads(out)["entries"] == []
