"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main(argv) so the suite stays fast;
argparse exits (--version, unknown flags) are caught and normalized to codes.
Exit convention: 0 ok, 1 verification failure, 2 input error, 3 certification
failure.
"""

import json
import os

import pytest

from periodpoly import AfePlan, Precision, sym_lfunction_data, sympow
from periodpoly.cli import main
from periodpoly.files import SpecialValuesCache, data_digest, sha256_file
from periodpoly.numutil import primes_upto
from periodpoly.pipeline import scale_estimate

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

    @pytest.mark.parametrize("argv", [
        ("am-table", "--m-max", "4"),
        ("disc-table", "--degree", "4", "--n-max", "10"),
        ("cache", "--dir", "."),
        ("analyze", "--coeffs", data_path("curves.txt")),
    ])
    def test_unusable_output_path_is_an_input_error(self, capsys, tmp_path,
                                                    argv):
        # a file in a missing directory, then a directory
        out_path = tmp_path / "missing" / "x.json"
        for path in (out_path, tmp_path):
            code, out, err = run_cli(capsys, *argv, "--output", str(path))
            assert code == 2
            assert out == ""
            assert err == ("input error: output must be a file in an "
                           "existing directory: %s\n" % path)
        assert not out_path.parent.exists()


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

    def test_precision_bits_is_not_a_flag(self, capsys):
        # the table is computed in complex128; no bit count reaches it
        code, _, err = run_cli(capsys, "disc-table", "--degree", "4",
                               "--n-max", "10", "--precision-bits", "64")
        assert code == 2
        assert "--precision-bits" in err


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


@pytest.fixture
def counted_primes(monkeypatch):
    """The primes sympow.ap_count is asked for, in order."""
    primes = []
    ap_count = sympow.ap_count

    def counting(curve, p):
        primes.append(p)
        return ap_count(curve, p)

    monkeypatch.setattr(sympow, "ap_count", counting)
    return primes


class TestAnalyzeCurve:
    def test_symmetric_cube_runs_and_is_deterministic(
        self, capsys, tmp_path, monkeypatch, curve_11a1, sym3_data, sym3_vals
    ):
        # the default request (192 bits, scale * 1e-25) counts only the
        # coefficients its sums read, so the seeded record is keyed by
        # their digest, and both runs must hit it
        target = scale_estimate(sym3_data) * 1e-25
        n0 = AfePlan(sym3_data.header, Precision(192, target)).required
        cache_dir = tmp_path / "cache"
        SpecialValuesCache(str(cache_dir)).store(
            "11a1-sym3", 3, sym3_vals,
            data_digest(sym_lfunction_data(curve_11a1, 3, n0)))

        def never(*args):
            raise AssertionError("special_values called on a cache hit")

        monkeypatch.setattr("periodpoly.cli.special_values", never)
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
        assert report["coefficients_used"] == n0 == 1423
        assert report["weight"] == 3
        assert report["degree"] == 4
        assert report["conductor"] == 11 ** 3
        assert report["root_number"] == 1
        assert report["checks"]["all_pass"] is True
        assert report["checks"]["hypothesis_clean"] is True
        assert report["checks"]["zeta_fe_ok"] is True
        assert report["checks"]["closed_form_ok"] is True
        assert report["circle"]["num_off"] == 0
        assert report["circle"]["num_uncertain"] == 0
        assert report["gate"]["case"] == "M1"
        assert report["gate"]["satisfied"] is True
        # P_1 - P_0 in P's units, rendered as [value, error]
        value, error = report["gate"]["margin_22"]
        assert float(value) > float(error) > 0

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

    def test_disagreeing_override_is_an_input_error(self, capsys, tmp_path):
        # 11a1 Sym^3 has root number +1; a file recording -1 is refused
        overrides = tmp_path / "eps.txt"
        overrides.write_text("format=periodpoly-eps-1\n11a1 3 -1\n")
        code, out, err = run_cli(
            capsys,
            "analyze", "--curve", data_path("curves.txt"),
            "--label", "11a1", "--sym", "3",
            "--eps-overrides", str(overrides),
            "--coeff-limit", "2000", "--precision-bits", "64",
            "--target-error", "1e-3",
        )
        assert code == 2
        assert out == ""
        assert ("11a1 Sym^3: eps.txt records root number -1, but the local "
                "data give +1") in err

    def test_overrides_only_add_an_input_hash(self, capsys):
        argv = (
            "analyze", "--curve", data_path("curves.txt"),
            "--label", "53a1", "--sym", "3",
            "--precision-bits", "64", "--target-error", "1e-3",
        )
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        code, checked, _ = run_cli(
            capsys, *argv, "--eps-overrides", data_path("eps_overrides.txt"))
        assert code == 0
        plain, checked = json.loads(plain), json.loads(checked)
        assert plain["root_number"] == -1
        assert checked.pop("inputs") == dict(
            plain.pop("inputs"),
            **{"eps_overrides.txt": sha256_file(data_path("eps_overrides.txt"))})
        assert plain == checked

    def test_counts_only_the_coefficients_the_sums_read(
            self, capsys, counted_primes):
        code, out, _ = run_cli(
            capsys, "analyze", "--curve", data_path("curves.txt"),
            "--label", "11a1", "--sym", "3", "--precision-bits", "64",
            "--target-error", "1e-3")
        assert code == 0
        assert json.loads(out)["coefficients_used"] == 193
        assert counted_primes == primes_upto(193)

    @pytest.mark.parametrize("argv,required", [
        (("--sym", "3", "--coeff-limit", "100", "--precision-bits", "64",
          "--target-error", "1e-3"), 193),
        # the default cap of 10^4 coefficients is short of Sym^5's n0
        (("--sym", "5"), 43133),
    ])
    def test_short_count_fails_before_counting(self, capsys, counted_primes,
                                               argv, required):
        code, out, err = run_cli(
            capsys, "analyze", "--curve", data_path("curves.txt"),
            "--label", "11a1", *argv)
        assert code == 3
        assert out == ""
        assert "roughly %d terms required" % required in err
        assert counted_primes == []

    def test_coeff_limit_below_one_is_an_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--curve", data_path("curves.txt"),
            "--label", "11a1", "--sym", "3", "--coeff-limit", "0")
        assert code == 2
        assert out == ""
        assert err == "input error: --coeff-limit must be at least 1\n"

    def test_sym_must_be_odd_and_at_least_three(self, capsys):
        errors = set()
        for sym in ("0", "1", "4"):
            code, _, err = run_cli(
                capsys,
                "analyze", "--curve", data_path("curves.txt"),
                "--label", "11a1", "--sym", sym,
            )
            assert code == 2
            errors.add(err)
        assert errors == {"input error: symmetric power n must be odd and "
                          ">= 3\n"}

    def test_curve_needs_sym(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--curve",
                               data_path("curves.txt"), "--label", "11a1")
        assert code == 2
        assert err == "input error: --curve needs --sym, an odd n >= 3\n"

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

    def test_curve_flags_rejected(self, capsys, neg_coeffs):
        # each of these selects or builds curve data; with --coeffs it
        # would be ignored, and the report would not show it
        code, out, err = run_cli(
            capsys, "analyze", "--coeffs", neg_coeffs, "--sym", "5",
            "--label", "X", "--eps-overrides", data_path("eps_overrides.txt"),
            "--coeff-limit", "100")
        assert code == 2
        assert out == ""
        assert err == ("input error: flags for --curve input given with "
                       "--coeffs: --sym, --label, --eps-overrides, "
                       "--coeff-limit\n")
        for flag, value in (("--sym", "3"), ("--coeff-limit", "10000")):
            code, _, err = run_cli(capsys, "analyze", "--coeffs", neg_coeffs,
                                   flag, value)
            assert code == 2
            assert err.endswith("--coeffs: %s\n" % flag)

    def test_infinite_target_rejected(self, capsys, neg_coeffs):
        code, out, err = run_cli(capsys, "analyze", "--coeffs", neg_coeffs,
                                 "--target-error", "inf")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_cache_dir_that_is_a_file_rejected(self, capsys, tmp_path,
                                               neg_coeffs, monkeypatch):
        # refused before the special values are computed
        def never(*args):
            raise AssertionError("special_values called")

        monkeypatch.setattr("periodpoly.cli.special_values", never)
        path = tmp_path / "cache"
        path.write_text("")
        code, out, err = run_cli(capsys, "analyze", "--coeffs", neg_coeffs,
                                 "--cache-dir", str(path))
        assert code == 2
        assert out == ""
        assert err == "input error: cache directory is a file: %s\n" % path

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
        assert report["total_records"] == 1
        assert entries[0]["weight"] == 3  # one record holds s = 1..3

    def test_empty_directory_lists_nothing(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "cache", "--dir", str(tmp_path / "nowhere"))
        assert code == 0
        assert json.loads(out)["entries"] == []
