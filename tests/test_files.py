"""Text formats, exact serialization of mpf values, and the value cache."""

import json

import pytest
from mpmath import mp

from periodpoly import (
    InputError,
    LFunctionData,
    SpecialValues,
    SpecialValuesCache,
    canonical_report_text,
    coefficient_file_text,
    data_digest,
    mpf_from_obj,
    mpf_to_obj,
    parse_coefficient_text,
    parse_curve_text,
    parse_eps_overrides_text,
    sha256_file,
    write_coefficient_file,
    write_report,
)
from periodpoly.files import _record_checksum

GOOD = """# weight-3 toy dataset
format=periodpoly-coeffs-1
degree=2
weight=3
conductor=7
hodge=0,1
eps=+1
label=toy
1 1.0
2 0.5
3 -0.25
"""


class TestCoefficientFormat:
    def test_round_trip(self):
        data = parse_coefficient_text(GOOD, "good")
        assert data.weight == 3
        assert data.degree == 2
        assert data.conductor == 7
        assert data.hodge == (0, 1)
        assert data.root_number == 1
        assert data.label == "toy"
        assert len(data.coefficients) == 3
        text = coefficient_file_text(data)
        again = parse_coefficient_text(text, "again")
        assert again.coefficients == data.coefficients
        assert again.label == data.label

    def test_write_and_parse_file(self, tmp_path):
        data = parse_coefficient_text(GOOD, "good")
        path = tmp_path / "toy.txt"
        write_coefficient_file(str(path), data)
        from periodpoly import parse_coefficient_file

        again = parse_coefficient_file(str(path))
        assert again.conductor == 7

    def test_missing_format_header(self):
        with pytest.raises(InputError) as err:
            parse_coefficient_text("degree=2\n", "nohdr")
        assert "nohdr" in str(err.value)
        assert "format" in str(err.value)

    def test_unknown_key_names_line(self):
        bad = GOOD.replace("label=toy", "labell=toy")
        with pytest.raises(InputError) as err:
            parse_coefficient_text(bad, "bad")
        assert "labell" in str(err.value)
        assert "line" in str(err.value)

    def test_duplicate_header(self):
        bad = GOOD.replace("eps=+1", "eps=+1\neps=-1")
        with pytest.raises(InputError) as err:
            parse_coefficient_text(bad, "dup")
        assert "duplicate header" in str(err.value)

    def test_gap_in_indices(self):
        bad = GOOD.replace("2 0.5\n", "")
        with pytest.raises(InputError) as err:
            parse_coefficient_text(bad, "gap")
        assert "gap" in str(err.value)

    def test_duplicate_index(self):
        bad = GOOD.replace("2 0.5", "1 0.5")
        with pytest.raises(InputError) as err:
            parse_coefficient_text(bad, "dupn")
        assert "out-of-order" in str(err.value)

    def test_bad_value(self):
        bad = GOOD.replace("0.5", "zero.five")
        with pytest.raises(InputError) as err:
            parse_coefficient_text(bad, "badval")
        assert "zero.five" in str(err.value)

    def test_missing_headers_listed(self):
        bad = "format=periodpoly-coeffs-1\ndegree=2\n1 1.0\n"
        with pytest.raises(InputError) as err:
            parse_coefficient_text(bad, "short")
        msg = str(err.value)
        assert "weight" in msg and "conductor" in msg


class TestCurveAndEpsFormats:
    def test_curves(self):
        text = ("format=periodpoly-curves-1\n"
                "0 -1 1 -10 -20 11 11a1\n"
                "0 0 1 -1 0 37 37a1\n")
        curves = parse_curve_text(text, "c")
        assert [c.label for c in curves] == ["11a1", "37a1"]
        assert curves[0].conductor == 11

    def test_curve_duplicate_label(self):
        text = ("format=periodpoly-curves-1\n"
                "0 -1 1 -10 -20 11 11a1\n"
                "0 -1 1 -10 -20 11 11a1\n")
        with pytest.raises(InputError):
            parse_curve_text(text, "c")

    def test_curve_token_count(self):
        with pytest.raises(InputError) as err:
            parse_curve_text("format=periodpoly-curves-1\n1 2 3\n", "c")
        assert "line 2" in str(err.value)

    def test_eps_overrides(self):
        text = ("format=periodpoly-eps-1\n"
                "11a1 3 +1\n"
                "37a1 3 -1   # determined experimentally\n")
        table = parse_eps_overrides_text(text, "e")
        assert table == {("11a1", 3): 1, ("37a1", 3): -1}

    def test_eps_rejects_bad_sign(self):
        with pytest.raises(InputError):
            parse_eps_overrides_text("format=periodpoly-eps-1\n11a1 3 2\n", "e")


class TestExactSerialization:
    def test_round_trip_exact(self):
        with mp.workprec(300):
            samples = [mp.sqrt(2), +mp.pi, mp.mpf("-1e-100") / 3,
                       mp.mpf(0), mp.mpf(7)]
        for x in samples:
            obj = mpf_to_obj(x)
            y = mpf_from_obj(obj)
            assert x._mpf_ == y._mpf_, obj

    def test_no_ambient_rounding(self):
        # serialize from the 53-bit default context a value carrying a
        # 200-bit mantissa; every bit must survive
        with mp.workprec(200):
            x = mp.sqrt(3)
        obj = mpf_to_obj(x)
        assert mpf_from_obj(obj)._mpf_ == x._mpf_

    def test_int_and_float_inputs(self):
        big = 12345678901234567890123456789
        assert int(mpf_from_obj(mpf_to_obj(big))) == big
        assert float(mpf_from_obj(mpf_to_obj(0.1))) == 0.1


def make_values(bits, weight=3, seed=1, target=1e-20):
    with mp.workprec(bits):
        vals = {}
        for s in range(1, weight + 1):
            v = mp.sqrt(seed + s) * 10
            vals[s] = (+v, mp.mpf(2) ** (-bits + 4))
        # impose the even functional equation exactly
        for s in range(1, (weight + 1) // 2 + 1):
            vals[weight + 1 - s] = vals[s]
    return SpecialValues(weight=weight, values=vals, bits=bits,
                         target=target, label="cache-test")


DIGEST = "0" * 64


def toy_lfunction(**kw):
    args = dict(weight=3, degree=2, conductor=11, hodge=(0, 1),
                root_number=1, label="toy")
    args.update(kw)
    return LFunctionData(**args)


class TestCache:
    def test_store_load_bit_identical(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        vals = make_values(224)
        cache.store("cache-test", 3, vals, DIGEST)
        again = cache.load("cache-test", 3, 224, 3, 1e-20, DIGEST)
        assert again is not None
        for s in (1, 2, 3):
            assert again.values[s][0]._mpf_ == vals.values[s][0]._mpf_
            assert again.values[s][1]._mpf_ == vals.values[s][1]._mpf_

    def test_miss_on_other_bits(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224), DIGEST)
        assert cache.load("cache-test", 3, 192, 3, 1e-20, DIGEST) is None

    def test_miss_on_weight_mismatch(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224), DIGEST)
        assert cache.load("cache-test", 3, 224, 5, 1e-20, DIGEST) is None

    def test_miss_on_tighter_target(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224, target=1e-3), DIGEST)
        assert cache.load("cache-test", 3, 224, 3, 1e-8, DIGEST) is None
        assert cache.load("cache-test", 3, 224, 3, 1e-2, DIGEST).target == 1e-3

    def test_tighter_set_stored_after_looser(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224, seed=1, target=1e-3), DIGEST)
        tight = make_values(224, seed=2, target=1e-8)
        assert cache.store("cache-test", 3, tight, DIGEST) == 3
        got = cache.load("cache-test", 3, 224, 3, 1e-8, DIGEST)
        assert got.target == 1e-8
        assert got.values[1][0]._mpf_ == tight.values[1][0]._mpf_
        # the loosest qualifying set answers a looser request
        assert cache.load("cache-test", 3, 224, 3, 1e-3, DIGEST).target == 1e-3

    def test_store_is_idempotent(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        vals = make_values(224)
        cache.store("cache-test", 3, vals, DIGEST)
        size1 = (tmp_path / "special_values.jsonl").stat().st_size
        cache.store("cache-test", 3, vals, DIGEST)
        assert (tmp_path / "special_values.jsonl").stat().st_size == size1

    def test_corrupted_lines_skipped(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224), DIGEST)
        path = tmp_path / "special_values.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        value = rec["values"]["1"]["value"]
        value[1] = str(int(value[1]) + 1)  # break checksum
        lines[0] = json.dumps(rec)
        path.write_text("\n".join(["not json at all"] + lines) + "\n")
        # the set with a broken checksum is no longer there to load
        assert cache.load("cache-test", 3, 224, 3, 1e-20, DIGEST) is None

    def _rewrite(self, tmp_path, edit):
        """Store one set, let ``edit`` change its record, and re-seal the
        checksum, so that only the edit can make the record miss."""
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224), DIGEST)
        path = tmp_path / "special_values.jsonl"
        rec = json.loads(path.read_text())
        edit(rec)
        rec["checksum"] = _record_checksum(rec)
        path.write_text(json.dumps(rec) + "\n")
        return cache

    def test_incomplete_set_misses(self, tmp_path):
        cache = self._rewrite(tmp_path, lambda rec: rec["values"].pop("3"))
        assert cache.load("cache-test", 3, 224, 3, 1e-20, DIGEST) is None
        assert list(cache.records()) == []

    def test_cache_2_record_misses(self, tmp_path):
        # periodpoly-cache-2 records predate the exact zero central value of
        # eps = -1 (they carry an error where a cold run gives 0), so they
        # miss rather than answer with other bounds than a recomputation
        cache = self._rewrite(
            tmp_path, lambda rec: rec.update(format="periodpoly-cache-2"))
        assert cache.load("cache-test", 3, 224, 3, 1e-20, DIGEST) is None
        assert list(cache.records()) == []

    def test_record_without_target_misses(self, tmp_path):
        cache = self._rewrite(tmp_path, lambda rec: rec.pop("target"))
        assert cache.load("cache-test", 3, 224, 3, 1e-20, DIGEST) is None

    def test_old_per_s_record_misses(self, tmp_path):
        # a line as the per-s format periodpoly-cache-1 wrote it
        vals = make_values(224)
        rec = {"format": "periodpoly-cache-1", "label": "cache-test",
               "sym": 3, "s": 1, "bits": 224, "weight": 3, "target": 1e-20,
               "data_sha256": DIGEST, "value": mpf_to_obj(vals.value(1)),
               "value_dec": "", "error": mpf_to_obj(vals.error(1)),
               "error_dec": ""}
        rec["checksum"] = _record_checksum(rec)
        (tmp_path / "special_values.jsonl").write_text(json.dumps(rec) + "\n")
        cache = SpecialValuesCache(str(tmp_path))
        assert cache.load("cache-test", 3, 224, 3, 1e-20, DIGEST) is None
        # the set is recomputed once and stored in the current format
        assert cache.store("cache-test", 3, vals, DIGEST) == 3
        assert cache.load("cache-test", 3, 224, 3, 1e-20, DIGEST) is not None

    def test_miss_on_other_data(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224), DIGEST)
        assert cache.load("cache-test", 3, 224, 3, 1e-20, "1" * 64) is None

    def test_record_without_digest_misses(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224), DIGEST)
        path = tmp_path / "special_values.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            del rec["data_sha256"]
            rec["checksum"] = _record_checksum(rec)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert cache.load("cache-test", 3, 224, 3, 1e-20, DIGEST) is None
        assert cache.load("cache-test", 3, 224, 3, 1e-20, None) is None

    def test_data_digest_follows_the_data(self):
        data = toy_lfunction(coefficients=(1, 3, -2))
        same = toy_lfunction(coefficients=(1, 3, -2), label="other")
        assert data_digest(data) == data_digest(same)
        for other in (toy_lfunction(coefficients=(1, 3, -2, 0)),
                      toy_lfunction(coefficients=(1, 3, -1)),
                      toy_lfunction(coefficients=(1, 3, -2), conductor=13),
                      toy_lfunction(coefficients=(1, 3, -2), root_number=-1),
                      toy_lfunction(coefficients=(1, mp.mpf("3.5"), -2))):
            assert data_digest(other) != data_digest(data)

    def test_existing_keys(self, tmp_path):
        cache = SpecialValuesCache(str(tmp_path))
        cache.store("cache-test", 3, make_values(224), DIGEST)
        keys = [key for key, _ in cache.records()]
        assert ("cache-test", 3, 224, 1e-20, DIGEST) in keys


class TestReports:
    def test_canonical_text_deterministic(self):
        rep = {"b": 1, "a": {"z": [1, 2], "y": "s"}}
        t1 = canonical_report_text(rep)
        t2 = canonical_report_text({"a": {"y": "s", "z": [1, 2]}, "b": 1})
        assert t1 == t2
        assert t1.endswith("\n")
        assert json.loads(t1) == rep

    def test_write_and_hash(self, tmp_path):
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        write_report(str(p1), {"x": 1, "y": [2, 3]})
        write_report(str(p2), {"y": [2, 3], "x": 1})
        assert sha256_file(str(p1)) == sha256_file(str(p2))
