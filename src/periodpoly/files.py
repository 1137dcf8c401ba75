"""File formats: coefficient files, curve lists, root-number overrides,
the special-values cache, and canonical JSON reports.

Every on-disk format is line-oriented UTF-8 text whose first significant
line is a ``format=<name>-<version>`` header, so readers can refuse files
written by a future incompatible release instead of misparsing them.
Parse errors always carry the 1-based line number of the offending line.

The cache is append-only JSONL, one record per (label, sym power, s,
precision bits, target, data digest).  Values are stored twice: as an
exact mantissa tuple (sign, mantissa, exponent, bit count), which makes
reloads bit-identical, and as a decimal string for human inspection.
Each record carries a sha256 checksum over its canonical serialization;
records that fail the checksum or do not parse are skipped, which sends
the caller down the recompute path rather than aborting.
"""

import hashlib
import json
import os

from mpmath import libmp, mp

from .errors import InputError
from .lfunc import LFunctionData, SpecialValues
from .numutil import fmt_mpf
from .sympow import CurveSpec

FORMAT_COEFFS = "periodpoly-coeffs-1"
FORMAT_CURVES = "periodpoly-curves-1"
FORMAT_EPS = "periodpoly-eps-1"
FORMAT_CACHE = "periodpoly-cache-1"
FORMAT_REPORT = "periodpoly-report-1"

# Decimal digits carried by serialized values, as a function of the
# mantissa size.  0.30103 = log10(2); the +8 headroom keeps the decimal
# form strictly finer than the binary one.
def _digits_for_bits(bits):
    return int(bits * 0.30103) + 8


def _strip(line):
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _significant_lines(text):
    """Yield (lineno, stripped) for lines that survive comment removal."""
    for i, raw in enumerate(text.splitlines(), start=1):
        s = _strip(raw)
        if s:
            yield i, s


def _check_format(lines, expected, source):
    try:
        lineno, first = next(lines)
    except StopIteration:
        raise InputError("%s: empty file (expected format=%s header)"
                         % (source, expected))
    if not first.startswith("format="):
        raise InputError("%s, line %d: first line must be format=%s"
                         % (source, lineno, expected))
    got = first[len("format="):].strip()
    if got != expected:
        raise InputError("%s, line %d: unsupported format %r (this build "
                         "reads %s)" % (source, lineno, got, expected))


def _parse_int(token, what, source, lineno):
    try:
        return int(token)
    except ValueError:
        raise InputError("%s, line %d: %s must be an integer, got %r"
                         % (source, lineno, what, token))


def _parse_eps(token, source, lineno):
    if token in ("+1", "1"):
        return 1
    if token == "-1":
        return -1
    raise InputError("%s, line %d: eps must be +1 or -1, got %r"
                     % (source, lineno, token))


# ---------------------------------------------------------------------------
# coefficient files


_COEFF_HEADER_KEYS = ("degree", "weight", "conductor", "hodge", "eps", "label")


def parse_coefficient_text(text, source="<coeffs>", bits=192):
    """Parse a coefficient file body into LFunctionData.

    Grammar: a ``format=`` header, then ``key=value`` header lines for
    degree, weight, conductor, hodge (comma-separated h_0,...,h_m), eps
    and label, then one ``n lambda_n`` line per coefficient with n
    starting at 1 and strictly consecutive.  Gaps, duplicates and
    out-of-order n are rejected with the line number.
    """
    lines = _significant_lines(text)
    _check_format(lines, FORMAT_COEFFS, source)

    header = {}
    coeffs = []
    next_n = 1
    for lineno, s in lines:
        if "=" in s and not coeffs:
            key, _, value = s.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _COEFF_HEADER_KEYS:
                raise InputError("%s, line %d: unknown header key %r"
                                 % (source, lineno, key))
            if key in header:
                raise InputError("%s, line %d: duplicate header %r"
                                 % (source, lineno, key))
            header[key] = (lineno, value)
            continue
        parts = s.split()
        if len(parts) != 2:
            raise InputError("%s, line %d: expected 'n lambda_n', got %r"
                             % (source, lineno, s))
        n = _parse_int(parts[0], "coefficient index", source, lineno)
        if n < next_n:
            raise InputError("%s, line %d: duplicate or out-of-order "
                             "coefficient index n=%d" % (source, lineno, n))
        if n > next_n:
            raise InputError("%s, line %d: gap in coefficient indices "
                             "(expected n=%d, got n=%d)"
                             % (source, lineno, next_n, n))
        try:
            with mp.workprec(max(int(bits), 64)):
                value = mp.mpf(parts[1])
        except ValueError:
            raise InputError("%s, line %d: bad coefficient value %r"
                             % (source, lineno, parts[1]))
        coeffs.append(value)
        next_n += 1

    missing = [k for k in _COEFF_HEADER_KEYS if k not in header]
    if missing:
        raise InputError("%s: missing header line(s): %s"
                         % (source, ", ".join(missing)))
    if not coeffs:
        raise InputError("%s: no coefficient lines" % source)

    lineno, hodge_text = header["hodge"]
    try:
        hodge = tuple(int(t) for t in hodge_text.split(","))
    except ValueError:
        raise InputError("%s, line %d: hodge must be comma-separated "
                         "integers, got %r" % (source, lineno, hodge_text))
    degree = _parse_int(header["degree"][1], "degree", source,
                        header["degree"][0])
    weight = _parse_int(header["weight"][1], "weight", source,
                        header["weight"][0])
    conductor = _parse_int(header["conductor"][1], "conductor", source,
                           header["conductor"][0])
    eps = _parse_eps(header["eps"][1], source, header["eps"][0])

    try:
        data = LFunctionData(weight=weight, degree=degree,
                             conductor=conductor, hodge=hodge,
                             root_number=eps, coefficients=tuple(coeffs),
                             label=header["label"][1])
    except InputError as exc:
        raise InputError("%s: %s" % (source, exc))
    return data


def parse_coefficient_file(path, bits=192):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_coefficient_text(text, source=os.path.basename(path),
                                  bits=bits)


def coefficient_file_text(data):
    """Serialize LFunctionData in the coefficient-file format."""
    digits = _digits_for_bits(192)
    out = ["format=%s" % FORMAT_COEFFS,
           "degree=%d" % data.degree,
           "weight=%d" % data.weight,
           "conductor=%d" % data.conductor,
           "hodge=%s" % ",".join(str(h) for h in data.hodge),
           "eps=%+d" % data.root_number,
           "label=%s" % data.label]
    with mp.workprec(max(4 * digits, 64)):
        for i, c in enumerate(data.coefficients):
            out.append("%d %s" % (i + 1, fmt_mpf(c, digits)))
    return "\n".join(out) + "\n"


def write_coefficient_file(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(coefficient_file_text(data))


# ---------------------------------------------------------------------------
# curve files


def parse_curve_text(text, source="<curves>"):
    """Parse a curve list: one ``a1 a2 a3 a4 a6 N label`` line per curve."""
    lines = _significant_lines(text)
    _check_format(lines, FORMAT_CURVES, source)
    curves = []
    seen = set()
    for lineno, s in lines:
        parts = s.split()
        if len(parts) != 7:
            raise InputError("%s, line %d: expected 'a1 a2 a3 a4 a6 N "
                             "label', got %r" % (source, lineno, s))
        a = [_parse_int(t, "a-invariant", source, lineno) for t in parts[:5]]
        n_val = _parse_int(parts[5], "conductor", source, lineno)
        label = parts[6]
        if label in seen:
            raise InputError("%s, line %d: duplicate curve label %r"
                             % (source, lineno, label))
        seen.add(label)
        try:
            curve = CurveSpec(a1=a[0], a2=a[1], a3=a[2], a4=a[3], a6=a[4],
                              conductor=n_val, label=label)
        except InputError as exc:
            raise InputError("%s, line %d: %s" % (source, lineno, exc))
        curves.append(curve)
    if not curves:
        raise InputError("%s: no curve lines" % source)
    return curves


def parse_curve_file(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_curve_text(text, source=os.path.basename(path))


# ---------------------------------------------------------------------------
# root-number overrides


def parse_eps_overrides_text(text, source="<eps>"):
    """Parse ``label n eps`` lines into {(label, n): eps}.

    Root numbers are inputs to the pipeline; determining one from scratch
    costs a full two-sided evaluation at s = w, so known values are
    shipped alongside the curve list and looked up by (label, sym power).
    """
    lines = _significant_lines(text)
    _check_format(lines, FORMAT_EPS, source)
    table = {}
    for lineno, s in lines:
        parts = s.split()
        if len(parts) != 3:
            raise InputError("%s, line %d: expected 'label n eps', got %r"
                             % (source, lineno, s))
        label = parts[0]
        n = _parse_int(parts[1], "sym power", source, lineno)
        eps = _parse_eps(parts[2], source, lineno)
        key = (label, n)
        if key in table:
            raise InputError("%s, line %d: duplicate override for %s sym %d"
                             % (source, lineno, label, n))
        table[key] = eps
    return table


def parse_eps_overrides(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_eps_overrides_text(text, source=os.path.basename(path))


# ---------------------------------------------------------------------------
# exact mpf serialization


def _exact_mpf(x):
    """Convert to mpf without rounding at the ambient context."""
    if type(x) is mp.mpf:
        return x
    if isinstance(x, int):
        return mp.make_mpf(libmp.from_int(x))
    if isinstance(x, float):
        return mp.make_mpf(libmp.from_float(x))
    with mp.workprec(max(mp.prec, 512)):
        return mp.mpf(x)


def mpf_to_obj(x):
    """Exact JSON-safe form of an mpf: [sign, mantissa digits, exponent,
    bit count].  The mantissa is serialized as a decimal digit string
    because it routinely exceeds 64 bits."""
    sign, man, exp, bc = _exact_mpf(x)._mpf_
    return [int(sign), str(man), int(exp), int(bc)]


def mpf_from_obj(obj):
    sign, man, exp, bc = int(obj[0]), int(obj[1]), int(obj[2]), int(obj[3])
    return mp.make_mpf((sign, man, exp, bc))


# ---------------------------------------------------------------------------
# special-values cache


def _record_checksum(record):
    body = {k: v for k, v in record.items() if k != "checksum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def data_digest(data):
    """sha256 of what the special values of ``data`` depend on: the
    conductor, the Hodge numbers, the root number and every coefficient,
    each coefficient exactly (an int in decimal, an mpf as its mantissa
    tuple)."""
    digest = hashlib.sha256()
    digest.update(("%d|%s|%d|" % (data.conductor,
                                   ",".join(map(str, data.hodge)),
                                   data.root_number)).encode("ascii"))
    digest.update(";".join(
        str(lam) if isinstance(lam, int)
        else "%d:%s:%d" % tuple(mpf_to_obj(lam)[:3])
        for lam in data.coefficients).encode("ascii"))
    return digest.hexdigest()


class SpecialValuesCache:
    """Append-only JSONL store for completed special values.

    Records are keyed by (label, sym power, s, precision bits, target,
    data digest), the digest being data_digest of the dataset the values
    were computed from; records without one never match.  Writes are
    write-once: a key already present is never rewritten, so a cache file
    only ever grows and earlier readers stay valid.  A load is a hit only
    if every s = 1..w is present for the same data, at exactly the
    requested precision and under one stored target no looser than the
    requested one; other coefficients under the same label, a different
    bit count or a tighter target miss rather than returning stale
    values, rounded survivors or wider bounds.
    """

    FILENAME = "special_values.jsonl"

    def __init__(self, directory):
        self.directory = directory
        self.path = os.path.join(directory, self.FILENAME)

    def _iter_records(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except ValueError:
                    continue  # corrupted line: skip, caller recomputes
                if not isinstance(record, dict):
                    continue
                if record.get("format") != FORMAT_CACHE:
                    continue
                if record.get("checksum") != _record_checksum(record):
                    continue  # bit rot: treat as absent
                yield record

    def _index(self):
        seen = {}
        for record in self._iter_records():
            key = (record["label"], record["sym"], record["s"],
                   record["bits"], record.get("target"),
                   record.get("data_sha256"))
            if key not in seen:  # write-once: first record wins
                seen[key] = record
            yield key, seen[key]

    def existing_keys(self):
        return {key for key, _ in self._index()}

    def store(self, label, sym, values, digest):
        """Append records for each s in ``values`` not already cached;
        ``digest`` is data_digest of the dataset they were computed from."""
        os.makedirs(self.directory, exist_ok=True)
        present = self.existing_keys()
        bits = int(values.bits)
        target = float(values.target)
        digits = _digits_for_bits(bits)
        added = 0
        with open(self.path, "a", encoding="utf-8") as fh:
            for s in sorted(values.values):
                key = (label, int(sym), int(s), bits, target, digest)
                if key in present:
                    continue
                val, err = values.values[s]
                work = max(bits + 32, _exact_mpf(val)._mpf_[3] + 8,
                           _exact_mpf(err)._mpf_[3] + 8)
                with mp.workprec(work):
                    record = {
                        "format": FORMAT_CACHE,
                        "label": label,
                        "sym": int(sym),
                        "s": int(s),
                        "bits": bits,
                        "weight": int(values.weight),
                        "target": target,
                        "data_sha256": digest,
                        "value": mpf_to_obj(val),
                        "value_dec": fmt_mpf(val, digits),
                        "error": mpf_to_obj(err),
                        "error_dec": fmt_mpf(err, digits),
                    }
                record["checksum"] = _record_checksum(record)
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
                added += 1
        return added

    def load(self, label, sym, bits, weight, target, digest):
        """Return SpecialValues covering s = 1..weight, or None on a miss.

        Of the complete sets stored for ``digest`` under a target <=
        ``target``, the loosest is returned, so an exact match reproduces
        what a cold computation at ``target`` gives."""
        bits = int(bits)
        sets = {}
        for key, record in self._index():
            stored = key[4]
            if key[0] != label or key[1] != int(sym) or key[3] != bits:
                continue
            if key[5] is None or key[5] != digest:
                continue
            if stored is None or stored > target:
                continue
            if int(record.get("weight", -1)) != int(weight):
                continue
            sets.setdefault(stored, {})[key[2]] = (
                mpf_from_obj(record["value"]), mpf_from_obj(record["error"]))
        full = [t for t, found in sets.items()
                if set(found) == set(range(1, int(weight) + 1))]
        if not full:
            return None
        best = max(full)
        return SpecialValues(weight=int(weight), values=sets[best], bits=bits,
                             target=best, label=label)


# ---------------------------------------------------------------------------
# canonical reports


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical_report_text(report):
    """Serialize a report dict deterministically.

    Sorted keys, fixed separators, no timestamps anywhere in the schema:
    identical inputs and configuration therefore yield byte-identical
    output, which is itself asserted by the test suite.
    """
    return json.dumps(report, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_report_text(report))
