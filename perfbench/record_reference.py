"""Record the reference Lambda(s) values and bounds the benchmark checks
against.

    python3 perfbench/record_reference.py

Runs every analyze op of the benchmark once from an empty cache and writes
perfbench/reference.json.  The committed file was recorded from the commit
that introduced the benchmark; re-record only when a change is meant to
alter the values, and say so.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import REFERENCE, REFERENCE_SPECS, ROOT, _cli_main  # noqa: E402


def main():
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT))
    out = {}
    try:
        for i, spec in enumerate(REFERENCE_SPECS):
            report_path = work / "report.json"
            argv = spec.argv(work / ("cache-%d" % i), report_path)
            rc, err = _cli_main(argv)
            if rc != 0:
                sys.exit("%s failed with status %s: %s" % (spec.key, rc, err))
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            out[spec.key] = {
                "argv": [str(a).replace(str(ROOT) + "/", "")
                         for a in argv[:argv.index("--cache-dir")]],
                "special_values": report["special_values"],
            }
            print(spec.key, "recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
