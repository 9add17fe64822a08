"""Record the canonical output digests that the benchmark checks against.

    python3 perfbench/record_digests.py

Runs `generate` and builds the levels for the unscaled `systems/*.json`
files over the sweeps in workloads.py, and writes `digests.json`.  The
record is taken once, from the commit that defines the benchmark; later
commits must reproduce it bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import generate_digests, level_digest  # noqa: E402
from workloads import GENERATE, GENERATE_TARGETS, VERIFY_EXACT  # noqa: E402

from krawtchouk import cli, kravchouk_level  # noqa: E402


def main() -> int:
    record = {"level": {}, "generate": {}}
    for name, levels in VERIFY_EXACT:
        system = cli.load_system(str(ROOT / "systems" / f"{name}.json"))
        ones = (Fraction(1),) * system.d
        for N in levels:
            record["level"][f"{name}/{N}"] = level_digest(kravchouk_level(system, N), ones)
    tmp = ROOT / ".perfbench_tmp" / "record"
    try:
        for name, levels in GENERATE:
            path = str(ROOT / "systems" / f"{name}.json")
            ones = (Fraction(1),) * cli.load_system(path).d
            for N in levels:
                for fmt in ("json", "csv"):
                    out = tmp / f"{name}-{N}-{fmt}"
                    argv = ["generate", "--system", path, "--level", str(N),
                            "--targets", GENERATE_TARGETS, "--out", str(out)]
                    if fmt == "csv":
                        argv += ["--format", "csv", "--rational-csv"]
                    with contextlib.redirect_stdout(io.StringIO()):
                        if cli.main(argv) != 0:
                            raise SystemExit(f"generate failed: {argv}")
                    record["generate"][f"{name}/{N}/{fmt}"] = generate_digests(out, ones)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    (HERE / "digests.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
