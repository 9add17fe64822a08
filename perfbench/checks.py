"""Output checks: verdicts, Monte Carlo bands and canonical digests.

Exact outputs are compared with digests recorded from the canonical
`systems/*.json` files (`digests.json`, written by `record_digests.py`).
A job runs on a column-scaled copy of a canonical system, so its outputs
are first mapped back.  With c the column scaling and s(m) = prod_j c_j^m_j
for a basis label m, scaling columns of A by c multiplies the induced
matrix column m by s(m).  Hence, for the written targets:

    Phi row m        times s(m)        Dbar_m            times s(m)^2
    L_i, rho_ij      times c_i^2       X_j[k, n]         times s(n) / s(k)
    B, W, R_i, V_i, number             unchanged

Each scaled entry is multiplied back by the inverse factor, exactly, before
hashing, so a digest match means the output is bit-identical to the
canonical one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import CHECK_ORDER, SAMPLE_SIGMAS, Job, fmt_rational


@dataclass
class Outcome:
    ok: bool            # the job counts as passed
    correct: bool       # its output passed the output check
    note: str = ""


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _s(label, scales) -> Fraction:
    out = Fraction(1)
    for c, e in zip(scales, label[1:]):
        out *= c ** e
    return out


def _factor(target: str, scales):
    """Multiplier that undoes the scaling of entry (row label, col label)."""
    if target == "phi":
        return lambda r, c: 1 / _s(r, scales)
    if target == "Dbar":
        return lambda r, c: 1 / (_s(r, scales) * _s(c, scales))
    if target.startswith("L") or target.startswith("rho"):
        i = int(target[3] if target.startswith("rho") else target[1:])
        return lambda r, c: 1 / scales[i - 1] ** 2
    if target.startswith("X"):
        return lambda r, c: _s(r, scales) / _s(c, scales)
    return None  # B, weights, R, V, number


def _unscale_rows(rows, labels, factor):
    if factor is None:
        return rows
    return [[fmt_rational(Fraction(v) * factor(labels[i], labels[j])) for j, v in enumerate(row)]
            for i, row in enumerate(rows)]


def _parse_label(text: str) -> tuple:
    return tuple(int(e) for e in text.split("|"))


def canonical_file_digest(path: Path, scales) -> str:
    """Digest of one `generate` output file with the column scaling undone."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        labels = [_parse_label(b) for b in payload["basis"]]
        target = payload["target"]
        if "matrix" in payload:
            payload["matrix"] = _unscale_rows(payload["matrix"], labels, _factor(target, scales))
        elif "diagonal" in payload:
            factor = _factor(target, scales)
            if factor is not None:
                payload["diagonal"] = [fmt_rational(Fraction(v) * factor(labels[i], labels[i]))
                                       for i, v in enumerate(payload["diagonal"])]
        else:
            payload["operators"] = {name: _unscale_rows(M, labels, _factor(name, scales))
                                    for name, M in payload["operators"].items()}
        return _sha(payload)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    labels = [_parse_label(b) for b in header[1:]]
    target = path.stem[len("operators_"):] if path.stem.startswith("operators_") else path.stem
    cells = _unscale_rows([r[1:] for r in body], labels, _factor(target, scales))
    return _sha([header] + [[r[0]] + c for r, c in zip(body, cells)])


def generate_digests(out_dir: Path, scales) -> dict:
    return {p.name: canonical_file_digest(p, scales) for p in sorted(out_dir.iterdir())}


def raw_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def level_digest(level, scales) -> str:
    """Digest of a level's Phi, B, W and Dbar with the column scaling undone."""
    labels = [tuple(m) for m in level.basis]
    phi = [[fmt_rational(v / _s(labels[i], scales)) for v in level.Phi.row(i)]
           for i in range(level.Phi.rows)]
    diag = [level.B[i, i] for i in range(len(labels))]
    weights = [level.W[i, i] for i in range(len(labels))]
    dbar = [level.Dbar[i, i] / _s(labels[i], scales) ** 2 for i in range(len(labels))]
    return _sha({"phi": phi, "B": [fmt_rational(v) for v in diag],
                 "weights": [fmt_rational(v) for v in weights],
                 "Dbar": [fmt_rational(v) for v in dbar]})


def check_verify(job: Job, rc: int, stdout: str) -> Outcome:
    """Exact jobs must pass every check; a float `fail` counts as failed.

    A crash inside a check, a malformed report, or an exit code that
    disagrees with the verdicts is an output-check failure on either route.
    """
    try:
        report = json.loads(stdout)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
    except (ValueError, KeyError, TypeError):
        return Outcome(False, False, "malformed verify report")
    if tuple(statuses) != CHECK_ORDER:
        return Outcome(False, False, f"unexpected checks {list(statuses)}")
    crashed = [c["name"] for c in report["checks"]
               if c["witness"] and "error" in c["witness"]]
    if crashed:
        return Outcome(False, False, f"checks crashed: {crashed}")
    failed = [name for name, status in statuses.items() if status != "pass"]
    if rc != (1 if failed else 0) or report["overall"] != ("fail" if failed else "pass"):
        return Outcome(False, False, f"exit code {rc} disagrees with verdicts")
    if failed and job.exact:
        return Outcome(False, False, f"exact checks not passing: {failed}")
    if any(statuses[name] != "fail" for name in failed):
        return Outcome(False, False, f"non-pass verdicts other than fail: {failed}")
    return Outcome(not failed, True, f"fail: {failed}" if failed else "")


def check_sample(job: Job, rc: int, stdout: str) -> Outcome:
    try:
        out = json.loads(stdout)
        estimate, stderr = float(out["estimate"]), float(out["stderr"])
    except (ValueError, KeyError, TypeError):
        return Outcome(False, False, "malformed sample output")
    if rc != 0 or out.get("trials") != job.trials or not math.isfinite(estimate):
        return Outcome(False, False, f"sample exit {rc}, output {out}")
    if abs(estimate - job.expected) > SAMPLE_SIGMAS * stderr + 1e-12 * max(1.0, abs(job.expected)):
        return Outcome(False, False, f"estimate {estimate} +- {stderr} misses {job.expected}")
    return Outcome(True, True)


def check_lemma(job: Job, report) -> Outcome:
    name = "homomorphism" if job.kind == "homomorphism" else "transpose"
    checks = report.checks
    if len(checks) != 1 or checks[0].name != name or checks[0].status != "pass":
        return Outcome(False, False, f"{name} lemma did not pass: {checks}")
    return Outcome(True, True)


def check_generate(job: Job, rc: int, stdout: str, expected: dict | None,
                   raw_expected: str | None) -> tuple[Outcome, str]:
    """First pass: canonical digests against the record.  Later passes:
    the raw bytes must repeat the first pass."""
    out_dir = Path(job.out_dir)
    try:
        written = sorted(Path(p).name for p in json.loads(stdout)["written"])
    except (ValueError, KeyError, TypeError):
        return Outcome(False, False, "malformed generate output"), ""
    if rc != 0:
        return Outcome(False, False, f"generate exit {rc}"), ""
    raw = raw_digest(out_dir)
    if raw_expected is not None:
        ok = raw == raw_expected and written == sorted(p.name for p in out_dir.iterdir())
        return Outcome(ok, ok, "" if ok else "output differs from the first pass"), raw
    if expected is None:
        return Outcome(False, False, "no recorded digests"), raw
    got = generate_digests(out_dir, job.scales)
    if sorted(expected) != written or got != expected:
        bad = sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))
        return Outcome(False, False, f"digest mismatch: {bad}"), raw
    return Outcome(True, True), raw
