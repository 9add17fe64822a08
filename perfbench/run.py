"""Benchmark of the krawtchouk package, measured from outside through its
public entry points.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

One single-threaded process runs the workload's fixed job list as a closed
loop with one client (a job starts when the previous one returns), pass
after pass, while the next pass still fits in `--seconds`.  CLI-shaped jobs
go through `krawtchouk.cli.main(argv)`, lemma jobs through the library
functions.  Every output is checked (see checks.py).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates plain and traced passes and reports the per-layer metrics (per
traced pass) plus `tracing_overhead`; the spans go to `.perfbench_out/`.
Every time is read on the nominal-speed clock of speed.py, which takes out
the shared machine's swings in speed; the raw wall times go to the record.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 1 when an
output check failed, 2 when the package cannot be imported from `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import CHECK_ORDER, WORKLOADS, make_jobs  # noqa: E402

SETUP_REPEATS = 9
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

SELF_METRICS = (
    "core.matmul", "core.inverse", "core.match", "core.other",
    "induced.induced_matrix", "induced.check_homomorphism", "induced.check_transpose_lemma",
    "system.certify", "system.kravchouk_level", "system.orthogonality_check",
    "fock.ladder", "fock.observable", "fock.observable_point_basis",
    "fock.observable_selfadjoint", "fock.value_table", "fock.recurrence",
    "fock.lie_closure_check", "fock.ccr_check",
    "analytic.riccati", "analytic.leibniz", "sampling.empirical_gram",
    "cli.main", "cli.load_system", "report.to_json",
)
CALL_METRICS = ("core.matmul", "core.inverse", "core.match", "induced.induced_matrix")


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import krawtchouk
        import krawtchouk.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import krawtchouk from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    where = Path(krawtchouk.__file__).resolve().parent.parent
    if where != (ROOT / "src").resolve():
        print(f"error: krawtchouk imported from {where}, not from {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    return krawtchouk


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "krawtchouk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs passes over one job list and checks every output."""

    def __init__(self, package, jobs, digests: dict):
        self.package = package
        self.jobs = jobs
        self.digests = digests
        self.raw_generate: dict = {}
        self.levels_checked: set = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # raw perf_counter() (start, end) readings, converted once the clock stops
        self.job_times: list[list[tuple]] = [[] for _ in jobs]      # plain passes
        self.traced_times: list[list[tuple]] = [[] for _ in jobs]   # traced passes
        self.pass_times: list[tuple] = []                           # plain passes
        self.traced_pass_times: list[tuple] = []

    def _execute(self, job):
        kr = self.package
        if job.kind == "homomorphism":
            return 0, kr.check_homomorphism(*job.args)
        if job.kind == "transpose":
            return 0, kr.check_transpose_lemma(*job.args)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = kr.cli.main(job.argv)
        return rc, out.getvalue()

    def run_pass(self, tracer: Tracer | None = None) -> dict:
        """One pass over the job list; returns the pass's own figures."""
        results = []
        started = time.perf_counter()
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc, out = self._execute(job)
                else:
                    with tracer.span("bench.job"):
                        rc, out = self._execute(job)
                error = None
            except Exception as exc:  # noqa: BLE001 - a crashed job is a failed job
                rc, out, error = None, None, f"{type(exc).__name__}: {exc}"
            results.append((job, (t0, time.perf_counter()), rc, out, error))
        ended = time.perf_counter()

        figures = {"wall": ended - started, "check_ms": dict.fromkeys(CHECK_ORDER, 0.0),
                   "render_bytes": 0, "failed": 0, "attempted": len(results)}
        samples = self.job_times if tracer is None else self.traced_times
        (self.pass_times if tracer is None else self.traced_pass_times).append((started, ended))
        for index, (job, times, rc, out, error) in enumerate(results):
            outcome = self._check(job, rc, out, error, figures)
            samples[index].append(times)
            self.attempted += 1
            if not outcome.ok:
                self.failed += 1
                figures["failed"] += 1
            if not outcome.correct:
                self.problems.append(f"{job.name}: {outcome.note}")
        return figures

    def _check(self, job, rc, out, error, figures):
        if error is not None:
            return checks.Outcome(False, False, error)
        if job.kind in ("homomorphism", "transpose"):
            return checks.check_lemma(job, out)
        figures["render_bytes"] += len(out.encode())
        if job.kind == "sample":
            return checks.check_sample(job, rc, out)
        if job.kind == "generate":
            out_dir = Path(job.out_dir)
            if out_dir.is_dir():
                figures["render_bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())
            key = f"{job.system}/{job.level}/{'csv' if '--format' in job.argv else 'json'}"
            outcome, raw = checks.check_generate(job, rc, out, self.digests["generate"].get(key),
                                                 self.raw_generate.get(job.name))
            self.raw_generate.setdefault(job.name, raw)
            shutil.rmtree(out_dir, ignore_errors=True)
            return outcome
        outcome = checks.check_verify(job, rc, out)
        try:
            for check in json.loads(out)["checks"]:
                figures["check_ms"][check["name"]] += check["elapsed_ms"]
        except (ValueError, KeyError, TypeError):
            pass  # already reported as malformed by check_verify
        if outcome.correct and job.exact and job.name not in self.levels_checked:
            self.levels_checked.add(job.name)
            system = self.package.cli.load_system(job.argv[2])
            level = self.package.kravchouk_level(system, job.level)
            expected = self.digests["level"].get(f"{job.system}/{job.level}")
            if checks.level_digest(level, job.scales) != expected:
                return checks.Outcome(False, False, "level matrices differ from the record")
        return outcome


def per_job_ms(clock: SpeedClock, times) -> list[float]:
    """Each job's median time over the run's passes, in nominal milliseconds."""
    return [statistics.median(clock.span(*t) * 1000.0 for t in job) for job in times]


def pass_s(clock: SpeedClock, times) -> float:
    """Median time of a pass over the job list, in nominal seconds."""
    return statistics.median(clock.span(*t) for t in times)


def setup_sample(workload: str, seed: int, expected_digest: str) -> tuple[tuple, str | None]:
    """Raw (start, end) of a fresh process that starts, imports and builds the inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    times = (started, time.perf_counter())
    if proc.returncode != 0 or proc.stdout.strip() != expected_digest:
        return times, (f"setup process: exit {proc.returncode}, digest"
                       f" {proc.stdout.strip()!r}: {proc.stderr.strip()[-300:]}")
    return times, None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs, print their digest and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    load_at_start = os.getloadavg()
    package = import_package()
    TMP_DIR.mkdir(exist_ok=True)
    tmp = TMP_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, input_digest = make_jobs(args.workload, args.seed, ROOT, tmp, package.Matrix)
        if args.setup_only:
            print(input_digest)
            return 0
        return measure(args, package, jobs, input_digest, load_at_start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the worst exit code."""
    results, code = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        results[workload] = json.loads(lines[-1]) if lines else None
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def measure(args, package, jobs, input_digest: str, load_at_start) -> int:
    problems = []
    # determinism self-check: same seed, same bytes; another seed, other bytes
    scratch = TMP_DIR / f"determinism-{os.getpid()}"
    try:
        _, again = make_jobs(args.workload, args.seed, ROOT, scratch / "a")
        _, other = make_jobs(args.workload, args.seed + 1, ROOT, scratch / "b")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if again != input_digest:
        problems.append("the same seed generated different inputs")
    if other == input_digest:
        problems.append("a different seed generated the same inputs")

    digests = json.loads((HERE / "digests.json").read_text())
    runner = Runner(package, jobs, digests)
    metrics: dict = {}
    record: dict = {}
    clock = SpeedClock()

    if not args.trace:
        # Set-up samples are taken between passes, so that their median spans
        # the run's machine states; the first process fills the bytecode caches.
        setup = []

        def sample_setup():
            times, problem = setup_sample(args.workload, args.seed, input_digest)
            setup.append(times)
            if problem:
                problems.append(problem)

        clock.start()
        try:
            sample_setup()
            setup.clear()
            plain = []
            while not plain or sum(p["wall"] for p in plain) + plain[-1]["wall"] <= args.seconds:
                plain.append(runner.run_pass())
                sample_setup()
            while len(setup) < SETUP_REPEATS:
                sample_setup()
        finally:
            clock.stop()
        per_job = per_job_ms(clock, runner.job_times)
        metrics["setup_s"] = metric(statistics.median(clock.span(*t) for t in setup), "s")
        metrics["wall_s"] = metric(pass_s(clock, runner.pass_times), "s")
        metrics["job_ms.p50"] = metric(statistics.median(per_job), "ms")
        metrics["job_ms.p90"] = metric(
            statistics.quantiles(per_job, n=10, method="inclusive")[8], "ms")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        record["setup_samples_s"] = [clock.span(*t) for t in setup]
        record["setup_samples_raw_s"] = [end - start for start, end in setup]
    else:
        # plain and traced passes alternate, so both see the same machine
        tracer = Tracer()
        plain, traced = [], []
        clock.start()
        try:
            while not plain or (sum(p["wall"] for p in plain + traced)
                                + plain[-1]["wall"] + traced[-1]["wall"] <= args.seconds):
                plain.append(runner.run_pass())
                tracer.install()
                try:
                    traced.append(runner.run_pass(tracer))
                finally:
                    tracer.uninstall()
        finally:
            clock.stop()
        metrics.update(layer_metrics(tracer, clock, runner, plain, traced))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    # End-to-end figures that are zero or absent on some workloads.  The
    # end-to-end list of BENCHMARK.json must be nonzero on every workload, so
    # these are printed on every run and reported as metrics by the traced run.
    fail_share = sum(p["failed"] for p in plain) / sum(p["attempted"] for p in plain)
    trials_per_s = trials_rate(jobs, per_job_ms(clock, runner.job_times))
    if args.trace:
        metrics["fail_share"] = metric(fail_share, "ratio")
        metrics["trials_per_s"] = metric(trials_per_s, "1/s")

    problems += runner.problems
    correct = not problems
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start), "input_sha256": input_digest,
        "passes": len(runner.pass_times),
        "pass_walls_s": [clock.span(*t) for t in runner.pass_times],
        "pass_walls_raw_s": [end - start for start, end in runner.pass_times],
        "speed_clock": clock.summary(),
        "jobs_per_pass": len(jobs),
        "job_ms_samples": sum(map(len, runner.job_times)),
        "percentile_note": "job_ms.p50/p90 are taken over the jobs_per_pass per-job"
                           " times, each the median of passes samples",
        "fail_share": fail_share, "trials_per_s": trials_per_s,
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "problems": problems[:50], "metrics": metrics,
        "job_ms_by_job": {job.name: [clock.span(*t) * 1000.0 for t in times]
                          for job, times in zip(jobs, runner.job_times)},
    })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {record['passes']}"
          f"  jobs/pass {len(jobs)}  job samples {record['job_ms_samples']}")
    print(f"git {record['git_sha']}  python {record['python']}  nproc {record['nproc']}"
          f"  load {' '.join(f'{x:.2f}' for x in load_at_start)}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_share':42s} {fail_share:>16.6g} ratio")
        print(f"  {'trials_per_s':42s} {trials_per_s:>16.6g} 1/s")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def trials_rate(jobs, per_job: list[float]) -> float:
    """Monte Carlo trials per second of the sample jobs' median times."""
    seconds = sum(ms for job, ms in zip(jobs, per_job) if job.kind == "sample") / 1000.0
    return sum(job.trials for job in jobs) / seconds if seconds else 0.0


def layer_metrics(tracer: Tracer, clock: SpeedClock, runner: Runner,
                  plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer figures, per traced pass."""
    passes = len(traced)
    selfs, calls = tracer.self_times(clock.nominal)
    out = {}
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = metric(selfs.get(name, 0.0) / passes, "s")
    for name in CALL_METRICS:
        out[f"{name}.calls"] = metric(calls.get(name, 0) / passes, "count")
    counters = tracer.counters
    madds = counters["core.matmul.madds"]
    out["core.matmul.madds"] = metric(madds / passes, "count")
    out["core.matmul.nonzero_share"] = metric(
        counters["core.matmul.nonzero"] / madds if madds else 0.0, "ratio")
    out["core.match.cells"] = metric(counters["core.match.cells"] / passes, "count")
    out["core.cells_built"] = metric(counters["core.cells_built"] / passes, "count")
    out["core.max_den_bits"] = metric(tracer.maxima["core.max_den_bits"], "bits")
    out["induced.induced_matrix.dim_max"] = metric(
        tracer.maxima["induced.induced_matrix.dim_max"], "count")
    out["sampling.draws"] = metric(counters["sampling.draws"] / passes, "count")
    out["cli.render.bytes"] = metric(traced[0]["render_bytes"], "B")
    for name in CHECK_ORDER:
        # the report's own elapsed_ms, from the fastest plain pass
        out[f"cli.check.{name}.ms"] = metric(min(p["check_ms"][name] for p in plain), "ms")
    for module in MODULES:
        total = sum(v for k, v in selfs.items() if k.split(".")[0] == module)
        out[f"{module}.self_s"] = metric(total / passes, "s")
    out["tracing_overhead"] = metric(
        pass_s(clock, runner.traced_pass_times) / pass_s(clock, runner.pass_times), "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
