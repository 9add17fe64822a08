"""Command line front end: generate, verify, eval, sample.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 I/O failure while writing results.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .analytic import AnalyticContext, leibniz, leibniz_bruteforce
from .core import (DEFAULT_ATOL, DEFAULT_RTOL, Matrix, format_rational,
                   matrices_match, parse_rational, scalars_match)
from .fock import FockRep, commutator
from .induced import check_homomorphism, check_transpose_lemma
from .report import FAIL, PASS, SKIPPED, CheckResult, VerificationReport
from .sampling import RngSpec, empirical_gram
from .system import (NORMALIZATIONS, KConditionError, KGSystem, KravchoukLevel,
                     build_exact, build_from_orthogonal, kravchouk_level,
                     orthogonality_check)

CHECK_ORDER = ("kcondition", "homomorphism", "transpose", "orthogonality",
               "ladder", "lie", "observables", "recurrence", "riccati",
               "leibniz", "ccr-interior")

GENERATE_TARGETS = ("phi", "B", "weights", "Dbar", "operators")

RICCATI_SAMPLES = 10
RICCATI_STEP = 1e-5
RICCATI_BOUND = 1e-6
IDENTITY_BOUND = 1e-9
LEIBNIZ_SAMPLES = 10


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# -- system files ------------------------------------------------------------------


def _load_doc(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError(3, f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(2, f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError(2, f"{path} must hold a JSON object")
    return doc


def _document_cells(raw, d: int, what: str, exact: bool, square: bool) -> list:
    """The cells of field `what`: d+1 values, or a (d+1)x(d+1) array read row by row.

    Exact cells are integers or rational strings, approximate cells numbers.
    """
    if square:
        if (not isinstance(raw, list) or len(raw) != d + 1
                or any(not isinstance(r, list) or len(r) != d + 1 for r in raw)):
            raise _CliError(2, f"{what} must be a {d + 1}x{d + 1} array")
        raw = [cell for row in raw for cell in row]
    elif not isinstance(raw, list) or len(raw) != d + 1:
        raise _CliError(2, f"{what} must list {d + 1} values")
    cells = []
    for cell in raw:
        if not exact:
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise _CliError(2, f"{what} entries must be numbers")
            cells.append(float(cell))
        elif isinstance(cell, (bool, float)):
            raise _CliError(2, f"{what} entries must be rational strings or integers")
        elif isinstance(cell, int):
            cells.append(Fraction(cell))
        else:
            try:
                cells.append(parse_rational(cell))
            except (ValueError, TypeError) as exc:
                raise _CliError(2, f"bad rational {cell!r} in {what}") from exc
    return cells


def system_from_doc(doc: dict) -> KGSystem:
    """Build a system from a parsed file; KConditionError passes through."""
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise _CliError(2, "field 'd' must be a positive integer")
    has_exact = "A" in doc
    has_approx = "orthogonal" in doc
    if has_exact == has_approx:
        raise _CliError(2, "system file needs exactly one of 'A' (exact) or"
                           " 'orthogonal' (approximate)")
    if has_exact:
        if "p" not in doc:
            raise _CliError(2, "exact system file needs probabilities 'p'")
        A = Matrix(d + 1, d + 1, _document_cells(doc["A"], d, "A", exact=True, square=True))
        p = _document_cells(doc["p"], d, "p", exact=True, square=False)
        return build_exact(A, p)
    if "D" not in doc:
        raise _CliError(2, "approximate system file needs column norms 'D'")
    cells = _document_cells(doc["orthogonal"], d, "orthogonal", exact=False, square=True)
    try:
        O = Matrix(d + 1, d + 1, cells, exact=False)
    except ValueError as exc:
        raise _CliError(2, f"bad orthogonal: {exc}") from exc
    raw_D = doc["D"]
    if not isinstance(raw_D, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw_D):
        raise _CliError(2, "'D' must list numbers")
    return build_from_orthogonal(O, [float(v) for v in raw_D])


def load_system(path: str) -> KGSystem:
    return system_from_doc(_load_doc(path))


# -- rendering -----------------------------------------------------------------------


def _cell_json(value, exact: bool):
    return format_rational(value) if exact else value


def _matrix_json(M: Matrix):
    return [[_cell_json(v, M.exact) for v in M.row(i)] for i in range(M.rows)]


def _basis_labels(level: KravchoukLevel) -> list[str]:
    return ["|".join(str(e) for e in m) for m in level.basis]


def _operator_bundle(rep: FockRep) -> dict:
    ops = {}
    for i in range(1, rep.d + 1):
        ops[f"R{i}"] = rep.raising(i)
        ops[f"V{i}"] = rep.velocity(i)
        ops[f"L{i}"] = rep.lowering(i)
    ops["number"] = rep.number_op()
    for i in range(1, rep.d + 1):
        for j in range(1, rep.d + 1):
            ops[f"rho{i}{j}"] = rep.rho(i, j)
    for j in range(1, rep.d + 1):
        ops[f"X{j}"] = rep.observable(j)
    return ops


def _target_payload(target: str, level: KravchoukLevel) -> dict:
    head = {"target": target, "d": level.system.d, "level": level.N,
            "exact": level.system.exact, "basis": _basis_labels(level)}
    if target == "phi":
        head["matrix"] = _matrix_json(level.Phi)
    elif target == "B":
        head["diagonal"] = [_cell_json(v, level.B.exact) for v in level.B.diagonal_entries()]
    elif target == "weights":
        head["diagonal"] = [_cell_json(v, level.W.exact) for v in level.W.diagonal_entries()]
    elif target == "Dbar":
        head["diagonal"] = [_cell_json(v, level.Dbar.exact) for v in level.Dbar.diagonal_entries()]
    elif target == "operators":
        rep = FockRep(level)
        head["operators"] = {name: _matrix_json(M) for name, M in _operator_bundle(rep).items()}
    else:  # pragma: no cover
        raise _CliError(2, f"unknown target {target!r}")
    return head


def _csv_cell(value, exact: bool, rational: bool) -> str:
    if not exact:
        return repr(float(value))
    return format_rational(value) if rational else repr(float(value))


def _write_csv_matrix(path: Path, M: Matrix, labels: list[str], rational: bool):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index"] + labels)
        for i in range(M.rows):
            writer.writerow([labels[i]] + [_csv_cell(v, M.exact, rational) for v in M.row(i)])


# -- subcommands ------------------------------------------------------------------------


def cmd_generate(args) -> int:
    system = load_system(args.system)
    level = kravchouk_level(system, args.level)
    targets = [t.strip() for t in args.targets.split(",") if t.strip()]
    if not targets:
        raise _CliError(2, "no targets requested")
    for t in targets:
        if t not in GENERATE_TARGETS:
            raise _CliError(2, f"unknown target {t!r}; choose from {', '.join(GENERATE_TARGETS)}")

    out = Path(args.out)
    suffix = ".json" if args.format == "json" else ".csv"
    single_file = len(targets) == 1 and out.suffix in (".json", ".csv")
    if single_file and out.suffix != suffix:
        raise _CliError(2, f"output name {out} does not match format {args.format}")
    if not single_file:
        out.mkdir(parents=True, exist_ok=True)

    labels = _basis_labels(level)
    written = []
    for target in targets:
        if args.format == "json":
            path = out if single_file else out / f"{target}.json"
            path.write_text(json.dumps(_target_payload(target, level), indent=2) + "\n")
            written.append(str(path))
            continue
        # csv
        if target == "operators":
            rep = FockRep(level)
            for name, M in _operator_bundle(rep).items():
                path = out / f"operators_{name}.csv"
                _write_csv_matrix(path, M, labels, args.rational_csv)
                written.append(str(path))
            continue
        M = {"phi": level.Phi, "B": level.B, "weights": level.W, "Dbar": level.Dbar}[target]
        path = out if single_file else out / f"{target}.csv"
        _write_csv_matrix(path, M, labels, args.rational_csv)
        written.append(str(path))

    print(json.dumps({"written": written}))
    return 0


def cmd_eval(args) -> int:
    system = load_system(args.system)
    level = kravchouk_level(system, args.level)
    n = _parse_counts(args.n, system.d, "--n")
    x = _parse_counts(args.x, system.d, "--x")
    try:
        value = level.evaluate(n, x, args.normalization)
    except ValueError as exc:
        raise _CliError(2, str(exc)) from exc
    payload = {"value": format_rational(value) if system.exact else value}
    print(json.dumps(payload))
    return 0


def cmd_sample(args) -> int:
    system = load_system(args.system)
    m = _parse_counts(args.m, system.d, "--m")
    n = _parse_counts(args.n, system.d, "--n")
    if args.trials < 1:
        raise _CliError(2, f"--trials must be positive, got {args.trials}")
    try:
        estimate, stderr = empirical_gram(system, args.level, m, n, args.trials,
                                          RngSpec(args.seed))
    except ValueError as exc:
        raise _CliError(2, str(exc)) from exc
    print(json.dumps({"estimate": estimate, "stderr": stderr,
                      "trials": args.trials, "seed": args.seed}))
    return 0


def _parse_counts(text: str, d: int, what: str) -> tuple:
    parts = [p.strip() for p in str(text).split(",")]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise _CliError(2, f"{what} must be comma-separated integers, got {text!r}") from exc
    if len(values) != d:
        raise _CliError(2, f"{what} needs {d} components, got {len(values)}")
    if any(v < 0 for v in values):
        raise _CliError(2, f"{what} components must be nonnegative")
    return values


# -- verification -------------------------------------------------------------------------


class _VerifyContext:
    """Shared lazily-built artifacts for one verification run."""

    def __init__(self, system: KGSystem, N: int, seed: int, atol: float, rtol: float):
        self.system = system
        self.N = N
        self.seed = seed
        self.atol = atol
        self.rtol = rtol
        self._level = None
        self._rep = None
        self._analytic = None

    @property
    def level(self) -> KravchoukLevel:
        if self._level is None:
            self._level = kravchouk_level(self.system, self.N)
        return self._level

    @property
    def rep(self) -> FockRep:
        if self._rep is None:
            self._rep = FockRep(self.level)
        return self._rep

    @property
    def analytic(self) -> AnalyticContext:
        if self._analytic is None:
            self._analytic = AnalyticContext(self.system)
        return self._analytic


def _vector_matrix(values, exact: bool) -> Matrix:
    return Matrix(1, len(list(values)), list(values), exact=exact)


def _check_kcondition(ctx: _VerifyContext) -> CheckResult:
    system = ctx.system
    d, A, C = system.d, system.A, system.C
    exact = system.exact
    one = Fraction(1) if exact else 1.0

    for ell in range(d + 1):
        if not scalars_match(A[ell, 0], one, ctx.atol, ctx.rtol, exact=exact):
            return CheckResult("kcondition", FAIL, {
                "location": [ell, 0], "expected": "1",
                "actual": str(A[ell, 0]), "clause": "first-column-not-ones"})
    if any(float(q) <= 0 for q in system.p):
        return CheckResult("kcondition", FAIL, {"clause": "probabilities-invalid",
                                                "actual": "nonpositive probability"})
    if not scalars_match(sum(system.p), one, ctx.atol, ctx.rtol, exact=exact):
        return CheckResult("kcondition", FAIL, {"clause": "probabilities-invalid",
                                                "actual": str(sum(system.p))})

    P = Matrix.diagonal(system.p, exact=exact)
    gram = A.transpose() @ P @ A
    target = Matrix.diagonal(system.D, exact=exact)
    pairs = [
        ("A^T P A = diag(D)", gram, target),
        ("C A = I", C @ A, Matrix.identity(d + 1, exact=exact)),
        ("p A = e_0", _vector_matrix(system.p, exact) @ A,
         _vector_matrix([one] + [one * 0] * d, exact)),
        ("row 0 of C = p", _vector_matrix(C.row(0), exact),
         _vector_matrix(system.p, exact)),
    ]
    # duality p_j A_ji = D_i C_ij ties the two matrix families together
    lhs = Matrix(d, d, [system.p[j] * A[j, i]
                        for i in range(1, d + 1) for j in range(1, d + 1)], exact=exact)
    rhs = Matrix(d, d, [system.D[i] * C[i, j]
                        for i in range(1, d + 1) for j in range(1, d + 1)], exact=exact)
    pairs.append(("p_j A_ji = D_i C_ij", lhs, rhs))

    for clause, got, want in pairs:
        witness = matrices_match(got, want, ctx.atol, ctx.rtol)
        if witness is not None:
            witness["clause"] = clause
            return CheckResult("kcondition", FAIL, witness)
    if system.D[0] != 1:
        return CheckResult("kcondition", FAIL, {"clause": "d-not-normalized",
                                                "actual": str(system.D[0])})
    return CheckResult("kcondition", PASS)


def _check_homomorphism(ctx: _VerifyContext) -> CheckResult:
    report = check_homomorphism(ctx.system.A, ctx.system.C, ctx.N,
                                atol=ctx.atol, rtol=ctx.rtol)
    return report.checks[0]


def _check_transpose(ctx: _VerifyContext) -> CheckResult:
    report = check_transpose_lemma(ctx.system.A, ctx.N, atol=ctx.atol, rtol=ctx.rtol)
    return report.checks[0]


def _check_orthogonality(ctx: _VerifyContext) -> CheckResult:
    return orthogonality_check(ctx.level, ctx.atol, ctx.rtol).checks[0]


def _column_zero(M: Matrix, col: int, atol: float, exact: bool) -> bool:
    values = M.col(col)
    if exact:
        return all(v == 0 for v in values)
    return all(abs(v) <= atol for v in values)


def _check_ladder(ctx: _VerifyContext) -> CheckResult:
    rep = ctx.rep
    total = None
    for k in range(1, rep.d + 1):
        term = rep.raising(k) @ rep.velocity(k)
        total = term if total is None else total + term
    witness = matrices_match(total, rep.number_op(), ctx.atol, ctx.rtol)
    if witness is not None:
        witness["clause"] = "number operator is sum_k R_k V_k"
        return CheckResult("ladder", FAIL, witness)

    G = rep.gram("bernoulli")
    vacuum = rep.vacuum_position()
    for i in range(1, rep.d + 1):
        witness = matrices_match(G @ rep.lowering(i), rep.raising(i).transpose() @ G,
                                 ctx.atol, ctx.rtol)
        if witness is not None:
            witness["clause"] = f"G L_{i} = R_{i}^T G"
            return CheckResult("ladder", FAIL, witness)
        if not _column_zero(rep.lowering(i), vacuum, ctx.atol, rep.exact):
            return CheckResult("ladder", FAIL, {"clause": f"L_{i} kills the vacuum"})
        if not _column_zero(rep.velocity(i), vacuum, ctx.atol, rep.exact):
            return CheckResult("ladder", FAIL, {"clause": f"V_{i} kills the vacuum"})
        R = rep.raising(i)
        for pos in range(rep.dim):
            if sum(rep.label(pos)) == rep.N and not _column_zero(R, pos, ctx.atol, rep.exact):
                return CheckResult("ladder", FAIL, {
                    "clause": f"R_{i} truncates at the top degree",
                    "location": [pos]})
    return CheckResult("ladder", PASS)


def _check_lie(ctx: _VerifyContext) -> CheckResult:
    return ctx.rep.lie_closure_check(ctx.atol, ctx.rtol).checks[0]


def _check_observables(ctx: _VerifyContext) -> CheckResult:
    rep = ctx.rep
    G = rep.gram("bernoulli")
    for j in range(1, rep.d + 1):
        X = rep.observable(j)
        for route, other in (("point-basis", rep.observable_point_basis(j)),
                             ("selfadjoint-form", rep.observable_selfadjoint(j))):
            witness = matrices_match(X, other, ctx.atol, ctx.rtol)
            if witness is not None:
                witness["clause"] = f"X_{j} vs {route}"
                return CheckResult("observables", FAIL, witness)
        witness = matrices_match(G @ X, X.transpose() @ G, ctx.atol, ctx.rtol)
        if witness is not None:
            witness["clause"] = f"X_{j} selfadjoint under the gram weights"
            return CheckResult("observables", FAIL, witness)
    zero = Matrix.zeros(rep.dim, rep.dim, exact=rep.exact)
    for j in range(1, rep.d + 1):
        for k in range(j + 1, rep.d + 1):
            witness = matrices_match(commutator(rep.observable(j), rep.observable(k)),
                                     zero, ctx.atol, ctx.rtol)
            if witness is not None:
                witness["clause"] = f"[X_{j}, X_{k}] = 0"
                return CheckResult("observables", FAIL, witness)
    return CheckResult("observables", PASS)


def _check_recurrence(ctx: _VerifyContext) -> CheckResult:
    rep = ctx.rep
    for j in range(1, rep.d + 1):
        columns = rep.observable(j).transpose()
        for col in range(rep.dim):
            n = rep.label(col)
            expected = [rep._zero()] * rep.dim
            for coeff, label in rep.recurrence_apply(j, n):
                expected[rep.position(label)] = coeff
            actual = columns.row(col)
            for row in range(rep.dim):
                if not scalars_match(actual[row], expected[row], ctx.atol, ctx.rtol,
                                     exact=rep.exact):
                    return CheckResult("recurrence", FAIL, {
                        "location": [row, col], "observable": j,
                        "expected": str(expected[row]), "actual": str(actual[row])})
    return CheckResult("recurrence", PASS)


def _check_riccati(ctx: _VerifyContext) -> CheckResult:
    analytic = ctx.analytic
    rng = random.Random(ctx.seed)
    worst_flow = 0.0
    worst_identity = 0.0
    for _ in range(RICCATI_SAMPLES):
        z = [rng.uniform(-1.0, 1.0) for _ in range(analytic.d)]
        residual = analytic.riccati_residual(z, RICCATI_STEP)
        worst_flow = max(worst_flow, max(residual.entries))
        ids = analytic.identity_residuals(z, RICCATI_STEP)
        worst_identity = max(worst_identity, ids["eq_z"], ids["eq_H"], ids["dH"])
    if worst_flow > RICCATI_BOUND:
        return CheckResult("riccati", FAIL, {"max_residual": worst_flow,
                                             "expected": f"<= {RICCATI_BOUND}"})
    if worst_identity > IDENTITY_BOUND:
        return CheckResult("riccati", FAIL, {"max_residual": worst_identity,
                                             "clause": "exponential-coordinate identities",
                                             "expected": f"<= {IDENTITY_BOUND}"})
    return CheckResult("riccati", PASS,
                       detail=f"max flow residual {worst_flow:.3g},"
                              f" identity residual {worst_identity:.3g}")


def _check_leibniz(ctx: _VerifyContext) -> CheckResult:
    rng = random.Random(ctx.seed + 1)
    d = ctx.system.d
    for _ in range(LEIBNIZ_SAMPLES):
        if ctx.system.exact:
            B = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d)]
            V = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d)]
        else:
            B = [rng.uniform(-0.5, 0.5) for _ in range(d)]
            V = [rng.uniform(-0.5, 0.5) for _ in range(d)]
        closed = leibniz(ctx.level, B, V)
        summed = leibniz_bruteforce(ctx.level, B, V)
        if not scalars_match(closed, summed, ctx.atol, ctx.rtol, exact=ctx.system.exact):
            return CheckResult("leibniz", FAIL, {
                "B": [str(b) for b in B], "V": [str(v) for v in V],
                "expected": str(closed), "actual": str(summed)})
    return CheckResult("leibniz", PASS)


def _check_ccr(ctx: _VerifyContext) -> CheckResult:
    return ctx.rep.ccr_check(ctx.atol, ctx.rtol).checks[0]


_CHECKS = {
    "kcondition": _check_kcondition,
    "homomorphism": _check_homomorphism,
    "transpose": _check_transpose,
    "orthogonality": _check_orthogonality,
    "ladder": _check_ladder,
    "lie": _check_lie,
    "observables": _check_observables,
    "recurrence": _check_recurrence,
    "riccati": _check_riccati,
    "leibniz": _check_leibniz,
    "ccr-interior": _check_ccr,
}


def _selected_checks(spec: str) -> list[str]:
    if spec.strip() == "all":
        return list(CHECK_ORDER)
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise _CliError(2, "no checks requested")
    for name in names:
        if name not in _CHECKS:
            raise _CliError(2, f"unknown check {name!r}; choose from {', '.join(CHECK_ORDER)}")
    return [name for name in CHECK_ORDER if name in names]


def run_verification(system: KGSystem, N: int, names, seed: int = 0,
                     atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> VerificationReport:
    ctx = _VerifyContext(system, N, seed, atol, rtol)
    results = []
    for name in names:
        fn = _CHECKS[name]
        started = time.perf_counter()
        try:
            result = fn(ctx)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            result = CheckResult(name, FAIL,
                                 {"error": f"{type(exc).__name__}: {exc}"})
        result.elapsed_ms = (time.perf_counter() - started) * 1000.0
        results.append(result)
    return VerificationReport(results)


def cmd_verify(args) -> int:
    doc = _load_doc(args.system)
    names = _selected_checks(args.checks)
    if args.level < 0:
        raise _CliError(2, f"--level must be nonnegative, got {args.level}")
    try:
        system = system_from_doc(doc)
    except KConditionError as exc:
        checks = [CheckResult("kcondition", FAIL,
                              {"clause": exc.code, "message": str(exc),
                               "location": list(exc.location) if exc.location else None})]
        for name in names:
            if name != "kcondition":
                checks.append(CheckResult(name, SKIPPED,
                                          detail="system failed certification"))
        print(VerificationReport(checks).to_json())
        return 1
    report = run_verification(system, args.level, names, args.seed, args.atol, args.rtol)
    print(report.to_json())
    return 0 if report.passed else 1


# -- entry point --------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """An --atol/--rtol value: a finite, nonnegative float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="krawtchouk",
        description="Build, evaluate, verify, and sample Krawtchouk-Griffiths systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--system", required=True, metavar="PATH",
                        help="JSON system file (exact A/p or approximate orthogonal/D)")
    common.add_argument("--level", type=int, default=3, metavar="N",
                        help="polynomial degree (default 3)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized pieces")
    common.add_argument("--atol", type=_tolerance, default=DEFAULT_ATOL)
    common.add_argument("--rtol", type=_tolerance, default=DEFAULT_RTOL)

    gen = sub.add_parser("generate", parents=[common],
                         help="write level matrices or operator bundles")
    gen.add_argument("--targets", default="phi",
                     help=f"comma list from {', '.join(GENERATE_TARGETS)}")
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.add_argument("--out", default=".",
                     help="output directory, or a single .json/.csv file for one target")
    gen.add_argument("--rational-csv", action="store_true",
                     help="write exact entries as a/b text in CSV output")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", parents=[common], help="run named structure checks")
    ver.add_argument("--checks", default="all",
                     help=f"'all' or a comma list from {', '.join(CHECK_ORDER)}")
    ver.set_defaults(func=cmd_verify)

    ev = sub.add_parser("eval", parents=[common], help="evaluate one polynomial at one point")
    ev.add_argument("--n", required=True, help="polynomial label, d comma-separated counts")
    ev.add_argument("--x", required=True, help="lattice point, d comma-separated counts")
    ev.add_argument("--normalization", choices=NORMALIZATIONS, default="matrix")
    ev.set_defaults(func=cmd_eval)

    sam = sub.add_parser("sample", parents=[common],
                         help="Monte Carlo estimate of one Gram entry")
    sam.add_argument("--m", required=True, help="first label, d comma-separated counts")
    sam.add_argument("--n", required=True, help="second label, d comma-separated counts")
    sam.add_argument("--trials", type=int, default=100000)
    sam.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except KConditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run():
    raise SystemExit(main())
