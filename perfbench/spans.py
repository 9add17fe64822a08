"""Span recorder that wraps the package's public calls from outside.

`Tracer.install()` replaces each target function or method with a wrapper
that records a span (name, start, end, parent) and, for some targets, size
counters.  A module-level function is replaced in every `krawtchouk.*`
namespace that imported it, so calls through `from .x import f` are caught
too; a method is replaced on its class.  `uninstall()` restores the
originals.  Spans stay in memory until `write()`.

Self time is a span's duration minus the time covered by its child spans
and minus the time the wrappers spent computing counters inside it.
Hot per-cell helpers (`scalars_match`, `Matrix.__getitem__`, ...) are not
wrapped: a span per cell would cost more than the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("core", "induced", "system", "fock", "analytic", "sampling", "cli", "report", "bench")

# (module, attribute or Class.method, span name)
TARGETS = (
    ("core", "Matrix.__matmul__", "core.matmul"),
    ("core", "Matrix.inverse", "core.inverse"),
    ("core", "matrices_match", "core.match"),
    ("core", "Matrix.__add__", "core.other"),
    ("core", "Matrix.__sub__", "core.other"),
    ("core", "Matrix.__neg__", "core.other"),
    ("core", "Matrix.scaled", "core.other"),
    ("core", "Matrix.transpose", "core.other"),
    ("core", "Matrix.to_float", "core.other"),
    ("core", "Matrix.apply", "core.other"),
    ("core", "Matrix.identity", "core.other"),
    ("core", "Matrix.zeros", "core.other"),
    ("core", "Matrix.diagonal", "core.other"),
    ("core", "Matrix.from_rows", "core.other"),
    ("induced", "induced_matrix", "induced.induced_matrix"),
    ("induced", "check_homomorphism", "induced.check_homomorphism"),
    ("induced", "check_transpose_lemma", "induced.check_transpose_lemma"),
    ("induced", "binomial_diag", "induced.binomial_diag"),
    ("system", "build_exact", "system.certify"),
    ("system", "build_from_orthogonal", "system.certify"),
    ("system", "kravchouk_level", "system.kravchouk_level"),
    ("system", "orthogonality_check", "system.orthogonality_check"),
    ("system", "KravchoukLevel.gram_diagonal", "system.gram_diagonal"),
    ("fock", "FockRep.raising", "fock.ladder"),
    ("fock", "FockRep.velocity", "fock.ladder"),
    ("fock", "FockRep.lowering", "fock.ladder"),
    ("fock", "FockRep.number_op", "fock.ladder"),
    ("fock", "FockRep.rho", "fock.ladder"),
    ("fock", "FockRep.observable", "fock.observable"),
    ("fock", "FockRep.observable_point_basis", "fock.observable_point_basis"),
    ("fock", "FockRep.observable_selfadjoint", "fock.observable_selfadjoint"),
    ("fock", "FockRep.value_table", "fock.value_table"),
    ("fock", "FockRep.recurrence_apply", "fock.recurrence"),
    ("fock", "FockRep.lie_closure_check", "fock.lie_closure_check"),
    ("fock", "FockRep.ccr_check", "fock.ccr_check"),
    ("analytic", "AnalyticContext.riccati_residual", "analytic.riccati"),
    ("analytic", "AnalyticContext.identity_residuals", "analytic.riccati"),
    ("analytic", "leibniz", "analytic.leibniz"),
    ("analytic", "leibniz_bruteforce", "analytic.leibniz"),
    ("sampling", "empirical_gram", "sampling.empirical_gram"),
    ("cli", "main", "cli.main"),
    ("cli", "load_system", "cli.load_system"),
    ("report", "VerificationReport.to_json", "report.to_json"),
)


def _max_den_bits(matrix) -> int:
    if not matrix.exact:
        return 0
    return max(c.denominator.bit_length() for c in matrix.entries)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.stack: list[int] = []
        self.charges: list = []        # (span index, start, end) of counter work
        self.counters: Counter = Counter()
        self.maxima: dict = defaultdict(int)
        self._restore: list = []

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open()
        try:
            yield
        finally:
            self._close(index, name)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append((None, perf_counter(), 0.0, self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        return index

    def _close(self, index: int, name: str):
        end = perf_counter()
        self.stack.pop()
        _, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    def _charge(self, started: float):
        """Exclude counter work from the self time of the enclosing span."""
        if self.stack:
            self.charges.append((self.stack[-1], started, perf_counter()))

    def _count(self, name: str, args, result):
        started = perf_counter()
        if name == "core.matmul":
            a, b = args[0], args[1]
            self.counters["core.matmul.madds"] += a.rows * a.cols * b.cols
            nz_cols = [0] * a.cols
            for i, v in enumerate(a.entries):
                if v:
                    nz_cols[i % a.cols] += 1
            nz_rows = [0] * b.rows
            for i, v in enumerate(b.entries):
                if v:
                    nz_rows[i // b.cols] += 1
            self.counters["core.matmul.nonzero"] += sum(x * y for x, y in zip(nz_cols, nz_rows))
            self._maximum("core.max_den_bits", _max_den_bits(result))
        elif name == "core.match":
            self.counters["core.match.cells"] += args[0].rows * args[0].cols
        elif name == "induced.induced_matrix":
            self._maximum("induced.induced_matrix.dim_max", result.matrix.rows)
            self._maximum("core.max_den_bits", _max_den_bits(result.matrix))
        elif name == "system.kravchouk_level":
            for M in (result.W, result.Dbar):
                self._maximum("core.max_den_bits", _max_den_bits(M))
        elif name == "sampling.empirical_gram":
            self.counters["sampling.draws"] += args[4] * args[1]
        self._charge(started)

    def _maximum(self, key: str, value: int):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _wrap(self, name: str, fn):
        counted = name in ("core.matmul", "core.match", "induced.induced_matrix",
                           "system.kravchouk_level", "sampling.empirical_gram")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, name)
            if counted:
                tracer._count(name, args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def install(self):
        package_modules = [m for key, m in list(sys.modules.items())
                           if key == "krawtchouk" or key.startswith("krawtchouk.")]
        for module, attr, name in TARGETS:
            owner_module = sys.modules[f"krawtchouk.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner_module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            original = getattr(owner_module, attr)
            new = self._wrap(name, original)
            for mod in package_modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, original))
        matrix = sys.modules["krawtchouk.core"].Matrix
        raw_init = matrix.__dict__["__init__"]
        counters = self.counters

        def counted_init(obj, rows, cols, entries, exact=None):
            counters["core.cells_built"] += rows * cols
            raw_init(obj, rows, cols, entries, exact)

        matrix.__init__ = counted_init
        self._restore.append((matrix, "__init__", raw_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self, clock=lambda t: t) -> tuple[dict, Counter]:
        """Self time and call count per span name; `clock` maps each reading first."""
        length = [clock(end) - clock(start) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += length[index]
        for index, start, end in self.charges:
            child[index] += clock(end) - clock(start)
        selfs: dict = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, _, _, _) in enumerate(self.spans):
            selfs[name] += length[index] - child[index]
            calls[name] += 1
        return selfs, calls

    def write(self, path: Path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with path.open("w") as handle:
            handle.write(json.dumps({"names": names,
                                     "columns": ["name", "start", "end", "parent"]}) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(f"[{ids[name]},{start:.7f},{end:.7f},{parent}]\n")
