"""Krawtchouk-Griffiths systems and their level realizations.

A system is a square matrix A together with positive probabilities p such
that A has first column all ones and the columns of A are orthogonal for
the weights p.  The squared column norms D certify the construction:
A^T diag(p) A = diag(D) with D_0 = 1.  Everything downstream (Kravchouk
matrices, Fock operators, the analytic layer) consumes a certified
KGSystem and never re-derives these facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (DEFAULT_ATOL, DEFAULT_RTOL, FlavorError, LevelBasis, Matrix,
                   ShapeError, enumerate_level, matrices_match, multi_factorial,
                   scalars_match)
from .induced import binomial_diag, induced_matrix
from .report import CheckResult, VerificationReport

NORMALIZATIONS = ("matrix", "bernoulli")


class KConditionError(ValueError):
    """A required clause of the column-orthogonality contract failed.

    `code` is one of: first-column-not-ones, probabilities-invalid,
    k-condition-violated, d-not-normalized, not-orthogonal,
    first-column-not-positive, ddiag-invalid.
    """

    def __init__(self, code: str, message: str, location=None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.location = location


@dataclass(frozen=True)
class KGSystem:
    """Certified system: A, its inverse C, probabilities p, column norms D."""

    d: int
    A: Matrix
    C: Matrix
    p: tuple
    D: tuple
    exact: bool

    @property
    def alpha(self) -> tuple:
        """Top row of A; the coefficients of the distinguished variable."""
        return tuple(self.A.row(0))


def _diagonal_or_raise(G: Matrix):
    for i in range(G.rows):
        for j in range(G.cols):
            if i == j:
                continue
            entry = G[i, j]
            if entry != 0:
                raise KConditionError(
                    "k-condition-violated",
                    f"columns {i} and {j} are not orthogonal (inner product {entry})",
                    location=(i, j))


def build_exact(A: Matrix, p) -> KGSystem:
    """Certify an exact matrix/probability pair and assemble the system.

    Raises KConditionError naming the first violated clause.  On success
    the returned system also carries C = A^{-1} computed from the
    orthogonality relation, so C @ A = I holds bit-exactly.
    """
    if not A.exact:
        raise FlavorError("build_exact needs an exact matrix")
    if not A.is_square:
        raise ShapeError("system matrix must be square")
    d = A.rows - 1
    if d < 1:
        raise ShapeError("system needs at least two variables")

    probs = []
    for value in p:
        if isinstance(value, float):
            raise FlavorError("build_exact needs rational probabilities")
        probs.append(value if isinstance(value, Fraction) else Fraction(value))
    if len(probs) != d + 1:
        raise KConditionError("probabilities-invalid",
                              f"need {d + 1} probabilities, got {len(probs)}")
    if any(q <= 0 for q in probs):
        raise KConditionError("probabilities-invalid", "probabilities must be positive")
    if sum(probs) != 1:
        raise KConditionError("probabilities-invalid",
                              f"probabilities sum to {sum(probs)}, not 1")

    for ell in range(d + 1):
        if A[ell, 0] != 1:
            raise KConditionError("first-column-not-ones",
                                  f"entry ({ell}, 0) is {A[ell, 0]}", location=(ell, 0))

    P = Matrix.diagonal(probs)
    G = A.transpose() @ P @ A
    _diagonal_or_raise(G)
    D = G.diagonal_entries()
    if D[0] != 1:
        raise KConditionError("d-not-normalized", f"D_0 is {D[0]}, not 1")
    if any(v <= 0 for v in D):
        raise KConditionError("k-condition-violated", "a column has nonpositive squared norm")

    Dinv = Matrix.diagonal([Fraction(1) / v for v in D])
    C = Dinv @ A.transpose() @ P

    # guards for relations the construction already forces
    if C @ A != Matrix.identity(d + 1):
        raise KConditionError("k-condition-violated", "inverse reconstruction failed")
    if C.row(0) != list(probs):
        raise KConditionError("k-condition-violated", "row 0 of the inverse is not p")
    if Matrix(1, d + 1, probs) @ A != Matrix(1, d + 1, [1] + [0] * d):
        raise KConditionError("k-condition-violated", "p . A is not the first unit vector")

    return KGSystem(d, A, C, tuple(probs), tuple(D), exact=True)


def build_from_orthogonal(O: Matrix, Ddiag, atol: float = DEFAULT_ATOL,
                          rtol: float = DEFAULT_RTOL) -> KGSystem:
    """Assemble an approximate system from an orthogonal matrix.

    O must be orthogonal within tolerance with a strictly positive first
    column; Ddiag supplies the target column norms (Ddiag_0 = 1).  The
    probabilities are the squared first column and A is recovered as
    P^{-1/2} O D^{1/2} with its first column snapped to exact ones.
    """
    if O.exact:
        raise FlavorError("build_from_orthogonal needs an approximate matrix")
    if not O.is_square:
        raise ShapeError("orthogonal matrix must be square")
    d = O.rows - 1
    if d < 1:
        raise ShapeError("system needs at least two variables")

    gram = O.transpose() @ O
    witness = matrices_match(gram, Matrix.identity(d + 1, exact=False), atol, rtol)
    if witness is not None:
        raise KConditionError("not-orthogonal",
                              f"O^T O deviates from identity at {witness['location']}"
                              f" (got {witness['actual']})",
                              location=witness["location"])

    first = O.col(0)
    for ell, value in enumerate(first):
        if value <= 0.0:
            raise KConditionError("first-column-not-positive",
                                  f"entry ({ell}, 0) is {value}", location=(ell, 0))

    D = [float(v) for v in Ddiag]
    if len(D) != d + 1:
        raise KConditionError("ddiag-invalid", f"need {d + 1} norms, got {len(D)}")
    if not scalars_match(D[0], 1.0, atol, rtol, exact=False):
        raise KConditionError("ddiag-invalid", f"D_0 is {D[0]}, not 1")
    if any(not math.isfinite(v) or v <= 0.0 for v in D):
        raise KConditionError("ddiag-invalid", "norms must be positive and finite")
    D[0] = 1.0

    p = tuple(v * v for v in first)
    rows = []
    for ell in range(d + 1):
        scale = 1.0 / math.sqrt(p[ell])
        row = [1.0] + [O[ell, j] * math.sqrt(D[j]) * scale for j in range(1, d + 1)]
        rows.append(row)
    A = Matrix.from_rows(rows, exact=False)

    P = Matrix.diagonal(p, exact=False)
    G = A.transpose() @ P @ A
    witness = matrices_match(G, Matrix.diagonal(D, exact=False), atol, rtol)
    if witness is not None:
        raise KConditionError("k-condition-violated",
                              "assembled matrix misses its column norms "
                              f"at {witness['location']}", location=witness["location"])

    Dinv = Matrix.diagonal([1.0 / v for v in D], exact=False)
    C = Dinv @ A.transpose() @ P
    return KGSystem(d, A, C, p, tuple(D), exact=False)


@dataclass(frozen=True)
class KravchoukLevel:
    """Degree-N realization: Kravchouk matrix and its weight diagonals.

    Phi rows are polynomial labels, columns are lattice points, both in
    the dictionary order of `basis`.  W is the multinomial weight diagonal
    and B @ Dbar the diagonal of squared norms (matrix normalization).
    """

    system: KGSystem
    N: int
    basis: LevelBasis
    Phi: Matrix
    B: Matrix
    W: Matrix
    Dbar: Matrix
    _grams: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- positions --------------------------------------------------------------

    def polynomial_position(self, n) -> int:
        """Rank of the degree-completed label (N - |n|, n)."""
        n = tuple(n)
        if len(n) != self.system.d:
            raise ValueError(f"label needs {self.system.d} components, got {len(n)}")
        if any(e < 0 for e in n):
            raise ValueError(f"negative component in {n}")
        total = sum(n)
        if total > self.N:
            raise ValueError(f"label {n} has degree {total} above level {self.N}")
        return self.basis.rank((self.N - total,) + n)

    def point_position(self, x) -> int:
        """Rank of the lattice point (N - sum x, x); errors off the simplex."""
        x = tuple(x)
        if len(x) != self.system.d:
            raise ValueError(f"point needs {self.system.d} components, got {len(x)}")
        if any(e < 0 for e in x):
            raise ValueError(f"point {x} leaves the simplex (negative count)")
        if sum(x) > self.N:
            raise ValueError(f"point {x} leaves the simplex (total above {self.N})")
        return self.basis.rank((self.N - sum(x),) + x)

    def lattice_points(self):
        """All d-component counts on the simplex, in basis order."""
        return [tuple(m[1:]) for m in self.basis]

    # -- values -------------------------------------------------------------------

    def evaluate(self, n, x, normalization: str = "matrix"):
        """Value of the degree-|n| polynomial labeled n at lattice point x.

        Labels above the level evaluate to zero by convention.  The
        bernoulli normalization multiplies the matrix value by n!.
        """
        _check_normalization(normalization)
        n = tuple(n)
        pos_x = self.point_position(x)
        if len(n) != self.system.d:
            raise ValueError(f"label needs {self.system.d} components, got {len(n)}")
        if any(e < 0 for e in n):
            raise ValueError(f"negative component in {n}")
        if sum(n) > self.N:
            return Fraction(0) if self.system.exact else 0.0
        value = self.Phi[self.polynomial_position(n), pos_x]
        if normalization == "bernoulli":
            factor = multi_factorial(n)
            value = value * factor if self.system.exact else value * float(factor)
        return value

    def values(self, n, normalization: str = "matrix") -> list:
        """Row of values of the polynomial labeled n over all lattice points."""
        _check_normalization(normalization)
        n = tuple(n)
        if sum(n) > self.N:
            zero = Fraction(0) if self.system.exact else 0.0
            return [zero] * len(self.basis)
        row = self.Phi.row(self.polynomial_position(n))
        if normalization == "bernoulli":
            factor = multi_factorial(n)
            factor = factor if self.system.exact else float(factor)
            row = [factor * v for v in row]
        return row

    def gram_diagonal(self, normalization: str = "matrix") -> Matrix:
        """Diagonal of squared norms, indexed like the basis; built once per normalization."""
        _check_normalization(normalization)
        found = self._grams.get(normalization)
        if found is not None:
            return found
        diag = []
        for m, b, dbar in zip(self.basis, self.B.diagonal_entries(), self.Dbar.diagonal_entries()):
            value = b * dbar
            if normalization == "bernoulli":
                factor = multi_factorial(m[1:]) ** 2
                value = value * factor if self.system.exact else value * float(factor)
            diag.append(value)
        return self._grams.setdefault(normalization,
                                      Matrix.diagonal(diag, exact=self.system.exact))

    def inner_product(self, f, g):
        """Weighted inner product sum_x W_x f(x) g(x) over the lattice."""
        f, g = list(f), list(g)
        if len(f) != len(self.basis) or len(g) != len(self.basis):
            raise ShapeError("functions must be given on the full lattice")
        acc = Fraction(0) if self.system.exact else 0.0
        for i in range(len(self.basis)):
            acc += self.W[i, i] * f[i] * g[i]
        return acc


def _check_normalization(normalization: str):
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}; use one of {NORMALIZATIONS}")


def kravchouk_level(system: KGSystem, N: int) -> KravchoukLevel:
    """Realize a certified system at degree N."""
    if N < 0:
        raise ValueError(f"level must be nonnegative, got {N}")
    d = system.d
    basis = enumerate_level(d, N)
    Phi = induced_matrix(system.A, N).matrix.transpose()
    B = binomial_diag(d, N)
    if not system.exact:
        B = B.to_float()

    weights = []
    dbar = []
    for i, m in enumerate(basis):
        w = B[i, i]
        v = Fraction(1) if system.exact else 1.0
        for ell, e in enumerate(m):
            w *= system.p[ell] ** e
            v *= system.D[ell] ** e
        weights.append(w)
        dbar.append(v)
    total = sum(weights)
    if system.exact:
        if total != 1:
            raise RuntimeError("weights lost mass")  # pragma: no cover
    elif not scalars_match(total, 1.0, 1e-9, 1e-9, exact=False):
        raise RuntimeError(f"weights sum to {total}")  # pragma: no cover

    return KravchoukLevel(system, N, basis, Phi, B,
                          Matrix.diagonal(weights, exact=system.exact),
                          Matrix.diagonal(dbar, exact=system.exact))


def orthogonality_check(level: KravchoukLevel, atol: float = DEFAULT_ATOL,
                        rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Phi W Phi^T against the squared-norm diagonal B Dbar."""
    lhs = level.Phi @ level.W @ level.Phi.transpose()
    rhs = level.B @ level.Dbar
    witness = matrices_match(lhs, rhs, atol, rtol)
    return VerificationReport.single(CheckResult.from_witness("orthogonality", witness))
