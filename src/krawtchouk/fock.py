"""Finite-dimensional ladder operators and observables for a level.

All operators act on the span of the level-N polynomials in the
bernoulli normalization (values carry the n! factor), with column n
holding the image of the basis element labeled n.  Labels are the
d-component tuples n with |n| <= N, positioned by the rank of the
degree-completed index (N - |n|, n).
"""

from __future__ import annotations

from fractions import Fraction

from .core import (DEFAULT_ATOL, DEFAULT_RTOL, Matrix, MultiIndex,
                   matrices_match, multi_factorial)
from .report import CheckResult, VerificationReport
from .system import KravchoukLevel


def commutator(X: Matrix, Y: Matrix) -> Matrix:
    return X @ Y - Y @ X


class _Span:
    """Incremental row reduction used for span membership, flavor aware.

    Vectors are sparse: dicts from a flat index to a nonzero value.
    """

    def __init__(self, exact: bool, atol: float, rtol: float):
        self.exact = exact
        self.atol = atol
        self.rtol = rtol
        self.zero = Fraction(0) if exact else 0.0
        self.pivots: list[tuple[int, object, list]] = []  # (index, value, nonzero support)

    def _threshold(self, vec: dict) -> float:
        if self.exact:
            return 0.0
        scale = max((abs(v) for v in vec.values()), default=0.0)
        return self.atol + self.rtol * scale

    def residual(self, vec: dict) -> dict:
        vec = dict(vec)
        for col, pivot, support in self.pivots:
            c = vec.get(col)
            if c:
                f = c / pivot
                for idx, b in support:
                    vec[idx] = vec.get(idx, self.zero) - f * b
        return vec

    def add(self, vec: dict) -> bool:
        """Adjoin a vector; False when it was already in the span."""
        r = self.residual(vec)
        tol = self._threshold(vec)
        best, best_mag = None, tol
        support = [(idx, r[idx]) for idx in sorted(r) if r[idx]]
        for idx, value in support:
            mag = abs(value)
            if mag > best_mag:
                best, best_mag = idx, mag
        if best is None:
            return False
        self.pivots.append((best, r[best], support))
        return True

    def deviation(self, vec: dict) -> float:
        """How far the vector is from the span (0.0 means inside)."""
        r = self.residual(vec)
        tol = self._threshold(vec)
        worst = max((abs(v) for v in r.values() if v), default=0)
        return 0.0 if worst <= tol else float(worst)


def _flat(M: Matrix) -> dict:
    """The nonzero cells of a matrix as a sparse vector, keyed by row-major index."""
    return {i * M.cols + j: v for i, j, v in M.nonzeros()}


class FockRep:
    """Operator realization of one Kravchouk level.

    Matrices are built lazily and cached per key; every cache entry is
    write-once, so repeated (or concurrent) requests return equal objects.
    """

    def __init__(self, level: KravchoukLevel):
        self.level = level
        self.system = level.system
        self.N = level.N
        self.d = level.system.d
        self.exact = level.system.exact
        self.dim = len(level.basis)
        self._labels = [tuple(m[1:]) for m in level.basis]
        self._position = {n: i for i, n in enumerate(self._labels)}
        self._ops: dict = {}

    # -- plumbing -----------------------------------------------------------------

    def label(self, position: int) -> tuple:
        return self._labels[position]

    def position(self, n) -> int:
        return self._position[tuple(n)]

    def vacuum_position(self) -> int:
        return self._position[(0,) * self.d]

    def _zero(self):
        return Fraction(0) if self.exact else 0.0

    def _one(self):
        return Fraction(1) if self.exact else 1.0

    def _scalar(self, value):
        return value if self.exact else float(value)

    def _identity(self) -> Matrix:
        return Matrix.identity(self.dim, exact=self.exact)

    def _check_index(self, i: int):
        if not 1 <= i <= self.d:
            raise ValueError(f"operator index {i} outside 1..{self.d}")

    def _cached(self, key, builder) -> Matrix:
        found = self._ops.get(key)
        if found is None:
            found = builder()
            self._ops.setdefault(key, found)
        return self._ops[key]

    def _sparse(self, triples) -> Matrix:
        return Matrix._from_triples(self.dim, self.dim, triples, self.exact)

    # -- ladder operators -----------------------------------------------------------

    def raising(self, i: int) -> Matrix:
        """Label shift n -> n + e_i; kills the top degree |n| = N."""
        self._check_index(i)

        def build():
            triples = []
            for col, n in enumerate(self._labels):
                if sum(n) < self.N:
                    up = n[:i - 1] + (n[i - 1] + 1,) + n[i:]
                    triples.append((self._position[up], col, 1))
            return self._sparse(triples)

        return self._cached(("R", i), build)

    def velocity(self, j: int) -> Matrix:
        """Derivative-style shift n -> n_j (n - e_j)."""
        self._check_index(j)

        def build():
            triples = []
            for col, n in enumerate(self._labels):
                if n[j - 1] > 0:
                    down = n[:j - 1] + (n[j - 1] - 1,) + n[j:]
                    triples.append((self._position[down], col, n[j - 1]))
            return self._sparse(triples)

        return self._cached(("V", j), build)

    def number_op(self) -> Matrix:
        """Diagonal of total degrees; equals sum_k raising(k) @ velocity(k)."""

        def build():
            return self._sparse((i, i, sum(n)) for i, n in enumerate(self._labels))

        return self._cached(("number",), build)

    def lowering(self, i: int) -> Matrix:
        """Adjoint partner of raising: D_i (N - number) velocity(i)."""
        self._check_index(i)

        def build():
            scale = Matrix.diagonal(
                [self._scalar(self.system.D[i] * (self.N - sum(n)))
                 for n in self._labels], exact=self.exact)
            return scale @ self.velocity(i)

        return self._cached(("L", i), build)

    def rho(self, i: int, j: int) -> Matrix:
        """Commutator [lowering(i), raising(j)], computed as matrix products."""
        self._check_index(i)
        self._check_index(j)

        def build():
            return commutator(self.lowering(i), self.raising(j))

        return self._cached(("rho", i, j), build)

    def rho_closed_form(self, i: int, j: int) -> Matrix:
        """The same commutator written without products of lowering pairs."""
        self._check_index(i)
        self._check_index(j)
        D_i = self.system.D[i]
        if i == j:
            scaled_N = self._identity().scaled(self._scalar(self.N))
            inner = scaled_N - self.raising(i) @ self.velocity(i) - self.number_op()
            return inner.scaled(self._scalar(D_i))
        return (self.raising(j) @ self.velocity(i)).scaled(self._scalar(-D_i))

    # -- observables ------------------------------------------------------------------

    def observable(self, j: int) -> Matrix:
        """Multiplication by the j-th coordinate, in the label basis."""
        self._check_index(j)

        def build():
            A, C, p = self.system.A, self.system.C, self.system.p
            acc = self._identity().scaled(self._scalar(self.N * p[j]))
            for i in range(1, self.d + 1):
                inner = self._identity().scaled(self._scalar(C[i, j])) \
                    - self.velocity(i).scaled(self._scalar(p[j]))
                acc = acc + self.raising(i) @ inner
            shift = self._identity()
            for k in range(1, self.d + 1):
                shift = shift + self.velocity(k).scaled(self._scalar(A[j, k]))
            return acc @ shift

        return self._cached(("X", j), build)

    def value_table(self) -> Matrix:
        """Columns map label coefficients to lattice values (rows are points)."""

        def build():
            facts = [self._scalar(multi_factorial(n)) for n in self._labels]
            return self.level.Phi.transpose() @ Matrix.diagonal(facts, exact=self.exact)

        return self._cached(("table",), build)

    def value_table_inverse(self) -> Matrix:
        """Inverse of the value table T = Phi^T diag(n!), read off orthogonality.

        The level's orthogonality Phi W Phi^T = B Dbar gives, in closed form,
        T^{-1} = diag(1 / (n! (B Dbar)_n)) Phi W: one product with two
        diagonal scalings, no elimination.  Nothing here assumes the
        relation holds: if Phi, W, B or Dbar is wrong, T^{-1} T is not the
        identity and the point-basis route disagrees with `observable`.
        """

        def build():
            scales = [self._one() / (self._scalar(multi_factorial(n)) * g)
                      for n, g in zip(self._labels,
                                      self.level.gram_diagonal("matrix").diagonal_entries())]
            return Matrix.diagonal(scales, exact=self.exact) @ self.level.Phi @ self.level.W

        return self._cached(("table-inverse",), build)

    def observable_point_basis(self, j: int) -> Matrix:
        """Independent route: conjugate the diagonal of lattice coordinates.

        Multiplication by x_j is diagonal in the point basis; pulling it
        through the value table, T^{-1} diag(x_j) T with T^{-1} from
        `value_table_inverse`, must reproduce `observable` exactly.  The
        closed-form T^{-1} is only the inverse when the level's
        orthogonality holds, so a defect in Phi, W, B or Dbar shows here too.
        """
        self._check_index(j)

        def build():
            coords = Matrix.diagonal(
                [self._scalar(m[j]) for m in self.level.basis], exact=self.exact)
            return self.value_table_inverse() @ coords @ self.value_table()

        return self._cached(("Xpoint", j), build)

    def observable_selfadjoint(self, j: int) -> Matrix:
        """Manifestly symmetric form built from ladder and rho operators."""
        self._check_index(j)

        def build():
            C, p = self.system.C, self.system.p
            acc = self._identity().scaled(self._scalar(self.N)) - self.number_op()
            for i in range(1, self.d + 1):
                acc = acc + (self.raising(i) + self.lowering(i)).scaled(self._scalar(C[i, j]))
            inv_p = (Fraction(1) if self.exact else 1.0) / self._scalar(p[j])
            for i in range(1, self.d + 1):
                for k in range(1, self.d + 1):
                    weight = self._scalar(C[i, j] * C[k, j]) * inv_p
                    acc = acc - self.rho(i, k).scaled(weight)
            return acc

        return self._cached(("Xsym", j), build)

    def recurrence_apply(self, j: int, n) -> list:
        """Expansion of x_j times the polynomial labeled n.

        Returns (coefficient, label) pairs in basis order with vanished
        terms dropped; matches column n of `observable(j)`.
        """
        self._check_index(j)
        n = tuple(n)
        if len(n) != self.d or any(e < 0 for e in n):
            raise ValueError(f"bad label {n}")
        total = sum(n)
        if total > self.N:
            raise ValueError(f"label {n} lives above level {self.N}")
        A, C, p = self.system.A, self.system.C, self.system.p

        terms: dict = {}

        def add(label, coeff):
            if coeff:
                prev = terms.get(label)
                terms[label] = coeff if prev is None else prev + coeff

        add(n, self._scalar(p[j] * (self.N - total)))
        if total < self.N:
            for i in range(1, self.d + 1):
                add(n[:i - 1] + (n[i - 1] + 1,) + n[i:], self._scalar(C[i, j]))
        for k in range(1, self.d + 1):
            if not n[k - 1]:
                continue
            down = n[:k - 1] + (n[k - 1] - 1,) + n[k:]
            add(down, self._scalar(p[j] * self.N * A[j, k] * n[k - 1]))
            add(down, -self._scalar(p[j] * A[j, k] * (total - 1) * n[k - 1]))
            for i in range(1, self.d + 1):
                add(down[:i - 1] + (down[i - 1] + 1,) + down[i:],
                    self._scalar(C[i, j] * A[j, k] * n[k - 1]))

        pairs = [(coeff, MultiIndex(label)) for label, coeff in terms.items() if coeff]
        pairs.sort(key=lambda item: self._position[tuple(item[1])])
        return pairs

    def gram(self, normalization: str = "bernoulli") -> Matrix:
        return self.level.gram_diagonal(normalization)

    # -- structural checks ---------------------------------------------------------------

    def ccr_check(self, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> VerificationReport:
        """[velocity(j), raising(i)] = delta_ij below the top degree.

        At |n| = N the truncation leaves -n_j e_{n - e_j + e_i} instead;
        both behaviors are asserted entrywise.
        """
        witness = None
        for i in range(1, self.d + 1):
            for j in range(1, self.d + 1):
                actual = commutator(self.velocity(j), self.raising(i))
                triples = []
                for col, n in enumerate(self._labels):
                    if sum(n) < self.N:
                        if i == j:
                            triples.append((col, col, 1))
                    elif n[j - 1] > 0:
                        moved = list(n)
                        moved[j - 1] -= 1
                        moved[i - 1] += 1
                        triples.append((self._position[tuple(moved)], col, -n[j - 1]))
                expected = self._sparse(triples)
                found = matrices_match(actual, expected, atol, rtol)
                if found is not None:
                    found["pair"] = [i, j]
                    witness = found
                    break
            if witness:
                break
        return VerificationReport.single(CheckResult.from_witness("ccr-interior", witness))

    def lie_closure_check(self, atol: float = DEFAULT_ATOL,
                          rtol: float = DEFAULT_RTOL) -> VerificationReport:
        """Raising, lowering, and rho span a bracket-closed independent family.

        Also asserts the number-operator relations [number, raising(i)] =
        raising(i) and [velocity(j), number] = velocity(j).
        """
        if self.N < 1:
            return VerificationReport.single(
                CheckResult("lie", "skipped", detail="level 0 has no ladder action"))

        generators: list[tuple[str, Matrix]] = []
        for i in range(1, self.d + 1):
            generators.append((f"R{i}", self.raising(i)))
        for i in range(1, self.d + 1):
            generators.append((f"L{i}", self.lowering(i)))
        for i in range(1, self.d + 1):
            for j in range(1, self.d + 1):
                generators.append((f"rho{i}{j}", self.rho(i, j)))

        span = _Span(self.exact, atol, rtol)
        for name, mat in generators:
            if not span.add(_flat(mat)):
                witness = {"location": name,
                           "expected": "linearly independent generator",
                           "actual": "dependent on earlier generators"}
                return VerificationReport.single(CheckResult.from_witness("lie", witness))

        for a in range(len(generators)):
            for b in range(a + 1, len(generators)):
                bracket = commutator(generators[a][1], generators[b][1])
                deviation = span.deviation(_flat(bracket))
                if deviation:
                    witness = {"location": f"[{generators[a][0]}, {generators[b][0]}]",
                               "expected": "bracket inside the generator span",
                               "actual": f"outside by {deviation}",
                               "max_residual": deviation}
                    return VerificationReport.single(CheckResult.from_witness("lie", witness))

        number = self.number_op()
        for i in range(1, self.d + 1):
            found = matrices_match(commutator(number, self.raising(i)), self.raising(i),
                                   atol, rtol)
            if found is not None:
                found["location"] = f"[number, R{i}] != R{i}"
                return VerificationReport.single(CheckResult.from_witness("lie", found))
            found = matrices_match(commutator(self.velocity(i), number), self.velocity(i),
                                   atol, rtol)
            if found is not None:
                found["location"] = f"[V{i}, number] != V{i}"
                return VerificationReport.single(CheckResult.from_witness("lie", found))

        detail = f"{len(generators)} generators, closed"
        return VerificationReport.single(CheckResult.from_witness("lie", None, detail=detail))
