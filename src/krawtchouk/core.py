"""Scalars, multi-index enumeration, and dense matrices.

Two scalar flavors run through the whole package: exact values are
`fractions.Fraction`, approximate values are 64-bit floats.  A matrix
holds one flavor only, and the only permitted conversion is exact to
float (`Matrix.to_float`); there is no route back.

Exact kernel.  Products and inverses of exact matrices never add
Fractions.  Each operand is scaled once by the lcm L of its
denominators, so L*A is an integer matrix; the work then runs over
Python ints, skips every zero factor (each row of the right operand is
listed by its nonzero columns and values), and normalizes each output
cell once, as Fraction(acc, La*Lb) for a product and L*adj/det for an
inverse (the fraction-free Gauss-Jordan elimination of Bareiss, Math.
Comp. 22 (1968)).  Results built inside the class skip re-coercion.  The
float branch of a product walks the same nonzero lists in the same order
as a plain triple loop, so float results are bit-identical to it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice

DEFAULT_ATOL = 1e-12
DEFAULT_RTOL = 1e-9

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class FlavorError(TypeError):
    """Exact and approximate scalars were mixed."""


def parse_rational(text: str) -> Fraction:
    """Parse the wire encoding of a rational: "a/b" or a bare integer "a"."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text.strip())


def format_rational(value) -> str:
    """Render a Fraction (or int) as "a/b", or "a" when the denominator is 1."""
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def scalars_match(a, b, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                  exact: bool | None = None) -> bool:
    """Flavor-aware scalar comparison.

    Exact pairs compare literally; anything involving a float compares
    within |a - b| <= atol + rtol * max(|a|, |b|).
    """
    if exact is None:
        exact = not (isinstance(a, float) or isinstance(b, float))
    if exact:
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= atol + rtol * max(abs(fa), abs(fb))


class MultiIndex(tuple):
    """Nonnegative integer exponent tuple; doubles as a lattice point."""

    __slots__ = ()

    def __new__(cls, exponents):
        exps = tuple(operator.index(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return super().__new__(cls, exps)

    @property
    def degree(self) -> int:
        return sum(self)

    def shifted(self, pos: int, delta: int = 1) -> "MultiIndex":
        """Return a copy with component `pos` moved by `delta`."""
        if not 0 <= pos < len(self):
            raise IndexError(f"component {pos} out of range")
        bumped = list(self)
        bumped[pos] += delta
        return MultiIndex(bumped)


def multinomial_coeff(m) -> int:
    """|m|! / (m_0! ... m_d!) for a multi-index m."""
    m = MultiIndex(m)
    out = math.factorial(m.degree)
    for e in m:
        out //= math.factorial(e)
    return out


def multi_factorial(n) -> int:
    """Componentwise factorial product n_1! ... n_d!."""
    out = 1
    for e in n:
        out *= math.factorial(operator.index(e))
    return out


def _compositions(total: int, slots: int):
    # leading coordinate counts down first, which yields dictionary order
    if slots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, slots - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class LevelBasis:
    """All degree-N monomial exponents in d+1 variables, dictionary order.

    Position 0 is (N, 0, ..., 0) and the last position is (0, ..., 0, N).
    The same tuples index the lattice points of the scaled simplex, so one
    rank table serves both polynomial labels and evaluation points.
    """

    d: int
    N: int
    indices: tuple[MultiIndex, ...]
    rank_table: dict = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def rank(self, m) -> int:
        m = tuple(m)
        if len(m) != self.d + 1:
            raise ValueError(
                f"dimension mismatch: index has {len(m)} components, basis needs {self.d + 1}")
        if sum(m) != self.N:
            raise ValueError(
                f"degree mismatch: index {m} has degree {sum(m)}, basis holds degree {self.N}")
        return self.rank_table[m]

    def unrank(self, position: int) -> MultiIndex:
        return self.indices[position]


@lru_cache(maxsize=None)
def enumerate_level(d: int, N: int) -> LevelBasis:
    """Basis of all multi-indices of degree N in d+1 slots."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if N < 0:
        raise ValueError(f"level must be nonnegative, got {N}")
    indices = tuple(MultiIndex(m) for m in _compositions(N, d + 1))
    expected = math.comb(N + d, d)
    if len(indices) != expected:
        raise RuntimeError("enumeration lost entries")  # pragma: no cover
    table = {m: i for i, m in enumerate(indices)}
    return LevelBasis(d, N, indices, table)


_ZERO = Fraction(0)  # shared by every zero cell of an exact matrix the class builds


def _coerce_exact(value):
    if isinstance(value, float):
        raise FlavorError("float entry in an exact matrix")
    if not isinstance(value, Fraction):
        value = Fraction(operator.index(value))
    return value if value else _ZERO


def _coerce_approx(value):
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"non-finite entry {value!r} in an approximate matrix")
    return out


# Zero cells of exact matrices are nearly always the shared _ZERO, so an
# identity test skips them cheaply.  Rows are walked as iterators, never
# sliced into short tuples: CPython keeps up to 2000 freed tuples of each
# small size, and row slices would fill those lists for good.

def _denominator_lcm(cells) -> int:
    return math.lcm(*{c.denominator for c in cells if c is not _ZERO})


def _integer_row(cells, L: int) -> list:
    """The ints L*c for Fraction cells c whose denominators divide L."""
    if L == 1:
        return [0 if c is _ZERO else c.numerator for c in cells]
    return [0 if c is _ZERO else c.numerator * (L // c.denominator) for c in cells]


def _over(nums, L: int) -> list:
    """The Fractions x/L, one normalization per cell; zero cells share one constant."""
    if L == 1:
        return [Fraction(x) if x else _ZERO for x in nums]
    return [Fraction(x, L) if x else _ZERO for x in nums]


def _rows(cells, cols: int):
    """The rows of row-major cells as iterators; consume each before the next."""
    it = iter(cells)
    return (islice(it, cols) for _ in range(len(cells) // cols))


def _nonzero(row) -> tuple[list, list]:
    """The columns and the values of the nonzero cells of a row."""
    where, values = [], []
    for j, v in enumerate(row):
        if v:
            where.append(j)
            values.append(v)
    return where, values


class Matrix:
    """Immutable dense matrix over one scalar flavor.

    Entries are stored row-major.  The flavor is inferred from the entries
    unless `exact` is passed explicitly: any float forces the approximate
    flavor, and mixing floats with Fractions is an error.  Approximate
    entries must be finite.
    """

    __slots__ = ("rows", "cols", "exact", "_cells")

    def __init__(self, rows: int, cols: int, entries, exact: bool | None = None):
        cells = list(entries)
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"bad shape {rows}x{cols}")
        if len(cells) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(cells)}")
        if exact is None:
            has_float = any(isinstance(c, float) for c in cells)
            has_frac = any(isinstance(c, Fraction) for c in cells)
            if has_float and has_frac:
                raise FlavorError("entries mix Fractions and floats")
            exact = not has_float
        coerce = _coerce_exact if exact else _coerce_approx
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_cells", tuple(coerce(c) for c in cells))

    @classmethod
    def _trusted(cls, rows: int, cols: int, cells: tuple, exact: bool) -> "Matrix":
        """Wrap a tuple of cells that already have the flavor's scalar type.

        Package-internal: no shape, flavor or finiteness check is made.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "cols", cols)
        object.__setattr__(out, "exact", exact)
        object.__setattr__(out, "_cells", cells)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rows(cls, rows, exact: bool | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ShapeError("no rows")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        flat = [c for r in rows for c in r]
        return cls(len(rows), width, flat, exact=exact)

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "Matrix":
        if n <= 0:
            raise ShapeError(f"bad shape {n}x{n}")
        one, zero = (Fraction(1), _ZERO) if exact else (1.0, 0.0)
        cells = [zero] * (n * n)
        cells[::n + 1] = [one] * n
        return cls._trusted(n, n, tuple(cells), exact)

    @classmethod
    def zeros(cls, rows: int, cols: int, exact: bool = True) -> "Matrix":
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"bad shape {rows}x{cols}")
        return cls._trusted(rows, cols, ((_ZERO if exact else 0.0),) * (rows * cols), exact)

    @classmethod
    def diagonal(cls, entries, exact: bool | None = None) -> "Matrix":
        diag = list(entries)
        n = len(diag)
        probe = cls(1, n, diag, exact=exact)  # reuse flavor inference
        cells = [_ZERO if probe.exact else 0.0] * (n * n)
        cells[::n + 1] = probe._cells
        return cls._trusted(n, n, tuple(cells), probe.exact)

    # -- access ----------------------------------------------------------------

    @property
    def entries(self) -> tuple:
        return self._cells

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self._cells[i * self.cols + j]

    def row(self, i: int) -> list:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
        return list(self._cells[i * self.cols:(i + 1) * self.cols])

    def col(self, j: int) -> list:
        if not 0 <= j < self.cols:
            raise IndexError(f"col {j} outside {self.rows}x{self.cols}")
        return list(self._cells[j::self.cols])

    def diagonal_entries(self) -> list:
        if not self.is_square:
            raise ShapeError("diagonal of a non-square matrix")
        return [self._cells[i * self.cols + i] for i in range(self.rows)]

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    # -- arithmetic --------------------------------------------------------------

    def _require_flavor(self, other: "Matrix"):
        if self.exact != other.exact:
            raise FlavorError("cannot combine exact and approximate matrices")

    def _like(self, cells: tuple) -> "Matrix":
        return Matrix._trusted(self.rows, self.cols, cells, self.exact)

    def _same_shape(self, other: "Matrix", what: str):
        self._require_flavor(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"shape mismatch in {what}")

    def transpose(self) -> "Matrix":
        cells = self._cells
        out = tuple(c for j in range(self.cols) for c in cells[j::self.cols])
        return Matrix._trusted(self.cols, self.rows, out, self.exact)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "addition")
        pairs = zip(self._cells, other._cells)
        if self.exact:
            return self._like(tuple(a if b is _ZERO else b if a is _ZERO else a + b
                                    for a, b in pairs))
        return self._like(tuple(a + b for a, b in pairs))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "subtraction")
        pairs = zip(self._cells, other._cells)
        if self.exact:
            return self._like(tuple(a if b is _ZERO else -b if a is _ZERO else a - b
                                    for a, b in pairs))
        return self._like(tuple(a - b for a, b in pairs))

    def __neg__(self):
        if self.exact:
            return self._like(tuple(_ZERO if c is _ZERO else -c for c in self._cells))
        return self._like(tuple(-c for c in self._cells))

    def scaled(self, s) -> "Matrix":
        if not self.exact:
            s = float(s)
            return self._like(tuple(s * c for c in self._cells))
        if isinstance(s, float):
            raise FlavorError("float scale on an exact matrix")
        s = _coerce_exact(s)
        if not s:
            return self._like((_ZERO,) * len(self._cells))
        return self._like(tuple(_ZERO if c is _ZERO else s * c for c in self._cells))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_flavor(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        oc = other.cols
        a_rows, b_rows = _rows(self._cells, self.cols), _rows(other._cells, oc)
        if self.exact:
            La, Lb = _denominator_lcm(self._cells), _denominator_lcm(other._cells)
            a_rows = (_integer_row(row, La) for row in a_rows)
            b_rows = (_integer_row(row, Lb) for row in b_rows)
            zero = 0
        else:
            zero = 0.0
        b_rows = [_nonzero(row) for row in b_rows]
        out = []
        for a_row in a_rows:
            acc = [zero] * oc
            for k, a in enumerate(a_row):
                if a:
                    b_where, b_values = b_rows[k]
                    for j, b in zip(b_where, b_values):
                        acc[j] += a * b
            out.extend(_over(acc, La * Lb) if self.exact else acc)
        return Matrix._trusted(self.rows, oc, tuple(out), self.exact)

    def apply(self, vector) -> list:
        """Matrix-vector product, returned as a plain list."""
        vec = list(vector)
        if len(vec) != self.cols:
            raise ShapeError(f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        zero = Fraction(0) if self.exact else 0.0
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = zero
            for k, v in enumerate(vec):
                if v:
                    a = self._cells[base + k]
                    if a:
                        acc += a * v
            out.append(acc)
        return out

    def trace(self):
        return sum(self.diagonal_entries())

    def inverse(self) -> "Matrix":
        """Inverse: fraction-free Gauss-Jordan when exact, partial pivoting on floats."""
        if not self.is_square:
            raise ShapeError("inverse of a non-square matrix")
        if self.exact:
            return self._exact_inverse()
        n = self.rows
        work = [self.row(i) for i in range(n)]
        aug = Matrix.identity(n, exact=self.exact).to_rows()
        for col in range(n):
            pivot_row = max(range(col, n), key=lambda r: abs(work[r][col]))
            if not work[pivot_row][col]:
                raise ValueError("matrix is not invertible")
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pivot = work[col][col]
            work[col] = [v / pivot for v in work[col]]
            aug[col] = [v / pivot for v in aug[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = work[r][col]
                if not factor:
                    continue
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
        return Matrix.from_rows(aug, exact=self.exact)

    def _exact_inverse(self) -> "Matrix":
        # Bareiss elimination on [L*A | I]: after step k every entry is a
        # (k+1)-minor of the row-swapped augmented matrix, so the division by
        # the previous pivot is exact.  The left block ends as det*I and the
        # right as the adjugate det*(L*A)^-1, det = +-det(L*A) after swaps.
        n = self.rows
        L = _denominator_lcm(self._cells)
        work = []
        for i, cells in enumerate(_rows(self._cells, n)):
            row = _integer_row(cells, L) + [0] * n
            row[n + i] = 1
            work.append(row)
        prev = 1
        for k in range(n):
            pivot_row = next((r for r in range(k, n) if work[r][k]), None)
            if pivot_row is None:
                raise ValueError("matrix is not invertible")
            work[k], work[pivot_row] = work[pivot_row], work[k]
            top = work[k]
            p = top[k]
            support = [(j, v) for j, v in enumerate(top) if v]
            for i in range(n):
                if i == k:
                    continue
                row = work[i]
                f = row[k]
                if f:
                    row = [p * v for v in row]
                    for j, v in support:
                        row[j] -= f * v
                    if prev != 1:
                        row = [v // prev for v in row]
                elif p != prev:
                    row = [p * v // prev for v in row]
                work[i] = row
            prev = p
        det = work[0][0]
        adj = [v for row in work for v in row[n:]]
        return Matrix._trusted(n, n, tuple(_over([L * v for v in adj], det)), True)

    def to_float(self) -> "Matrix":
        """Explicit, lossy conversion to the approximate flavor."""
        if not self.exact:
            return self
        return Matrix._trusted(self.rows, self.cols, tuple(float(c) for c in self._cells), False)

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.exact == other.exact
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self._cells == other._cells)

    __hash__ = None

    def allclose(self, other: "Matrix", atol: float = DEFAULT_ATOL,
                 rtol: float = DEFAULT_RTOL) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(scalars_match(a, b, atol, rtol, exact=False)
                   for a, b in zip(self._cells, other._cells))

    def __repr__(self):
        flavor = "exact" if self.exact else "approx"
        return f"Matrix({self.rows}x{self.cols}, {flavor})"


def _render(value, exact: bool) -> str:
    return format_rational(value) if exact else repr(value)


def matrices_match(lhs: Matrix, rhs: Matrix, atol: float = DEFAULT_ATOL,
                   rtol: float = DEFAULT_RTOL) -> dict | None:
    """Compare two matrices, literal when both are exact, else within tolerance.

    Returns None on success, otherwise a witness dict with the first
    offending location, both entries, and (tolerance path) the largest
    absolute deviation.
    """
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        return {"location": "shape",
                "expected": f"{rhs.rows}x{rhs.cols}",
                "actual": f"{lhs.rows}x{lhs.cols}"}
    exact = lhs.exact and rhs.exact
    first = None
    max_dev = 0.0
    for idx, (a, b) in enumerate(zip(lhs.entries, rhs.entries)):
        if a is b or (a == b if exact else scalars_match(a, b, atol, rtol, exact=False)):
            continue
        if first is None:
            first = {"location": list(divmod(idx, lhs.cols)),
                     "actual": _render(a, lhs.exact),
                     "expected": _render(b, rhs.exact)}
        if not exact:
            max_dev = max(max_dev, abs(float(a) - float(b)))
    if first is None:
        return None
    if not exact:
        first["max_residual"] = max_dev
    return first
