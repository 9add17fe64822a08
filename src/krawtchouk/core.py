"""Scalars, multi-index enumeration, and row-sparse matrices.

Two scalar flavors run through the whole package: exact values are
`fractions.Fraction`, approximate values are 64-bit floats.  A matrix
holds one flavor only, and the only permitted conversion is exact to
float (`Matrix.to_float`); there is no route back.

Row storage.  A matrix keeps each row as the ascending list of its
stored columns and the list of their values, so ladder operators,
diagonals and their products cost their nonzeros, not rows*cols.  Sums,
scalings, transposes and comparisons walk the stored cells only; dense
rows, columns and entries are built on demand.

Exact kernel.  Products and inverses of exact matrices never add
Fractions.  Each operand is scaled once by the lcm L of its
denominators, so L*A is an integer matrix.  A product then runs row by
row (Gustavson, ACM TOMS 4 (1978)): row i of the result sums a * (row k
of B) over the stored cells a = A[i, k], over Python ints, and each
nonzero output cell is normalized once, as Fraction(acc, La*Lb).  An
inverse is the fraction-free Gauss-Jordan elimination of Bareiss (Math.
Comp. 22 (1968)) on dense integer rows, ending in L*adj/det.  A product
with a diagonal matrix is thereby a row or column scaling.  The float
branch of a product visits k in the same order as a plain triple loop,
so float results are bit-identical to it, signed zeros included.  No
verification path calls `inverse`: the one matrix the checks invert,
the value table, has a closed-form inverse (`FockRep.value_table_inverse`).
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

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


_ZERO = Fraction(0)  # the implicit cell of every exact matrix


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


def _pack(where, values, zero) -> tuple[list, list]:
    """Drop the cells that equal the implicit value `zero`.

    A float zero is dropped only when its sign matches, so -0.0 cells of a
    matrix whose implicit cells are 0.0 stay stored, and the other way round.
    """
    if isinstance(zero, float):
        sign = math.copysign(1.0, zero)
        keep = [k for k, v in enumerate(values) if v or math.copysign(1.0, v) != sign]
    else:
        keep = [k for k, v in enumerate(values) if v]
    if len(keep) == len(values):
        return where, values
    return [where[k] for k in keep], [values[k] for k in keep]


def _nonzero(where, values) -> tuple[list, list]:
    """The stored cells of a row that are not zero of either sign."""
    if all(values):
        return where, values
    return [j for j, v in zip(where, values) if v], [v for v in values if v]


def _denominator_lcm(rows) -> int:
    return math.lcm(*{v.denominator for values in rows for v in values})


def _integer_row(values, L: int) -> list:
    """The ints L*v for Fraction values v whose denominators divide L."""
    if L == 1:
        return [v.numerator for v in values]
    return [v.numerator * (L // v.denominator) for v in values]


def _over(nums, L: int) -> list:
    """The Fractions x/L, one normalization per value."""
    if L == 1:
        return [Fraction(x) for x in nums]
    return [Fraction(x, L) for x in nums]


class Matrix:
    """Immutable matrix over one scalar flavor, stored row by row.

    Each row is held as the ascending list of its stored columns and the
    list of their values; every other cell holds the matrix's implicit
    zero.  Exact matrices store exactly their nonzero cells.  Float
    matrices may store zeros too, and must store those whose sign differs
    from the implicit zero (0.0, or -0.0 after a negation or a negative
    scaling), so every cell keeps the sign a dense computation would give
    it.  Stored lists are shared between matrices, never changed.  The
    flavor is inferred from the entries unless `exact` is passed
    explicitly: any float forces the approximate flavor, and mixing floats
    with Fractions is an error.  Approximate entries must be finite.
    """

    __slots__ = ("rows", "cols", "exact", "_zero", "_where", "_values", "_integer_form")

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
        zero = _ZERO if exact else 0.0
        columns = list(range(cols))
        where, values = [], []
        for start in range(0, rows * cols, cols):
            w, v = _pack(columns, [coerce(c) for c in cells[start:start + cols]], zero)
            where.append(w)
            values.append(v)
        self._init(rows, cols, exact, zero, where, values)

    def _init(self, rows, cols, exact, zero, where, values):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "_where", where)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_integer_form", None)

    @classmethod
    def _of(cls, rows: int, cols: int, where: list, values: list, exact: bool,
            zero=None) -> "Matrix":
        """Wrap per-row column and value lists that already meet the storage rules.

        Package-internal: no shape, flavor or finiteness check is made.  The
        lists are shared, never copied, so nothing may change them later.
        """
        out = object.__new__(cls)
        if zero is None:
            zero = _ZERO if exact else 0.0
        out._init(rows, cols, exact, zero, where, values)
        return out

    @classmethod
    def _from_triples(cls, rows: int, cols: int, triples, exact: bool) -> "Matrix":
        """Package-internal: cells from (row, col, value) triples, later ones winning."""
        coerce = _coerce_exact if exact else _coerce_approx
        cells = [{} for _ in range(rows)]
        for i, j, v in triples:
            cells[i][j] = coerce(v)
        zero = _ZERO if exact else 0.0
        where, values = [], []
        for row in cells:
            w = sorted(row)
            w, v = _pack(w, [row[j] for j in w], zero)
            where.append(w)
            values.append(v)
        return cls._of(rows, cols, where, values, exact)

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
        one = [Fraction(1) if exact else 1.0]
        return cls._of(n, n, [[i] for i in range(n)], [one] * n, exact)

    @classmethod
    def zeros(cls, rows: int, cols: int, exact: bool = True) -> "Matrix":
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"bad shape {rows}x{cols}")
        return cls._of(rows, cols, [[]] * rows, [[]] * rows, exact)

    @classmethod
    def diagonal(cls, entries, exact: bool | None = None) -> "Matrix":
        diag = list(entries)
        n = len(diag)
        probe = cls(1, n, diag, exact=exact)  # reuse flavor inference
        where, values = [[]] * n, [[]] * n
        for i, v in zip(probe._where[0], probe._values[0]):
            where[i], values[i] = [i], [v]
        return cls._of(n, n, where, values, probe.exact)

    # -- access ----------------------------------------------------------------
    # Dense values are built on demand; implicit cells read as the shared
    # exact zero or as the matrix's float zero.

    def _dense_row(self, i: int) -> list:
        row = [self._zero] * self.cols
        for j, v in zip(self._where[i], self._values[i]):
            row[j] = v
        return row

    def _cell(self, i: int, j: int):
        where = self._where[i]
        k = bisect_left(where, j)
        return self._values[i][k] if k < len(where) and where[k] == j else self._zero

    @property
    def entries(self) -> tuple:
        out = []
        for i in range(self.rows):
            out += self._dense_row(i)
        return tuple(out)

    def nonzeros(self):
        """The (row, col, value) of every nonzero cell, in row-major order."""
        for i, (where, values) in enumerate(zip(self._where, self._values)):
            for j, v in zip(where, values):
                if v:
                    yield i, j, v

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self._cell(i, j)

    def row(self, i: int) -> list:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
        return self._dense_row(i)

    def col(self, j: int) -> list:
        if not 0 <= j < self.cols:
            raise IndexError(f"col {j} outside {self.rows}x{self.cols}")
        return [self._cell(i, j) for i in range(self.rows)]

    def diagonal_entries(self) -> list:
        if not self.is_square:
            raise ShapeError("diagonal of a non-square matrix")
        return [self._cell(i, i) for i in range(self.rows)]

    def to_rows(self) -> list[list]:
        return [self._dense_row(i) for i in range(self.rows)]

    # -- arithmetic --------------------------------------------------------------

    def _integers(self) -> tuple[int, list]:
        """(L, rows of the ints L*v): an exact matrix over the lcm L of its
        denominators, computed on first use and kept, since operators are
        multiplied many times."""
        if self._integer_form is None:
            L = _denominator_lcm(self._values)
            rows = [_integer_row(v, L) for v in self._values]
            object.__setattr__(self, "_integer_form", (L, rows))
        return self._integer_form

    def _require_flavor(self, other: "Matrix"):
        if self.exact != other.exact:
            raise FlavorError("cannot combine exact and approximate matrices")

    def _like(self, where: list, values: list, zero) -> "Matrix":
        return Matrix._of(self.rows, self.cols, where, values, self.exact, zero)

    def _same_shape(self, other: "Matrix", what: str):
        self._require_flavor(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"shape mismatch in {what}")

    def transpose(self) -> "Matrix":
        where = [[] for _ in range(self.cols)]
        values = [[] for _ in range(self.cols)]
        for i, (w, v) in enumerate(zip(self._where, self._values)):
            for j, x in zip(w, v):
                where[j].append(i)
                values[j].append(x)
        return Matrix._of(self.cols, self.rows, where, values, self.exact, self._zero)

    def _cellwise(self, other: "Matrix", sign: int) -> "Matrix":
        """The cellwise sum (sign +1) or difference (sign -1) with other."""
        op = operator.add if sign > 0 else operator.sub
        where, values = [], []
        rows = zip(self._where, self._values, other._where, other._values)
        if not self.exact:
            za, zb = self._zero, other._zero
            zero = op(za, zb)
            for wa, va, wb, vb in rows:
                if wa == wb:
                    w, v = _pack(wa, list(map(op, va, vb)), zero)
                else:
                    a, b = dict(zip(wa, va)), dict(zip(wb, vb))
                    w = sorted(a.keys() | b.keys())
                    w, v = _pack(w, [op(a.get(j, za), b.get(j, zb)) for j in w], zero)
                where.append(w)
                values.append(v)
            return self._like(where, values, zero)
        # exact: a row stored on one side only is that side's row (negated
        # for the right side of a difference), and its lists are shared
        for wa, va, wb, vb in rows:
            if not wb:
                w, v = wa, va
            elif not wa:
                w, v = wb, (vb if sign > 0 else [-y for y in vb])
            elif wa[-1] < wb[0] or wb[-1] < wa[0]:  # one row wholly before the other
                vb = vb if sign > 0 else [-y for y in vb]
                w, v = (wa + wb, va + vb) if wa[-1] < wb[0] else (wb + wa, vb + va)
            else:
                if wa == wb:
                    w, v = wa, list(map(op, va, vb))
                else:
                    cells = dict(zip(wa, va))
                    for j, y in zip(wb, vb):
                        x = cells.get(j)
                        cells[j] = (y if sign > 0 else -y) if x is None else op(x, y)
                    w = sorted(cells)
                    v = [cells[j] for j in w]
                if not all(v):
                    w, v = _pack(w, v, _ZERO)
            where.append(w)
            values.append(v)
        return self._like(where, values, _ZERO)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "addition")
        return self._cellwise(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other, "subtraction")
        return self._cellwise(other, -1)

    def __neg__(self):
        zero = _ZERO if self.exact else -self._zero
        return self._like(self._where, [[-c for c in v] for v in self._values], zero)

    def scaled(self, s) -> "Matrix":
        if not self.exact:
            s = float(s)
            zero = s * self._zero
            where, values = [], []
            for w, v in zip(self._where, self._values):
                w, v = _pack(w, [s * c for c in v], zero)
                where.append(w)
                values.append(v)
            return self._like(where, values, zero)
        if isinstance(s, float):
            raise FlavorError("float scale on an exact matrix")
        s = _coerce_exact(s)
        if not s:
            return self._like([[]] * self.rows, [[]] * self.rows, _ZERO)
        return self._like(self._where, [[s * c for c in v] for v in self._values], _ZERO)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_flavor(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # Gustavson's row-by-row product: row i of the result sums a * (row k
        # of other) over the stored cells a = self[i, k], k ascending, so each
        # output cell adds its terms in the order of a plain triple loop.
        if self.exact:
            (La, a_values), (Lb, b_values) = self._integers(), other._integers()
            L = La * Lb
            a_where, b_where = self._where, other._where
        else:
            a_where, a_values = zip(*map(_nonzero, self._where, self._values))
            b_where, b_values = zip(*map(_nonzero, other._where, other._values))
        # Each row sums into a dense list when other is at least half full,
        # since its rows then touch nearly every column, else into a dict.
        exact = self.exact
        zero = 0 if exact else 0.0
        oc = other.cols
        dense = 2 * sum(map(len, b_where)) >= other.rows * oc
        where, values = [], []
        for wa, va in zip(a_where, a_values):
            if len(wa) == 1:  # a single term: row k of other, scaled
                k, a = wa[0], va[0]
                w, v = b_where[k], [a * b for b in b_values[k]]
            elif not wa:
                where.append([])
                values.append([])
                continue
            elif dense:
                acc = [zero] * oc
                for k, a in zip(wa, va):
                    for j, b in zip(b_where[k], b_values[k]):
                        acc[j] += a * b
                w = [j for j, x in enumerate(acc) if x]
                v = [acc[j] for j in w]
            else:
                acc = {}
                get = acc.get
                for k, a in zip(wa, va):
                    for j, b in zip(b_where[k], b_values[k]):
                        acc[j] = get(j, zero) + a * b
                w = [j for j in sorted(acc) if acc[j]]
                v = [acc[j] for j in w]
            if exact:
                v = _over(v, L)
            else:  # a product may underflow to zero
                w, v = _nonzero(w, v)
            where.append(w)
            values.append(v)
        return Matrix._of(self.rows, other.cols, where, values, exact)

    def apply(self, vector) -> list:
        """Matrix-vector product, returned as a plain list."""
        vec = list(vector)
        if len(vec) != self.cols:
            raise ShapeError(f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        zero = Fraction(0) if self.exact else 0.0
        out = []
        for where, values in zip(self._where, self._values):
            acc = zero
            for k, a in zip(where, values):
                v = vec[k]
                if v and a:
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
        work = self.to_rows()
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
        L, numerators = self._integers()
        work = []
        for i, (where, values) in enumerate(zip(self._where, numerators)):
            row = [0] * (2 * n)
            for j, v in zip(where, values):
                row[j] = v
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
        where, values = [], []
        for row in work:
            w = [j for j in range(n) if row[n + j]]
            where.append(w)
            values.append(_over([L * row[n + j] for j in w], det))
        return Matrix._of(n, n, where, values, True)

    def to_float(self) -> "Matrix":
        """Explicit, lossy conversion to the approximate flavor."""
        if not self.exact:
            return self
        values = [[float(c) for c in v] for v in self._values]
        return Matrix._of(self.rows, self.cols, self._where, values, False)

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.exact != other.exact or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.exact:
            return self._where == other._where and self._values == other._values
        return all(map(operator.eq, map(_nonzero, self._where, self._values),
                       map(_nonzero, other._where, other._values)))

    __hash__ = None

    def allclose(self, other: "Matrix", atol: float = DEFAULT_ATOL,
                 rtol: float = DEFAULT_RTOL) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(scalars_match(a, b, atol, rtol, exact=False)
                   for _, _, a, b in _cell_pairs(self, other, False))

    def __repr__(self):
        flavor = "exact" if self.exact else "approx"
        return f"Matrix({self.rows}x{self.cols}, {flavor})"


def _cell_pairs(lhs: Matrix, rhs: Matrix, literal: bool):
    """(i, j, lhs[i, j], rhs[i, j]) in row-major order, for every cell stored
    on either side; two implicit zeros always match.  Equal rows are skipped
    under a `literal` comparison, where they cannot mismatch."""
    for i in range(lhs.rows):
        if literal and lhs._where[i] == rhs._where[i] and lhs._values[i] == rhs._values[i]:
            continue
        a = dict(zip(lhs._where[i], lhs._values[i]))
        b = dict(zip(rhs._where[i], rhs._values[i]))
        for j in sorted(a.keys() | b.keys()):
            yield i, j, a.get(j, lhs._zero), b.get(j, rhs._zero)


def _render(value, exact: bool) -> str:
    return format_rational(value) if exact else repr(value)


def matrices_match(lhs: Matrix, rhs: Matrix, atol: float = DEFAULT_ATOL,
                   rtol: float = DEFAULT_RTOL) -> dict | None:
    """Compare two matrices, literal when both are exact, else within tolerance.

    Returns None on success, otherwise a witness dict with the first
    offending location, both entries, and (tolerance path) the largest
    absolute deviation.  Only cells stored on either side are visited.
    """
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        return {"location": "shape",
                "expected": f"{rhs.rows}x{rhs.cols}",
                "actual": f"{lhs.rows}x{lhs.cols}"}
    exact = lhs.exact and rhs.exact
    first = None
    max_dev = 0.0
    for i, j, a, b in _cell_pairs(lhs, rhs, exact):
        if a is b or (a == b if exact else scalars_match(a, b, atol, rtol, exact=False)):
            continue
        if first is None:
            first = {"location": [i, j],
                     "actual": _render(a, lhs.exact),
                     "expected": _render(b, rhs.exact)}
        if not exact:
            max_dev = max(max_dev, abs(float(a) - float(b)))
    if first is None:
        return None
    if not exact:
        first["max_residual"] = max_dev
    return first
