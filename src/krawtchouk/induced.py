"""Symmetric-power matrices on homogeneous polynomials.

A square matrix A acting on variables by v -> A.v induces a matrix on the
degree-N monomials: the row at multi-index m lists the coefficients of the
expansion of prod_l (row_l(A) . v)^(m_l).  Multiplicativity and the
transpose relation of that construction are exposed as named checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (DEFAULT_ATOL, DEFAULT_RTOL, LevelBasis, Matrix, ShapeError,
                   _denominator_lcm, _integer_row, _over, enumerate_level, matrices_match,
                   multinomial_coeff)
from .report import CheckResult, VerificationReport


@dataclass(frozen=True)
class InducedMatrix:
    base_dim: int
    level: int
    basis: LevelBasis
    matrix: Matrix


@lru_cache(maxsize=None)
def _level_steps(d: int, k: int) -> tuple:
    """How level k grows out of level k-1.

    Returns (up, steps): up[r][j] is the level-k rank of (monomial r of
    level k-1) * v_j, and steps[s] = (last, parent) says that monomial s of
    level k is its level-(k-1) parent times v_last, where last is the last
    variable with a positive exponent.
    """
    lower, upper = enumerate_level(d, k - 1), enumerate_level(d, k)
    up = tuple(tuple(upper.rank_table[m.shifted(j)] for j in range(d + 1)) for m in lower)
    steps = []
    for m in upper:
        last = max(ell for ell, e in enumerate(m) if e)
        steps.append((last, lower.rank_table[m.shifted(last, -1)]))
    return up, tuple(steps)


def _mul_linear(poly: dict, coeffs: list, up: tuple) -> dict:
    # one multiplication by the linear form sum_j coeffs[j] * v_j; poly maps
    # monomial ranks to coefficients, `up` moves a rank one degree higher
    terms = [(j, a) for j, a in enumerate(coeffs) if a]
    out: dict = {}
    for exp, c in poly.items():
        shift = up[exp]
        for j, a in terms:
            key = shift[j]
            prev = out.get(key)
            out[key] = c * a if prev is None else prev + c * a
    return out


def induced_matrix(A: Matrix, N: int) -> InducedMatrix:
    """Symmetric N-th power of a square matrix, rows in dictionary order.

    The row at m expands prod_l (row_l(A) . v)^(m_l), multiplying the
    factors in the order l = 0, 1, ..., d.  The polynomial of m is therefore
    that of its parent m - e_last times row_last(A): one multiplication per
    row, built degree by degree, with only the previous degree kept.  Exact
    bases are expanded over the integers L*A and divided by L^N at the end.
    """
    if not A.is_square:
        raise ShapeError("induced matrix of a non-square base")
    if N < 0:
        raise ValueError(f"level must be nonnegative, got {N}")
    d = A.rows - 1
    basis = enumerate_level(d, N)
    base = A.to_rows()
    if A.exact:
        L = _denominator_lcm(base)
        base = [_integer_row(row, L) for row in base]
        one, scale = 1, L ** N
    else:
        one = 1.0
    polys = [{0: one}]
    for k in range(1, N + 1):
        up, steps = _level_steps(d, k)
        parents = polys
        polys = (_mul_linear(parents[parent], base[last], up) for last, parent in steps)
        if k < N:
            polys = list(polys)  # the top level is consumed row by row below
    size = len(basis)
    where, values = [], []
    for poly in polys:
        cols = sorted(poly)
        if A.exact:
            cols = [col for col in cols if poly[col]]
            values.append(_over([poly[col] for col in cols], scale))
        else:
            values.append([poly[col] for col in cols])
        where.append(cols)
    return InducedMatrix(d + 1, N, basis, Matrix._of(size, size, where, values, A.exact))


def binomial_diag(d: int, N: int) -> Matrix:
    """Diagonal of multinomial coefficients over the level-N basis."""
    basis = enumerate_level(d, N)
    return Matrix.diagonal([Fraction(multinomial_coeff(m)) for m in basis])


def _inverse_binomial_diag(d: int, N: int, exact: bool) -> Matrix:
    basis = enumerate_level(d, N)
    if exact:
        return Matrix.diagonal([Fraction(1, multinomial_coeff(m)) for m in basis])
    return Matrix.diagonal([1.0 / multinomial_coeff(m) for m in basis], exact=False)


def check_homomorphism(A1: Matrix, A2: Matrix, N: int, product: Matrix | None = None,
                       atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Induced matrix of a product vs product of induced matrices.

    `product` defaults to A1 @ A2; passing a precomputed product lets a
    caller certify that the claimed product really multiplies through.
    """
    if A1.rows != A2.rows or not A1.is_square or not A2.is_square:
        raise ShapeError("homomorphism check needs square matrices of equal size")
    if product is None:
        product = A1 @ A2
    lhs = induced_matrix(product, N).matrix
    rhs = induced_matrix(A1, N).matrix @ induced_matrix(A2, N).matrix
    witness = matrices_match(lhs, rhs, atol, rtol)
    return VerificationReport.single(CheckResult.from_witness("homomorphism", witness))


def check_transpose_lemma(A: Matrix, N: int, atol: float = DEFAULT_ATOL,
                          rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Induced matrix of the transpose vs B^-1 (induced A)^T B."""
    if not A.is_square:
        raise ShapeError("transpose check needs a square matrix")
    d = A.rows - 1
    lhs = induced_matrix(A.transpose(), N).matrix
    B = binomial_diag(d, N)
    Binv = _inverse_binomial_diag(d, N, A.exact)
    if not A.exact:
        B = B.to_float()
    rhs = Binv @ induced_matrix(A, N).matrix.transpose() @ B
    witness = matrices_match(lhs, rhs, atol, rtol)
    return VerificationReport.single(CheckResult.from_witness("transpose", witness))
