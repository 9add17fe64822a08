import math
import random
from fractions import Fraction
from itertools import product

import pytest

from krawtchouk import (FlavorError, Matrix, MultiIndex, ShapeError,
                        enumerate_level, format_rational, matrices_match,
                        multi_factorial, multinomial_coeff, parse_rational,
                        scalars_match)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 1/2 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["0.5", "1/0", "a", "1/-2", "", "1//2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        value = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        assert parse_rational(format_rational(value)) == value
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_fraction_cross_multiplication_identity():
    # (a/b + c/d) * b * d == a*d + c*b, exercised over random inputs
    rng = random.Random(23)
    for _ in range(300):
        a, c = rng.randint(-99, 99), rng.randint(-99, 99)
        b, d = rng.randint(1, 99), rng.randint(1, 99)
        assert (Fraction(a, b) + Fraction(c, d)) * b * d == a * d + c * b


def test_multiindex_basics():
    m = MultiIndex((2, 0, 1))
    assert m.degree == 3
    assert m.shifted(1) == (2, 1, 1)
    assert m.shifted(0, -1) == (1, 0, 1)
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises(ValueError):
        m.shifted(2, -2)


def test_enumerate_level_examples():
    assert list(enumerate_level(2, 2)) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert list(enumerate_level(1, 3)) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert list(enumerate_level(3, 0)) == [(0, 0, 0, 0)]


def test_enumeration_is_descending_dictionary_order():
    for d in (1, 2, 3):
        for N in range(6):
            basis = enumerate_level(d, N)
            brute = sorted(
                (m for m in product(range(N + 1), repeat=d + 1) if sum(m) == N),
                reverse=True)
            assert [tuple(m) for m in basis] == brute
            assert len(basis) == math.comb(N + d, d)
            assert basis.indices[0] == (N,) + (0,) * d
            assert basis.indices[-1] == (0,) * d + (N,)


def test_rank_roundtrip_and_errors():
    basis = enumerate_level(2, 3)
    for pos, m in enumerate(basis):
        assert basis.rank(m) == pos
        assert basis.unrank(pos) == m
    with pytest.raises(ValueError, match="degree mismatch"):
        basis.rank((1, 1, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        basis.rank((3, 0))


def test_enumerate_level_validates():
    with pytest.raises(ValueError):
        enumerate_level(0, 2)
    with pytest.raises(ValueError):
        enumerate_level(2, -1)


def test_multinomial_examples():
    assert multinomial_coeff((4, 0)) == 1
    assert multinomial_coeff((2, 2)) == 6
    assert multinomial_coeff((2, 0, 0)) == 1
    assert multinomial_coeff((1, 1, 0)) == 2
    assert multi_factorial((3, 2)) == 12
    assert multi_factorial(()) == 1


def test_multinomial_theorem_mass():
    cases = {
        1: (Fraction(1, 3), Fraction(2, 3)),
        2: (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        3: (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)),
    }
    for d, p in cases.items():
        for N in range(9):
            total = Fraction(0)
            for m in enumerate_level(d, N):
                term = Fraction(multinomial_coeff(m))
                for ell, e in enumerate(m):
                    term *= p[ell] ** e
                total += term
            assert total == 1


# -- matrices ---------------------------------------------------------------------


def test_matrix_construction_and_access():
    M = Matrix(2, 3, [1, 2, 3, 4, 5, 6])
    assert M.exact
    assert M[1, 2] == 6
    assert M.row(0) == [1, 2, 3]
    assert M.col(1) == [2, 5]
    assert M.transpose().row(1) == [2, 5]
    with pytest.raises(ShapeError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(IndexError):
        M[2, 0]


def test_matrix_flavor_rules():
    exact = Matrix(1, 2, [Fraction(1, 2), 1])
    approx = Matrix(1, 2, [0.5, 1.0])
    assert exact.exact and not approx.exact
    with pytest.raises(FlavorError):
        Matrix(1, 2, [Fraction(1, 2), 0.5])
    with pytest.raises(FlavorError):
        Matrix(1, 2, [0.5, 1.0], exact=True)
    with pytest.raises(FlavorError):
        exact @ approx
    with pytest.raises(FlavorError):
        exact + approx
    with pytest.raises(FlavorError):
        exact.scaled(0.5)
    with pytest.raises(ValueError):
        Matrix(1, 1, [float("nan")])
    with pytest.raises(ValueError):
        Matrix(1, 1, [float("inf")], exact=False)


def test_matrix_product_known():
    A = Matrix.from_rows([[1, 2], [3, 4]])
    B = Matrix.from_rows([[0, 1], [1, 0]])
    assert (A @ B).to_rows() == [[2, 1], [4, 3]]
    assert A.apply([1, 1]) == [3, 7]
    with pytest.raises(ShapeError):
        A @ Matrix(3, 2, [0] * 6)


def test_matrix_exact_inverse_random():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(10):
            cells = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n * n)]
            M = Matrix(n, n, cells)
            try:
                inv = M.inverse()
            except ValueError:
                continue
            assert M @ inv == Matrix.identity(n)
            assert inv @ M == Matrix.identity(n)


def test_matrix_singular_inverse():
    with pytest.raises(ValueError, match="not invertible"):
        Matrix.from_rows([[1, 1], [1, 1]]).inverse()


def test_matrix_float_inverse():
    M = Matrix.from_rows([[2.0, 1.0], [1.0, 3.0]], exact=False)
    assert (M @ M.inverse()).allclose(Matrix.identity(2, exact=False))


def test_matrix_equality_and_conversion():
    M = Matrix.from_rows([[1, Fraction(1, 2)], [0, 1]])
    assert M == Matrix(2, 2, [1, Fraction(1, 2), 0, 1])
    assert M != M.to_float()
    F = M.to_float()
    assert not F.exact and F[0, 1] == 0.5
    assert F.to_float() is F
    assert M.diagonal_entries() == [1, 1]
    assert M.trace() == 2


def test_matrix_diagonal_builder():
    D = Matrix.diagonal([1, 2, 3])
    assert D[1, 1] == 2 and D[0, 1] == 0 and D.exact
    Df = Matrix.diagonal([1.5, 2.5], exact=False)
    assert not Df.exact and Df[1, 1] == 2.5


def test_matrices_match_witnesses():
    A = Matrix.from_rows([[1, 2], [3, 4]])
    B = Matrix.from_rows([[1, 2], [3, 5]])
    witness = matrices_match(A, B)
    assert witness == {"location": [1, 1], "actual": "4", "expected": "5"}
    assert matrices_match(A, A) is None

    Af = A.to_float()
    Bf = B.to_float()
    witness = matrices_match(Af, Bf)
    assert witness["location"] == [1, 1]
    assert witness["max_residual"] == pytest.approx(1.0)
    # tolerance comparison tolerates tiny drift
    C = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0 + 1e-13]], exact=False)
    assert matrices_match(Af, C) is None
    assert matrices_match(A, Matrix.identity(3)) == {
        "location": "shape", "expected": "3x3", "actual": "2x2"}


def test_scalars_match_modes():
    assert scalars_match(Fraction(1, 3), Fraction(1, 3))
    assert not scalars_match(Fraction(1, 3), 0.3334)
    assert scalars_match(Fraction(1, 3), 0.3334, atol=1e-3)
    assert not scalars_match(Fraction(1, 3), 0.3333333333, exact=True)
    assert scalars_match(1.0, 1.0 + 1e-13)


def test_matrix_immutable():
    M = Matrix.identity(2)
    with pytest.raises(AttributeError):
        M.rows = 3


# -- exact and float kernels against naive references ------------------------------


def _random_cells(rng, rows, cols, draw, zero):
    cells = [zero if rng.random() < 0.3 else draw() for _ in range(rows * cols)]
    if rng.random() < 0.5:  # a zero row
        i = rng.randrange(rows)
        cells[i * cols:(i + 1) * cols] = [zero] * cols
    if rng.random() < 0.5:  # a zero column
        j = rng.randrange(cols)
        cells[j::cols] = [zero] * rows
    return cells


def _big_rational(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def _naive_product(a, b, n, m, q, zero):
    out = []
    for i in range(n):
        for j in range(q):
            acc = zero
            for k in range(m):
                acc += a[i * m + k] * b[k * q + j]
            out.append(acc)
    return out


def _naive_inverse(cells, n):
    # textbook Gauss-Jordan over Fractions, first nonzero pivot
    work = [[Fraction(c) for c in cells[i * n:(i + 1) * n]]
            + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [v / work[col][col] for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return [v for row in work for v in row[n:]]


def test_exact_product_matches_naive_reference():
    rng = random.Random(101)
    for _ in range(150):
        n, m, q = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = _random_cells(rng, n, m, lambda: _big_rational(rng), Fraction(0))
        b = _random_cells(rng, m, q, lambda: _big_rational(rng), Fraction(0))
        product = Matrix(n, m, a) @ Matrix(m, q, b)
        assert (product.rows, product.cols) == (n, q)
        assert list(product.entries) == _naive_product(a, b, n, m, q, Fraction(0))
        assert all(type(c) is Fraction for c in product.entries)


def test_exact_inverse_matches_naive_reference():
    rng = random.Random(103)
    inverted = singular = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        cells = _random_cells(rng, n, n, lambda: _big_rational(rng), Fraction(0))
        if rng.random() < 0.3:  # small integers make exact cancellation likely
            cells = [Fraction(rng.randint(-2, 2)) for _ in range(n * n)]
        expected = _naive_inverse(cells, n)
        if expected is None:
            singular += 1
            with pytest.raises(ValueError, match="not invertible"):
                Matrix(n, n, cells).inverse()
            continue
        inverted += 1
        inv = Matrix(n, n, cells).inverse()
        assert list(inv.entries) == expected
        assert all(type(c) is Fraction for c in inv.entries)
    assert inverted > 50 and singular > 10


def test_float_product_is_the_naive_triple_loop():
    rng = random.Random(107)
    for _ in range(150):
        n, m, q = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)

        def draw():
            return rng.choice([-0.0, 0.0]) if rng.random() < 0.1 else \
                rng.uniform(-4.0, 4.0) * 10.0 ** rng.randint(-30, 30)

        a = _random_cells(rng, n, m, draw, 0.0)
        b = _random_cells(rng, m, q, draw, -0.0)
        actual = (Matrix(n, m, a, exact=False) @ Matrix(m, q, b, exact=False)).entries
        expected = _naive_product(a, b, n, m, q, 0.0)
        assert list(actual) == expected
        assert [math.copysign(1.0, v) for v in actual] == \
            [math.copysign(1.0, v) for v in expected]


def test_exact_results_hold_fractions_only():
    A = Matrix.from_rows([[1, 0, 2], [0, 0, 0]])
    B = Matrix.from_rows([[3, 0], [0, 0], [Fraction(1, 2), 4]])
    square = Matrix.from_rows([[2, 1], [1, 1]])
    results = [A @ B, A + A, A - A, -A, A.scaled(3), A.scaled(0), A.transpose(),
               square.inverse(), Matrix.identity(3), Matrix.zeros(2, 2),
               Matrix.diagonal([1, 0, 2])]
    for M in results:
        assert M.exact
        assert all(type(c) is Fraction for c in M.entries), M


def test_exact_singular_inverse_raises():
    for rows in ([[0, 0], [0, 0]], [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
                 [[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 3)]]):
        with pytest.raises(ValueError, match="not invertible"):
            Matrix.from_rows(rows).inverse()
