import math
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_matrix, random_rational, trinomial_system

from krawtchouk import (Matrix, ShapeError, binomial_diag, check_homomorphism,
                        check_transpose_lemma, enumerate_level, induced_matrix,
                        multinomial_coeff)


def expand_bruteforce(A: Matrix, m) -> dict:
    """Exponential-time expansion of prod_l (row_l . v)^{m_l}.

    Walks every choice of one variable per linear factor, so it shares no
    code with the incremental expansion under test.
    """
    width = A.cols
    factors = []
    for ell, reps in enumerate(m):
        factors.extend([ell] * reps)
    coeffs: dict = {}
    for choice in product(range(width), repeat=len(factors)):
        exp = [0] * width
        c = Fraction(1)
        for ell, j in zip(factors, choice):
            c *= A[ell, j]
            exp[j] += 1
        key = tuple(exp)
        coeffs[key] = coeffs.get(key, Fraction(0)) + c
    return {k: v for k, v in coeffs.items() if v}


def test_level_zero_and_one():
    rng = random.Random(3)
    for size in (2, 3, 4):
        A = random_matrix(rng, size)
        assert induced_matrix(A, 0).matrix == Matrix.identity(1)
        assert induced_matrix(A, 1).matrix == A


def test_identity_base():
    assert induced_matrix(Matrix.identity(3), 5).matrix == Matrix.identity(21)


def test_hadamard_level2_rows():
    A = Matrix.from_rows([[1, 1], [1, -1]])
    ind = induced_matrix(A, 2).matrix
    assert ind.to_rows() == [[1, 2, 1], [1, 0, -1], [1, -2, 1]]


def test_diagonal_base_transports_to_diagonal():
    diag = [Fraction(2), Fraction(3), Fraction(5)]
    A = Matrix.diagonal(diag)
    ind = induced_matrix(A, 2)
    basis = ind.basis
    for i, m in enumerate(basis):
        for j in range(len(basis)):
            expected = Fraction(1)
            if i == j:
                for ell, e in enumerate(m):
                    expected *= diag[ell] ** e
            else:
                expected = Fraction(0)
            assert ind.matrix[i, j] == expected


def test_entries_against_bruteforce_expansion():
    rng = random.Random(17)
    for size, N in ((2, 3), (3, 2), (3, 3)):
        A = random_matrix(rng, size)
        ind = induced_matrix(A, N)
        for i, m in enumerate(ind.basis):
            expected = expand_bruteforce(A, m)
            for j, n in enumerate(ind.basis):
                assert ind.matrix[i, j] == expected.get(tuple(n), Fraction(0))


def test_rows_against_evaluation():
    # row m dotted with the monomials of v must equal prod (row_l . v)^{m_l}
    rng = random.Random(29)
    for size, N in ((3, 3), (4, 3), (4, 4)):
        A = random_matrix(rng, size)
        ind = induced_matrix(A, N)
        for _ in range(3):
            v = [random_rational(rng) for _ in range(size)]
            monomials = []
            for n in ind.basis:
                term = Fraction(1)
                for j, e in enumerate(n):
                    term *= v[j] ** e
                monomials.append(term)
            images = A.apply(v)
            for i, m in enumerate(ind.basis):
                direct = Fraction(1)
                for ell, e in enumerate(m):
                    direct *= images[ell] ** e
                row = ind.matrix.row(i)
                assert sum(c * t for c, t in zip(row, monomials)) == direct


def test_induced_validates():
    with pytest.raises(ShapeError):
        induced_matrix(Matrix(2, 3, [0] * 6), 2)
    with pytest.raises(ValueError):
        induced_matrix(Matrix.identity(2), -1)


def test_binomial_diag_values():
    assert binomial_diag(1, 4).diagonal_entries() == [1, 4, 6, 4, 1]
    assert binomial_diag(2, 2).diagonal_entries() == [1, 2, 2, 1, 2, 1]
    assert binomial_diag(3, 0).diagonal_entries() == [1]
    # matches the diagonal of the induced all-ones row expansion
    ones = Matrix.from_rows([[1, 1, 1]] * 3)
    ind = induced_matrix(ones, 3)
    basis = enumerate_level(2, 3)
    for j, n in enumerate(basis):
        assert ind.matrix[0, j] == multinomial_coeff(n)


def test_homomorphism_identity_and_fixture():
    A1 = Matrix.from_rows([[1, 1], [1, -1]])
    A2 = Matrix.from_rows([[1, Fraction(1, 2)], [1, Fraction(-1, 2)]])
    assert check_homomorphism(Matrix.identity(3), Matrix.identity(3), 2).passed
    report = check_homomorphism(A1, A2, 3)
    assert report.passed
    # both routes really are computed: they coincide as matrices
    lhs = induced_matrix(A1 @ A2, 3).matrix
    rhs = induced_matrix(A1, 3).matrix @ induced_matrix(A2, 3).matrix
    assert lhs == rhs


def test_homomorphism_detects_perturbed_factor():
    A1 = Matrix.from_rows([[1, 1], [1, -1]])
    A2 = Matrix.from_rows([[1, 1], [1, Fraction(-9, 10)]])
    honest_product = A1 @ Matrix.from_rows([[1, 1], [1, -1]])
    report = check_homomorphism(A1, A2, 2, product=honest_product)
    check = report.checks[0]
    assert check.status == "fail"
    assert check.witness["location"] is not None
    assert "expected" in check.witness and "actual" in check.witness


def test_transpose_lemma_cases():
    sym = Matrix.from_rows([[2, 1], [1, 3]])
    assert check_transpose_lemma(sym, 2).passed
    assert check_transpose_lemma(Matrix.identity(4), 3).passed
    assert check_transpose_lemma(trinomial_system().A, 2).passed


def test_random_rational_matrices_hold_both_lemmas():
    rng = random.Random(71)
    for size in (2, 3):
        for N in (1, 2, 3):
            for _ in range(5):
                A1 = random_matrix(rng, size)
                A2 = random_matrix(rng, size)
                assert check_homomorphism(A1, A2, N).passed
                assert check_transpose_lemma(A1, N).passed


def test_inverse_transport():
    rng = random.Random(83)
    hits = 0
    while hits < 6:
        A = random_matrix(rng, 3)
        try:
            inv = A.inverse()
        except ValueError:
            continue
        hits += 1
        size = len(enumerate_level(2, 3))
        assert induced_matrix(A, 3).matrix @ induced_matrix(inv, 3).matrix \
            == Matrix.identity(size)


def test_float_flavor_checks():
    rng = random.Random(97)
    A1 = random_matrix(rng, 3).to_float()
    A2 = random_matrix(rng, 3).to_float()
    assert check_homomorphism(A1, A2, 3, atol=1e-9).passed
    assert check_transpose_lemma(A1, 3, atol=1e-9).passed
    ind = induced_matrix(A1, 2)
    assert not ind.matrix.exact


def expand_per_row(A: Matrix, m, one) -> dict:
    """Row m expanded on its own: multiply the linear forms row_l(A) . v in
    the order l = 0..d, m_l times each, keyed by exponent tuples."""
    width = A.cols
    poly = {(0,) * width: one}
    for ell in range(width):
        for _ in range(m[ell]):
            out: dict = {}
            for exp, c in poly.items():
                for j, a in enumerate(A.row(ell)):
                    if not a:
                        continue
                    key = exp[:j] + (exp[j] + 1,) + exp[j + 1:]
                    out[key] = c * a if key not in out else out[key] + c * a
            poly = out
    return poly


def test_degree_by_degree_build_matches_per_row_expansion():
    rng = random.Random(131)
    for d in (1, 2, 3):
        for N in range(6):
            exact = random_matrix(rng, d + 1, span=5, max_den=7)
            approx = Matrix(d + 1, d + 1,
                            [0.0 if rng.random() < 0.2 else rng.uniform(-2.0, 2.0)
                             for _ in range((d + 1) ** 2)], exact=False)
            for A, one, zero in ((exact, Fraction(1), Fraction(0)), (approx, 1.0, 0.0)):
                ind = induced_matrix(A, N)
                assert ind.matrix.exact == A.exact
                for i, m in enumerate(ind.basis):
                    poly = expand_per_row(A, m, one)
                    expected = [poly.get(tuple(n), zero) for n in ind.basis]
                    assert ind.matrix.row(i) == expected
                    if A.exact:
                        assert all(type(c) is Fraction for c in ind.matrix.row(i))
                    else:
                        assert [math.copysign(1.0, c) for c in ind.matrix.row(i)] == \
                            [math.copysign(1.0, c) for c in expected]
