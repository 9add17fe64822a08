from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (binomial_system, hadamard3_system, trinomial_system)

from krawtchouk import (FockRep, Matrix, build_from_orthogonal, commutator,
                        kravchouk_level, matrices_match)
from krawtchouk.cli import load_system

SYSTEM_FILES = Path(__file__).resolve().parent.parent / "systems"


def rep(system, N: int) -> FockRep:
    return FockRep(kravchouk_level(system, N))


def all_systems():
    return [binomial_system(Fraction(1, 2)), binomial_system(Fraction(1, 3)),
            trinomial_system(), hadamard3_system()]


# -- ladder matrices -----------------------------------------------------------


def test_raising_and_velocity_entries(binomial_half):
    r = rep(binomial_half, 2)
    assert r.label(0) == (0,) and r.label(2) == (2,)
    assert r.raising(1).to_rows() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert r.velocity(1).to_rows() == [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    assert r.number_op().to_rows() == [[0, 0, 0], [0, 1, 0], [0, 0, 2]]


def test_raising_kills_top_degree():
    for sys in all_systems():
        for N in (1, 2, 3):
            r = rep(sys, N)
            for i in range(1, sys.d + 1):
                power = Matrix.identity(r.dim, exact=sys.exact)
                for _ in range(N + 1):
                    power = r.raising(i) @ power
                assert power == Matrix(r.dim, r.dim, [Fraction(0)] * r.dim ** 2)


def test_number_is_raising_velocity_sum():
    for sys in all_systems():
        r = rep(sys, 3)
        acc = Matrix(r.dim, r.dim, [Fraction(0)] * r.dim ** 2)
        for k in range(1, sys.d + 1):
            acc = acc + r.raising(k) @ r.velocity(k)
        assert acc == r.number_op()


def test_number_commutation():
    r = rep(trinomial_system(), 3)
    number = r.number_op()
    for i in (1, 2):
        assert commutator(number, r.raising(i)) == r.raising(i)
        assert commutator(r.velocity(i), number) == r.velocity(i)


def test_lowering_adjoint_to_raising():
    # G L_i = R_i^T G for the squared-norm diagonal in the factorial scaling
    for sys in all_systems():
        for N in (1, 2, 3):
            r = rep(sys, N)
            G = r.gram("bernoulli")
            for i in range(1, sys.d + 1):
                assert G @ r.lowering(i) == r.raising(i).transpose() @ G


def test_index_validation(trinomial):
    r = rep(trinomial, 2)
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            r.raising(bad)
        with pytest.raises(ValueError):
            r.lowering(bad)


def test_operator_cache_returns_same_object(binomial_half):
    r = rep(binomial_half, 2)
    assert r.raising(1) is r.raising(1)
    assert r.observable(1) is r.observable(1)


# -- commutators -----------------------------------------------------------------


def test_rho_closed_forms():
    for sys in all_systems():
        for N in (1, 2, 3):
            r = rep(sys, N)
            for i in range(1, sys.d + 1):
                for j in range(1, sys.d + 1):
                    assert r.rho(i, j) == r.rho_closed_form(i, j)


def test_rho_small_case(binomial_half):
    # d=1, N=1: rho_11 = D_1 (N - R V - number) = 1/4 diag(1 - 0 - 0, 1 - 1 - 1)
    r = rep(binomial_half, 1)
    assert r.rho(1, 1).to_rows() == [[Fraction(1, 4), 0], [0, Fraction(-1, 4)]]


def test_ccr_interior_and_boundary():
    for sys in all_systems():
        for N in (1, 2, 3):
            r = rep(sys, N)
            report = r.ccr_check()
            assert report.passed, report.to_json()
            assert report.checks[0].name == "ccr-interior"


def test_ccr_boundary_defect_by_hand(binomial_half):
    # at the top degree [V, R] picks up -n instead of the identity
    r = rep(binomial_half, 2)
    bracket = commutator(r.velocity(1), r.raising(1))
    top = r.position((2,))
    assert bracket[top, top] == -2
    assert bracket[0, 0] == 1 and bracket[1, 1] == 1


def test_lie_closure_small_levels():
    cases = [(binomial_system(Fraction(1, 3)), 2),
             (trinomial_system(), 2), (trinomial_system(), 3)]
    for sys, N in cases:
        report = rep(sys, N).lie_closure_check()
        assert report.passed, report.to_json()
        check = report.checks[0]
        expected = sys.d ** 2 + 2 * sys.d
        assert check.detail == f"{expected} generators, closed"


def test_lie_closure_level_zero_skips(binomial_half):
    report = rep(binomial_half, 0).lie_closure_check()
    assert report.checks[0].status == "skipped"
    assert report.passed


# -- observables ------------------------------------------------------------------


def test_observable_binomial_level_one(binomial_half):
    r = rep(binomial_half, 1)
    assert r.observable(1).to_rows() == [
        [Fraction(1, 2), Fraction(-1, 4)],
        [-1, Fraction(1, 2)]]


def test_observable_three_routes_agree():
    for sys in all_systems()[:3]:
        for N in (1, 2, 3):
            r = rep(sys, N)
            for j in range(1, sys.d + 1):
                X = r.observable(j)
                assert X == r.observable_point_basis(j)
                assert X == r.observable_selfadjoint(j)


def test_observables_commute():
    for sys in (trinomial_system(), hadamard3_system()):
        r = rep(sys, 2)
        for j in range(1, sys.d + 1):
            for k in range(j + 1, sys.d + 1):
                Z = commutator(r.observable(j), r.observable(k))
                assert Z == Matrix(r.dim, r.dim, [Fraction(0)] * r.dim ** 2)


def test_observable_trace_is_coordinate_sum():
    # similarity to diag(x_j) fixes the trace to the lattice total
    for sys in (binomial_system(Fraction(1, 3)), trinomial_system()):
        for N in (1, 2, 4):
            r = rep(sys, N)
            for j in range(1, sys.d + 1):
                expected = sum(m[j] for m in r.level.basis)
                assert r.observable(j).trace() == expected


def test_observable_action_matches_pointwise_product(trinomial):
    # column n expanded over labels must reproduce x_j K_n(x) at every x;
    # the operator acts on factorial-scaled coefficients
    level = kravchouk_level(trinomial, 3)
    r = FockRep(level)
    points = level.lattice_points()
    for j in (1, 2):
        X = r.observable(j)
        for col, n in enumerate(r._labels):
            expanded = [X[row, col] for row in range(r.dim)]
            for x in points:
                direct = x[j - 1] * level.evaluate(n, x, "bernoulli")
                summed = sum(c * level.evaluate(r.label(row), x, "bernoulli")
                             for row, c in enumerate(expanded))
                assert summed == direct


def test_selfadjoint_route_is_symmetric_under_gram():
    # G X is symmetric when X is the selfadjoint form, in factorial scaling
    for sys in (binomial_system(Fraction(1, 3)), trinomial_system()):
        r = rep(sys, 3)
        G = r.gram("bernoulli")
        for j in range(1, sys.d + 1):
            M = G @ r.observable_selfadjoint(j)
            assert M == M.transpose()


def test_value_table_invertible(trinomial):
    r = rep(trinomial, 2)
    T = r.value_table()
    assert T @ T.inverse() == Matrix.identity(r.dim)


@pytest.mark.parametrize("name", sorted(p.stem for p in SYSTEM_FILES.glob("*.json")))
def test_value_table_inverse_closed_form(name):
    # diag(1/(n! (B Dbar)_n)) Phi W inverts T exactly, and is the inverse
    # elimination finds; float systems agree within the default tolerances
    system = load_system(str(SYSTEM_FILES / f"{name}.json"))
    for N in range(1, 7):
        r = rep(system, N)
        T, Tinv = r.value_table(), r.value_table_inverse()
        assert r.value_table_inverse() is Tinv
        identity = Matrix.identity(r.dim, exact=system.exact)
        if system.exact:
            assert Tinv @ T == identity, N
            assert Tinv.to_rows() == T.inverse().to_rows(), N
        else:
            assert matrices_match(Tinv @ T, identity) is None, N
            assert matrices_match(Tinv, T.inverse()) is None, N


# -- recurrence --------------------------------------------------------------------


def test_recurrence_matches_observable_columns():
    for sys in (binomial_system(Fraction(1, 2)), trinomial_system()):
        for N in (1, 2, 3):
            r = rep(sys, N)
            for j in range(1, sys.d + 1):
                X = r.observable(j)
                for col, n in enumerate(r._labels):
                    pairs = r.recurrence_apply(j, n)
                    dense = [Fraction(0)] * r.dim
                    for coeff, label in pairs:
                        dense[r.position(label)] = coeff
                    assert dense == [X[row, col] for row in range(r.dim)]
                    positions = [r.position(label) for _, label in pairs]
                    assert positions == sorted(positions)
                    assert all(coeff != 0 for coeff, _ in pairs)


def test_recurrence_vacuum(binomial_third):
    # x . 1 = N p_1 + C_11 K_1 with C_11 = -1 for this system
    r = rep(binomial_third, 3)
    pairs = [(c, tuple(label)) for c, label in r.recurrence_apply(1, (0,))]
    assert pairs == [(Fraction(1), (0,)), (Fraction(-1), (1,))]


def test_recurrence_validation(trinomial):
    r = rep(trinomial, 2)
    with pytest.raises(ValueError):
        r.recurrence_apply(1, (3, 0))
    with pytest.raises(ValueError):
        r.recurrence_apply(1, (1,))
    with pytest.raises(ValueError):
        r.recurrence_apply(1, (-1, 0))


# -- approximate flavor --------------------------------------------------------------


def test_float_rep_checks_pass():
    O = Matrix.from_rows([[0.8, 0.6], [0.6, -0.8]], exact=False)
    sys = build_from_orthogonal(O, [1.0, 1.0])
    r = rep(sys, 3)
    assert r.ccr_check(atol=1e-9).passed
    assert r.lie_closure_check(atol=1e-9).passed
    X = r.observable(1)
    Y = r.observable_point_basis(1)
    for i in range(r.dim):
        for j in range(r.dim):
            assert abs(X[i, j] - Y[i, j]) < 1e-9
