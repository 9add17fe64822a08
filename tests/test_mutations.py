"""Each named check catches one injected defect.

A defect is one changed cell of one artifact (a Phi entry or an operator
cell), or a generator replaced by another, injected by wrapping the
builder that the check reads.  Every test asserts that the check fails
and names where.
"""

from fractions import Fraction

import pytest

from krawtchouk import FockRep, Matrix, kravchouk_level
from krawtchouk import cli
from krawtchouk.cli import run_verification

from conftest import hadamard3_system, trinomial_system

SYSTEMS = {"trinomial": (trinomial_system, 3), "hadamard3": (hadamard3_system, 2)}


def bumped(M: Matrix, i: int, j: int, delta=Fraction(1, 7)) -> Matrix:
    rows = M.to_rows()
    rows[i][j] += delta
    return Matrix.from_rows(rows, exact=M.exact)


def wrap_method(monkeypatch, name: str, change):
    """Replace FockRep.<name>(self, *index) by change(self, index, original result)."""
    original = getattr(FockRep, name)

    def broken(self, *index):
        return change(self, index, original(self, *index))

    monkeypatch.setattr(FockRep, name, broken)


def failed_witness(system_name: str, check: str) -> dict:
    build, N = SYSTEMS[system_name]
    result = run_verification(build(), N, [check]).check(check)
    assert result.status == "fail", result
    assert result.witness, result
    return result.witness


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_orthogonality_catches_one_phi_entry(monkeypatch, system_name):
    def broken_level(system, N):
        level = kravchouk_level(system, N)
        return type(level)(level.system, level.N, level.basis, bumped(level.Phi, 2, 1),
                           level.B, level.W, level.Dbar)

    monkeypatch.setattr(cli, "kravchouk_level", broken_level)
    witness = failed_witness(system_name, "orthogonality")
    assert witness["location"][0] == 2 or witness["location"][1] == 2


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_ladder_catches_one_lowering_cell(monkeypatch, system_name):
    wrap_method(monkeypatch, "lowering",
                lambda rep, index, L: bumped(L, 1, 3) if index == (1,) else L)
    witness = failed_witness(system_name, "ladder")
    assert witness["clause"] == "G L_1 = R_1^T G"
    assert witness["location"] == [1, 3]


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_lie_catches_a_dependent_generator(monkeypatch, system_name):
    wrap_method(monkeypatch, "lowering",
                lambda rep, index, L: rep.raising(1).scaled(3) if index == (1,) else L)
    witness = failed_witness(system_name, "lie")
    assert witness["location"] == "L1"
    assert witness["actual"] == "dependent on earlier generators"


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_lie_catches_a_bracket_outside_the_span(monkeypatch, system_name):
    wrap_method(monkeypatch, "raising",
                lambda rep, index, R: bumped(R, 0, 0, Fraction(1)) if index == (1,) else R)
    witness = failed_witness(system_name, "lie")
    assert witness["expected"] == "bracket inside the generator span"
    assert witness["location"].startswith("[R1, ")
    assert witness["max_residual"] > 0


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_observables_catch_one_cell(monkeypatch, system_name):
    wrap_method(monkeypatch, "observable",
                lambda rep, index, X: bumped(X, 0, 1) if index == (1,) else X)
    witness = failed_witness(system_name, "observables")
    assert witness["clause"] == "X_1 vs point-basis"
    assert witness["location"] == [0, 1]


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_ccr_catches_one_raising_cell(monkeypatch, system_name):
    wrap_method(monkeypatch, "raising",
                lambda rep, index, R: bumped(R, 1, 0, Fraction(1)) if index == (1,) else R)
    witness = failed_witness(system_name, "ccr-interior")
    assert witness["pair"] == [1, 1]
