"""Float-side functions of a system: cumulant map, flow coordinates,
the Leibniz pairing, and the lattice generating function.

The distinguished slot is pinned throughout: z_0 = 0 for source
coordinates and v_0 = 1 for flow coordinates, so all vectors passed in
and out carry d components.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Matrix
from .system import KGSystem, KravchoukLevel


def _exp(value: float) -> float:
    try:
        out = math.exp(value)
    except OverflowError:
        raise ValueError(f"exp overflow at {value}") from None
    return out


def _log(value: float, what: str) -> float:
    if value <= 0.0 or not math.isfinite(value):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return math.log(value)


class AnalyticContext:
    """Float view of a certified system.

    Construction converts matrices explicitly, so exact systems stay
    untouched; there is no conversion back.
    """

    def __init__(self, system: KGSystem):
        self.d = system.d
        self.A = tuple(tuple(float(v) for v in system.A.row(ell))
                       for ell in range(system.d + 1))
        self.C = tuple(tuple(float(v) for v in system.C.row(ell))
                       for ell in range(system.d + 1))
        self.p = tuple(float(v) for v in system.p)
        self.D = tuple(float(v) for v in system.D)
        self.alpha = self.A[0]

    def _vector(self, z, what: str) -> tuple:
        vec = tuple(float(v) for v in z)
        if len(vec) != self.d:
            raise ValueError(f"{what} needs {self.d} components, got {len(vec)}")
        if any(not math.isfinite(v) for v in vec):
            raise ValueError(f"non-finite component in {what} {vec}")
        return vec

    def _mixture(self, z: tuple) -> float:
        return self.p[0] + sum(self.p[i] * _exp(z[i - 1]) for i in range(1, self.d + 1))

    def H(self, z) -> float:
        """log of the moment sum p_0 + sum_i p_i e^{z_i}."""
        z = self._vector(z, "z")
        return _log(self._mixture(z), "moment sum")

    def U(self, v) -> tuple:
        """Source coordinates of a flow point; errors outside the domain."""
        v = self._vector(v, "v")
        den = 1.0 + sum(self.alpha[j] * v[j - 1] for j in range(1, self.d + 1))
        if den <= 0.0:
            raise ValueError(f"flow point {v} outside the domain (denominator {den})")
        out = []
        for k in range(1, self.d + 1):
            num = self.A[k][0] + sum(self.A[k][j] * v[j - 1] for j in range(1, self.d + 1))
            if num <= 0.0:
                raise ValueError(
                    f"flow point {v} outside the domain (component {k} gives {num})")
            out.append(math.log(num / den))
        return tuple(out)

    def V(self, z) -> tuple:
        """Flow coordinates of a source point; inverse of U on its domain."""
        z = self._vector(z, "z")
        mix = self._mixture(z)
        if mix <= 0.0 or not math.isfinite(mix):
            raise ValueError(f"moment sum degenerate at {z}")
        exps = [_exp(v) for v in z]
        out = []
        for k in range(1, self.d + 1):
            num = self.C[k][0] + sum(self.C[k][j] * exps[j - 1]
                                     for j in range(1, self.d + 1))
            out.append(num / mix)
        return tuple(out)

    def _flow_sum(self, row: int, V: tuple) -> float:
        # A_{row, mu} V_mu with the pinned V_0 = 1
        return self.A[row][0] + sum(self.A[row][j] * V[j - 1]
                                    for j in range(1, self.d + 1))

    def riccati_residual(self, z, h: float = 1e-5) -> Matrix:
        """|central difference of dV_i/dz_j minus (C_ij - p_j V_i) A_j.V|."""
        z = self._vector(z, "z")
        if not h > 0.0:
            raise ValueError(f"step must be positive, got {h}")
        base = self.V(z)
        cells = []
        columns = []
        for j in range(1, self.d + 1):
            zp = list(z)
            zm = list(z)
            zp[j - 1] += h
            zm[j - 1] -= h
            vp, vm = self.V(zp), self.V(zm)
            columns.append([(a - b) / (2.0 * h) for a, b in zip(vp, vm)])
        for i in range(1, self.d + 1):
            for j in range(1, self.d + 1):
                rhs = (self.C[i][j] - self.p[j] * base[i - 1]) * self._flow_sum(j, base)
                cells.append(abs(columns[j - 1][i - 1] - rhs))
        return Matrix(self.d, self.d, cells, exact=False)

    def identity_residuals(self, z, h: float = 1e-5) -> dict:
        """Pointwise residuals of the exponential-coordinate identities.

        eq_z: e^{z_k} / (p . e^z) against A_k.V, all k including the pinned
        slot; eq_H: H against -log(alpha . V); dH: central difference of H
        against p_j A_j.V.
        """
        z = self._vector(z, "z")
        V = self.V(z)
        mix = self._mixture(z)
        exps = [1.0] + [_exp(v) for v in z]
        eq_z = max(abs(exps[k] / mix - self._flow_sum(k, V))
                   for k in range(self.d + 1))
        eq_H = abs(self.H(z) + _log(self._flow_sum(0, V), "alpha flow sum"))
        dH = 0.0
        for j in range(1, self.d + 1):
            zp, zm = list(z), list(z)
            zp[j - 1] += h
            zm[j - 1] -= h
            fd = (self.H(zp) - self.H(zm)) / (2.0 * h)
            dH = max(dH, abs(fd - self.p[j] * self._flow_sum(j, V)))
        return {"eq_z": eq_z, "eq_H": eq_H, "dH": dH}

    def psi_check(self, B, V) -> float:
        """Residual of the additive splitting of H along U against the
        closed product form log(1 + sum_i B_i D_i V_i)."""
        B = self._vector(B, "B")
        V = self._vector(V, "V")
        uB, uV = self.U(B), self.U(V)
        combined = self.H(tuple(a + b for a, b in zip(uB, uV)))
        closed = _log(1.0 + sum(B[i] * self.D[i + 1] * V[i] for i in range(self.d)),
                      "pairing argument")
        return abs(combined - self.H(uB) - self.H(uV) - closed)


def leibniz(level: KravchoukLevel, Bvec, Vvec):
    """Closed pairing (1 + sum_i B_i D_i V_i)^N; exact for exact inputs."""
    d, N = level.system.d, level.N
    B, V = list(Bvec), list(Vvec)
    if len(B) != d or len(V) != d:
        raise ValueError(f"vectors need {d} components")
    D = level.system.D
    base = 1 + sum(B[i] * D[i + 1] * V[i] for i in range(d))
    return base ** N


def leibniz_bruteforce(level: KravchoukLevel, Bvec, Vvec):
    """The same pairing summed term by term over all labels.

    sum over |n| <= N of (B^n / n!)(V^n / n!) times the bernoulli squared
    norm; dual route to `leibniz`.
    """
    d = level.system.d
    B, V = list(Bvec), list(Vvec)
    if len(B) != d or len(V) != d:
        raise ValueError(f"vectors need {d} components")
    gram = level.gram_diagonal("bernoulli")
    total = 0
    for m, term in zip(level.basis, gram.diagonal_entries()):
        n = m[1:]
        for i, e in enumerate(n):
            fact = math.factorial(e)
            term = term * (B[i] ** e) / fact
            term = term * (V[i] ** e) / fact
        total = total + term
    return total


def generating_function(level: KravchoukLevel, x, v):
    """Product form prod_l (A_l . (1, v))^{m_l} at the lattice point x.

    Expanding in v recovers the level's polynomial values: the coefficient
    of v^n / n! is the bernoulli value at x.  Exact for exact systems with
    rational v.
    """
    d, N = level.system.d, level.N
    pos = level.point_position(x)  # validates the point
    m = level.basis.unrank(pos)
    v = list(v)
    if len(v) != d:
        raise ValueError(f"flow vector needs {d} components")
    A = level.system.A
    one = Fraction(1) if level.system.exact else 1.0
    total = one
    for ell in range(d + 1):
        if not m[ell]:
            continue
        affine = A[ell, 0] + sum(A[ell, j] * v[j - 1] for j in range(1, d + 1))
        total = total * affine ** m[ell]
    return total
