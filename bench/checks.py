"""Output checks computed apart from htype.

Each helper recomputes a property from the raw structure tensor or from a
closed formula, so a wrong answer from htype cannot also pass its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Dimensions of the simple Lie algebras that the finite-type prolongations
# must reproduce (PAPER.md's dichotomy), from their classical formulas.
DIM_E6 = 78
DIM_F4 = 52
DIM_SO8 = 28
DIM_SPIN7 = 21

# Minimal real Clifford module dimensions for Cl(m), m = 1..8.
CLIFFORD_MODULE_DIMS = (2, 4, 4, 8, 8, 8, 8, 16)


def dim_su_star(n: int) -> int:
    """su*(2n) = sl(n, H)."""
    return 4 * n * n - 1


def dim_sp(p: int, q: int) -> int:
    return (p + q) * (2 * (p + q) + 1)


def dim_csp(n: int) -> int:
    """csp(2n): Der_gr of the Heisenberg algebra h_n(R)."""
    return n * (2 * n + 1) + 1


def weighted_monomials(n1: int, n2: int, degree: int) -> int:
    """Monomials of weighted degree `degree` in n1 variables of weight 1 and
    n2 of weight 2: the dimension of the degree-(degree-2) component of the
    contact algebra on R^(n1+n2)."""
    return sum(math.comb(degree - 2 * c + n1 - 1, n1 - 1) * math.comb(c + n2 - 1, n2 - 1)
               for c in range(degree // 2 + 1))


def structure_array(alg) -> np.ndarray:
    return np.array([[[float(x) for x in cij] for cij in ci] for ci in alg.structure])


def _scaled_ints(*arrays) -> list[np.ndarray]:
    """Rational arrays times one common denominator, as integer arrays
    (int64 when every entry is small enough that no sum can overflow)."""
    flat = [np.asarray(a, dtype=object) for a in arrays]
    scale = math.lcm(*(x.denominator for a in flat for x in a.flat))
    ints = [np.array([x.numerator * (scale // x.denominator) for x in a.flat],
                     dtype=object).reshape(a.shape) for a in flat]
    if all(a.size == 0 or max(abs(x) for x in a.flat) < 2**20 for a in ints):
        ints = [a.astype(np.int64) for a in ints]
    return ints


def non_derivations(alg, pairs) -> int:
    """How many (A, B) fail B c(x_i, x_j) = c(A x_i, x_j) + c(x_i, A x_j),
    checked exactly as one integer tensor identity per pair."""
    if alg.dim_z == 0:
        return 0
    (c,) = _scaled_ints(alg.structure)
    bad = 0
    for a, b in pairs:
        ai, bi = _scaled_ints(a, b)
        lhs = np.einsum("ijl,kl->ijk", c, bi)
        rhs = np.einsum("ti,tjk->ijk", ai, c) + np.einsum("tj,itk->ijk", ai, c)
        bad += bool(np.any(lhs - rhs))
    return bad


def bracket_z(alg, u, w) -> list[Fraction]:
    """Exact [u, w] in z for v-vectors u, w."""
    c = alg.structure
    n = alg.dim_v
    return [sum((u[i] * w[j] * c[i][j][k] for i in range(n) for j in range(n)
                 if u[i] and w[j]), Fraction(0))
            for k in range(alg.dim_z)]


def pencil_has_real_root(alg) -> bool:
    """Float64 count of the real eigenvalues of J2^-1 J1 (dim z = 2).

    det(J1 + t J2) vanishes exactly at t = -lambda for the eigenvalues
    lambda of J2^-1 J1, so the pencil is non-singular iff none is real.
    Eigenvalues of a skew pencil are double, so a real one can split into a
    pair with an imaginary part near sqrt(eps); the tolerance covers that.
    """
    c = structure_array(alg)
    j1, j2 = c[:, :, 0].T, c[:, :, 1].T
    lam = np.linalg.eigvals(np.linalg.solve(j2, j1))
    scale = max(1.0, float(np.max(np.abs(lam))))
    return bool(np.any(np.abs(lam.imag) <= 1e-6 * scale))


def jmats(alg) -> np.ndarray:
    """(J_k)_{ab} = c[b][a][k], stacked over k."""
    return np.transpose(structure_array(alg), (2, 1, 0))


def j2_residual(alg, X, k, l) -> float:
    """|J_k J_l X minus its projection onto span{J_z X}| / |X|."""
    j = jmats(alg)
    span = np.column_stack([j[s] @ X for s in range(alg.dim_z)])
    u = j[k] @ (j[l] @ X)
    coef, *_ = np.linalg.lstsq(span, u, rcond=None)
    return float(np.linalg.norm(u - span @ coef) / np.linalg.norm(X))


def violation_witness_problems(alg, X, Z, W, tol: float) -> list[str]:
    """A violation witness is a unitary triple with J_Z J_W X orthogonal to
    span{J_z X} + R X, up to tol."""
    X, Z, W = (np.asarray(v, dtype=float) for v in (X, Z, W))
    problems = []
    for label, v in (("X", X), ("Z", Z), ("W", W)):
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
            problems.append(f"{label} is not a unit vector")
    if abs(float(Z @ W)) > 1e-12:
        problems.append("Z is not orthogonal to W")
    j = jmats(alg)
    jz = np.tensordot(Z, j, axes=(0, 0))
    jw = np.tensordot(W, j, axes=(0, 0))
    span = np.column_stack([j[s] @ X for s in range(alg.dim_z)] + [X])
    u = jz @ (jw @ X)
    coef, *_ = np.linalg.lstsq(span, u, rcond=None)
    proj = float(np.linalg.norm(span @ coef))
    if proj > tol:
        problems.append(f"projection {proj:.3e} > {tol:.1e}")
    return problems


def contact_plane_problems(alg, X, plane) -> list[str]:
    """Rows (Y, W, s) of the boundary contact plane: orthonormal, with
    W = [X, Y]/2 and s = <X, Y>/2, spanning dim v directions."""
    n, m = alg.dim_v, alg.dim_z
    basis = plane.basis
    problems = []
    if basis.shape != (n, n + m + 1):
        problems.append(f"plane has shape {basis.shape}")
        return problems
    if np.max(np.abs(basis @ basis.T - np.eye(n))) > 1e-10:
        problems.append("plane basis is not orthonormal")
    c = structure_array(alg)
    for u in basis:
        y = u[:n]
        if np.max(np.abs(u[n:n + m] - 0.5 * np.einsum("ijk,i,j->k", c, X, y))) > 1e-12:
            problems.append("plane row is not horizontal")
            break
        if abs(u[-1] - 0.5 * float(X @ y)) > 1e-12 * max(1.0, float(X @ X)):
            problems.append("plane row is not tangent to the boundary")
            break
    return problems
