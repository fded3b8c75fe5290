"""Minimal real Clifford-module generators J_1..J_m and the H-type
algebras they induce.

The generators satisfy J_i J_j + J_j J_i = -2 delta_ij I with entries in
{-1, 0, 1}, built from division-algebra multiplications:

    m = 1        rotation [[0,-1],[1,0]] on R^2
    m = 2, 3     left multiplication by e_1..e_m on H          (d = 4)
    m = 4        doubled H: J_u(x,y) = (-u y, conj(u) x),
                 u in (1, e_1, e_2, e_3)                       (d = 8)
    m = 5, 6, 7  left multiplication by e_1..e_m on O          (d = 8)
    m = 8        doubled O, u over the full basis              (d = 16)

Left multiplications by orthonormal imaginary units anticommute by
linearized alternativity; the doubling adds one extra generator (u = 1).
These dimensions d(m) = 2, 4, 4, 8, 8, 8, 8, 16 are minimal, witnessed
by the commutant of the generated matrix algebra staying <= 4-dimensional
(an irreducible module over R, C or H). Every generator is a signed
permutation matrix, so the commutant dimension is read off the characters
of the Clifford group {+-J_I}, with no linear system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import division as da
from .division import DivisionAlgebra
from .errors import StructureError
from .nilpotent import GradedNilpotent, _algebra, _clifford_failures

__all__ = ["CliffordGenerators", "clifford_generators", "build_htype_from_clifford",
           "REP_DIMS"]

Matrix = tuple[tuple[Fraction, ...], ...]

REP_DIMS = {1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8, 8: 16}


@dataclass(frozen=True)
class CliffordGenerators:
    m: int
    rep_dim: int
    generators: tuple[Matrix, ...]
    commutant_dim: int


def _left_mult_matrix(algebra: DivisionAlgebra, index: int) -> list[list[Fraction]]:
    """The matrix of x -> e_index x: column j holds e_index e_j = sign e_k."""
    d = algebra.dimension
    zero = Fraction(0)
    mat = [[zero] * d for _ in range(d)]
    for j in range(d):
        k, sign = da.unit_product(algebra, index, j)
        mat[k][j] = Fraction(sign)
    return mat


def _doubled(algebra: DivisionAlgebra) -> list[list[list[Fraction]]]:
    """J_u(x, y) = (-u y, conj(u) x) over the full basis of the algebra."""
    d = algebra.dimension
    zero = Fraction(0)
    out = []
    for idx in range(d):
        lu = _left_mult_matrix(algebra, idx)
        # conj(e_0) = e_0, conj(e_i) = -e_i
        lconj = lu if idx == 0 else [[-x for x in row] for row in lu]
        mat = [[zero] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            for j in range(d):
                mat[i][d + j] = -lu[i][j]
                mat[d + i][j] = lconj[i][j]
        out.append(mat)
    return out


def _generator_matrices(m: int) -> list[list[list[Fraction]]]:
    if m == 1:
        o, l = Fraction(1), Fraction(0)
        return [[[l, -o], [o, l]]]
    if m in (2, 3):
        return [_left_mult_matrix(DivisionAlgebra.H, i + 1) for i in range(m)]
    if m == 4:
        return _doubled(DivisionAlgebra.H)
    if m in (5, 6, 7):
        return [_left_mult_matrix(DivisionAlgebra.O, i + 1) for i in range(m)]
    if m == 8:
        return _doubled(DivisionAlgebra.O)
    raise ValueError("m must be between 1 and 8")


def _commutant_dimension(K: list[list[dict[int, int]]]) -> int:
    """dim of {A : A J_i = J_i A for all i}, computed exactly from characters.

    K is the stack of integer generators as rows {column: value}, already
    certified to satisfy the Clifford relations, so J_I = J_i1 ... J_ik
    (i1 < ... < ik) and their negatives form the Clifford group of order
    2^(m+1), and the commutant is End_G(R^d). For a real representation
    its dimension is the character inner product <chi, chi> (Serre, Linear
    Representations of Finite Groups, 2.3): chi(-J_I) = -chi(J_I), so it is
    2^-m times the sum over I of tr(J_I)^2. Each J_I is a signed
    permutation (column and sign per row, in ints), built as J_(I - max I)
    J_(max I).
    """
    gens = []
    for J in K:
        cols = [c for row in J if len(row) == 1 for c in row]
        signs = [x for row in J if len(row) == 1 for x in row.values()]
        if (len(cols) != len(J) or set(cols) != set(range(len(J)))
                or any(x not in (1, -1) for x in signs)):
            raise StructureError("a Clifford generator is not a signed permutation")
        gens.append((cols, signs))
    d, m = len(K[0]), len(K)
    products = [(list(range(d)), [1] * d)]  # J_I at bit mask I; J_{} = identity
    total = d * d
    for mask in range(1, 1 << m):
        top = mask.bit_length() - 1
        cols, signs = products[mask ^ (1 << top)]
        gcols, gsigns = gens[top]
        # row r of J_I' J_top is signs[r] times row cols[r] of J_top
        cols, signs = [gcols[c] for c in cols], [s * gsigns[c] for s, c in zip(signs, cols)]
        products.append((cols, signs))
        trace = sum(s for r, (c, s) in enumerate(zip(cols, signs)) if c == r)
        total += trace * trace
    dim, rest = divmod(total, 1 << m)
    if rest:
        raise StructureError(f"character sum {total} is not a multiple of 2^{m}")
    return dim


def clifford_generators(m: int) -> CliffordGenerators:
    if not 1 <= m <= 8:
        raise ValueError("m must be between 1 and 8")
    mats = _generator_matrices(m)
    d = len(mats[0])
    # verify skewness and anticommutation exactly, on integers, before returning
    if any(x.denominator != 1 for j in mats for row in j for x in row):
        raise StructureError("generator entries are not integers")  # pragma: no cover
    K = [[{c: int(x) for c, x in enumerate(row) if x} for row in j] for j in mats]
    if any(J[c].get(r, 0) != -x for J in K for r, row in enumerate(J) for c, x in row.items()):
        raise StructureError("a generator is not skew")
    failing = _clifford_failures(K, 1)
    if failing:
        a, b = failing[0]
        raise StructureError(f"anticommutation fails for ({a},{b})")
    com = _commutant_dimension(K)
    if com > 4:
        raise StructureError(  # pragma: no cover
            f"commutant dimension {com} > 4: representation not minimal")
    return CliffordGenerators(
        m=m, rep_dim=d,
        generators=tuple(tuple(tuple(row) for row in j) for j in mats),
        commutant_dim=com,
    )


# The builders' generators, certified once per m: the generators are
# constants of m and the record is frozen tuples, so it is shared. A call
# of clifford_generators itself always recomputes and re-certifies.
_shared_generators = functools.cache(clifford_generators)


def build_htype_from_clifford(m: int, k: int) -> GradedNilpotent:
    """H-type algebra with v = k copies of the Clifford module, z = R^m."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gens = _shared_generators(m)
    d = gens.rep_dim
    # <z_l, [v_i, v_j]> = <J_l v_i, v_j> = J_l[j][i]; J_l is skew, so
    # each pair a < b of a copy is written once
    entries = ((off + a, off + b, l, j[b][a])
               for l, j in enumerate(gens.generators) for off in range(0, k * d, d)
               for a in range(d) for b in range(a + 1, d) if j[b][a])
    return _algebra(f"clifford({m},{k})", "clifford", None, {"m": m, "k": k}, k * d, m,
                    entries,
                    f"v: {k} copies of the {d}-dim Clifford module; z: R^{m} standard basis")
