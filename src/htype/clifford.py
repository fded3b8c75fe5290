"""Minimal real Clifford-module generators J_1..J_m and the H-type
algebras they induce.

The generators satisfy J_i J_j + J_j J_i = -2 delta_ij I with entries in
{-1, 0, 1}, built from division-algebra multiplications:

    m = 1        left multiplication by e_1 on C, the rotation
                 [[0,-1],[1,0]] on R^2                         (d = 2)
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
of the Clifford group {+-J_I}, with no linear system. The generators are
built and certified as sparse integer rows, one signed unit per row; the
record's dense Fraction matrices and the builders' entries are read off
those rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from . import division as da
from .division import DivisionAlgebra
from .errors import StructureError
from .nilpotent import GradedNilpotent, _algebra, _clifford_failures

__all__ = ["CliffordGenerators", "clifford_generators", "build_htype_from_clifford",
           "REP_DIMS"]

Matrix = tuple[tuple[Fraction, ...], ...]
Rows = list[dict[int, int]]  # an integer matrix as sparse rows {column: value}

REP_DIMS = {1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8, 8: 16}


@dataclass(frozen=True)
class CliffordGenerators:
    m: int
    rep_dim: int
    generators: tuple[Matrix, ...]
    commutant_dim: int
    # (column, sign) of the one signed unit in each row of each generator:
    # what the builders read
    units: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, compare=False)


def _left_mult(algebra: DivisionAlgebra, index: int) -> Rows:
    """The rows of x -> e_index x: e_index e_j = sign e_k is sign at row k,
    column j, one signed unit per row."""
    rows = [{} for _ in range(algebra.dimension)]
    for j in range(algebra.dimension):
        k, sign = da.unit_product(algebra, index, j)
        rows[k][j] = sign
    return rows


def _doubled(algebra: DivisionAlgebra) -> list[Rows]:
    """J_u(x, y) = (-u y, conj(u) x) over the full basis of the algebra."""
    d = algebra.dimension
    out = []
    for idx in range(d):
        lu = _left_mult(algebra, idx)
        conj = 1 if idx == 0 else -1  # conj(e_0) = e_0, conj(e_i) = -e_i
        out.append([{d + j: -x for j, x in row.items()} for row in lu]
                   + [{j: conj * x for j, x in row.items()} for row in lu])
    return out


def _generator_rows(m: int) -> list[Rows]:
    """The integer generators J_1..J_m as sparse rows, for 1 <= m <= 8 (the
    range `clifford_generators` checks): over C at m = 1, H up to m = 4 and
    O above, the doubled module at m = 4 and 8 and the left multiplications
    by e_1..e_m otherwise."""
    algebra = DivisionAlgebra.C if m == 1 else DivisionAlgebra.H if m <= 4 else DivisionAlgebra.O
    if m in (4, 8):
        return _doubled(algebra)
    return [_left_mult(algebra, i) for i in range(1, m + 1)]


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


# the entries of the dense generators, shared by every record
_ZERO, _UNITS = Fraction(0), {-1: Fraction(-1), 1: Fraction(1)}


def clifford_generators(m: int) -> CliffordGenerators:
    if not 1 <= m <= 8:
        raise ValueError("m must be between 1 and 8")
    K = _generator_rows(m)
    d = len(K[0])
    # verify skewness and anticommutation exactly, on integers, before returning
    if any(J[c].get(r, 0) != -x for J in K for r, row in enumerate(J) for c, x in row.items()):
        raise StructureError("a generator is not skew")
    failing = _clifford_failures(K, 1)
    if failing:
        a, b = failing[0]
        raise StructureError(f"anticommutation fails for ({a},{b})")
    com = _commutant_dimension(K)  # StructureError unless every row is one signed unit
    if com > 4:
        raise StructureError(f"commutant dimension {com} > 4: representation not minimal")
    units = tuple(tuple(next(iter(row.items())) for row in J) for J in K)
    return CliffordGenerators(
        m=m, rep_dim=d,
        generators=tuple(tuple((_ZERO,) * c + (_UNITS[x],) + (_ZERO,) * (d - 1 - c)
                               for c, x in J) for J in units),
        commutant_dim=com,
        units=units,
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
    # each pair a < b of a copy is written once, from the unit of row b
    entries = ((off + a, off + b, l, x)
               for l, J in enumerate(gens.units) for off in range(0, k * d, d)
               for b, (a, x) in enumerate(J) if a < b)
    return _algebra(f"clifford({m},{k})", "clifford", None, {"m": m, "k": k}, k * d, m,
                    entries,
                    f"v: {k} copies of the {d}-dim Clifford module; z: R^{m} standard basis")
