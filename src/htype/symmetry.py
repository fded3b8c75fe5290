"""Derivation algebras and Tanaka prolongations as exact nullspaces.

The prolongation g_K (K >= 0) consists of degree-K maps f sending v ->
g_{K-1} and z -> g_{K-2} subject to f([u,w]) = [f(u),w] + [u,f(w)] for
all u, w in n, where bracketing an element of degree >= 0 against n
means applying the map. One assembler builds the system of every degree
from the level data below it. At K = 0 the maps are pairs (A, B) with
B[x,y] = [Ax,y] + [x,Ay], so g_0 = Der_gr(n), the graded derivations;
full derivations add C: v -> z (always unconstrained) and a z -> v block
E, which vanishes on [v, v] and maps into rad v = {w : [v, w] = 0}, so
Der = Der_gr + Hom(v, z) + Hom(z / [v, v], rad v). The degree-0 system is
solved once per algebra object: `graded_derivations`, `full_derivations`
and degree 0 of `tanaka_prolong` share one certified result, kept on the
algebra (`nilpotent._kept`) as its level-0 record (below) and method.
`full_derivations` solves nothing else but the two small systems whose
nullities are dim rad v and dim(z / [v, v]).

Each degree is one nullspace; iteration stops at the first zero positive
component (transitivity kills everything above) or at max_degree. The
per-degree system size is capped by a configurable, positive entry
budget so an oversized system is refused loudly rather than solved slowly;
degree 0 is charged before its system is assembled, a supplied g0's
checks included.

Exact systems are assembled in Python ints. Every level j >= -2 is one
record levels[j] = (v, z, D_j): v[a] and z[a] list the nonzeros
(slot, x) of the integer matrices D_j T_j of basis element a of g_j on v
and on z, slot r*n + i for row r (a basis element of g_{j-1}) and
v-coordinate i, slot r*m + l for row r (of g_{j-2}) and z-coordinate l;
D_j is their common denominator, and dim g_j = len(v). No record holds a
zero. g_-2 = z is m elements with no entries; g_-1 = v is
(ad, no entries, D_-1), ad regrouped from `GradedNilpotent.nonzeros`;
above, v and z hold the canonical basis of g_j, read straight off the
verified integer vectors (d, d v) of its nullspace, split at the z block
and scaled to D_j, the lcm of their d (`_split`, Der_gr included). A
supplied g0 is read off its rational matrices (`_level`). The assembler
writes one rule, f([a, b]) = [f(a), b] - [f(b), a], over the layer pairs
(v, v), (v, z) and (z, z) of n, and regroups each record's entries by
slot once per pair; each index is scaled by the D_j of the row's other
levels, so every row is a positive integer multiple of the rational row
and `nullspace` receives integral rows. No flat Fraction vector is
built, and no result holds a dense matrix: a `DerivationSpace` reads
its algebra's kept level-0 record and a `ProlongationResult` keeps its
level records, and each makes its basis dense from them, one matrix at
a time (`_dense`), at every read of `basis` or `bases`, as
`NullspaceResult.basis` is made from its vectors. Arithmetic "float64" runs the same certified solve and
reports the bases as floats.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Sequence

from . import linalg
from .errors import StructureError
from .linalg import DEFAULT_BUDGET, check_budget, default_budget, nullspace
from .nilpotent import GradedNilpotent, _kept

if TYPE_CHECKING:  # annotations only
    from .linalg import NullspaceResult

__all__ = [
    "DerivationSpace",
    "ProlongationResult",
    "SymmetryExcess",
    "DEFAULT_BUDGET",
    "default_budget",
    "graded_derivations",
    "full_derivations",
    "verify_graded_derivation",
    "tanaka_prolong",
    "symmetry_excess",
]

Matrix = tuple[tuple[Fraction, ...], ...]

@dataclass(frozen=True)
class DerivationSpace:
    """Der_gr(n) (graded_only) or Der(n) of algebra, certified by method.
    It holds no matrix: `basis` is made dense from the algebra's kept
    level-0 record at each read (see `full_derivations` for its order)."""
    algebra: GradedNilpotent
    graded_only: bool
    dimension: int
    method: str
    offgrade_dimension: int = 0  # z->v solutions (degenerate algebras only)

    @property
    def basis(self) -> tuple[tuple[Matrix, Matrix, Matrix | None], ...]:
        """The (A, B, C) triples, C None for Der_gr, built afresh at each
        read; the record is solved by the call that made this space, so a
        read solves nothing."""
        alg = self.algebra
        n, m = alg.dim_v, alg.dim_z
        kind = "graded" if self.graded_only else "full"
        (v, z, d), _ = _der_gr(alg, f"{kind} derivation system of {alg.name}")
        pairs = zip(_matrices(v, n, n, d), _matrices(z, m, m, d))
        if self.graded_only:
            return tuple((a, b, None) for a, b in pairs)
        zero_a, zero_b, zero_c = (_matrices([[]], rows, cols, 1)[0]
                                  for rows, cols in ((n, n), (m, m), (m, n)))
        units = _matrices([[(slot, 1)] for slot in range(m * n)], m, n, 1)
        return (tuple((a, b, zero_c) for a, b in pairs)
                + tuple((zero_a, zero_b, c) for c in units))


@dataclass(frozen=True)
class ProlongationResult:
    """The dimensions of a prolongation and its level records, `levels[j]`
    = (v, z, D_j) for j >= -2 (see the module docstring): integers only.
    `bases` is made dense from them at each read."""
    algebra_name: str
    g0_dim: int
    component_dims: tuple[int, ...]  # positive-degree dims, zero excluded
    total_dim: int
    trivial: bool
    completed: bool  # a zero component was reached
    arithmetic: str
    elapsed_ms: int
    budget: int
    levels: dict[int, tuple[list, list, int]] = field(repr=False, hash=False)

    @property
    def bases(self) -> tuple:
        """(v-matrices, z-matrices) of the canonical basis T_K = (D_K T_K)
        / D_K of each positive degree K, ascending: Fractions, or floats
        of the same entries under arithmetic "float64", built afresh at
        each read."""
        dims = {K: len(v) for K, (v, _, _) in self.levels.items()}
        n, m = dims[-1], dims[-2]
        bases = tuple((_dense(v, dims[K - 1], n, d), _dense(z, dims[K - 2], m, d))
                      for K, (v, z, d) in sorted(self.levels.items()) if K > 0)
        return _as_float(bases) if self.arithmetic == "float64" else bases

    def to_json_dict(self) -> dict:
        return {
            "algebra_name": self.algebra_name,
            "g0_dim": self.g0_dim,
            "component_dims": list(self.component_dims),
            "total_dim": self.total_dim,
            "trivial": self.trivial,
            "completed": self.completed,
            "arithmetic": self.arithmetic,
            "elapsed_ms": self.elapsed_ms,
            "budget": self.budget,
        }


def _der_gr(alg: GradedNilpotent, context: str) -> tuple[tuple[list, list, int], str]:
    """Der_gr(n) as (level-0 record, method): the degree-0 system of alg,
    solved by the first caller under its own context and kept on alg for
    every caller: `graded_derivations`, `full_derivations` and degree 0 of
    `tanaka_prolong`."""
    def solve(alg):
        n, m = alg.dim_v, alg.dim_z
        res = nullspace(_prolong_rows(0, _negative_levels(alg)), n * n + m * m,
                        context=context)
        return _split(res, n * n), res.method

    return _kept(alg, "_der_gr", solve)


def _matrices(mats: list, nrows: int, ncols: int, d: int) -> tuple:
    """`_dense` with tuple rows, as `DerivationSpace.basis` reads them."""
    return tuple(tuple(map(tuple, mat)) for mat in _dense(mats, nrows, ncols, d))


def graded_derivations(alg: GradedNilpotent) -> DerivationSpace:
    """All (A, B) with B[x,y] = [Ax,y] + [x,Ay], as a certified basis."""
    (v, _, _), method = _der_gr(alg, f"graded derivation system of {alg.name}")
    return DerivationSpace(alg, True, len(v), method)


def full_derivations(alg: GradedNilpotent) -> DerivationSpace:
    """Derivations without the grading restriction.

    Unknown blocks: A: v->v, B: z->z, C: v->z (never constrained in a
    2-step algebra), E: z->v. The equations are the graded ones plus
    [x, Ez] = 0 and E[x, y] = 0, so E is a map z / [v, v] -> rad v: E-solutions
    exist only when the skew forms share a kernel vector and the brackets do
    not span z. The blocks share no equation, so the system splits: its
    canonical basis is the Der_gr basis with C = 0, then the n*m unit maps
    C: v -> z in column order (row-major in C), then the E-solutions.
    `basis` reads the (A, B, C) of all but the E-solutions;
    offgrade_dimension counts those, dim rad v * dim(z / [v, v]), each
    factor the nullity of a small system read off the level -1 record:
    the dual of z / [v, v] the kernel of the rows c(x_i, x_j) (m columns),
    and rad v the kernel of the rows c(x_s, .)_k (n columns), solved only
    when z / [v, v] is nonzero. method is "modp" only when every system
    solved was.
    """
    n, m = alg.dim_v, alg.dim_z
    (v, _, _), method = _der_gr(alg, f"full derivation system of {alg.name}")
    rad_rows: dict[tuple[int, int], dict[int, int]] = {}
    span_rows: dict[tuple[int, int], dict[int, int]] = {}
    for s, entries in enumerate(_negative_levels(alg)[-1][0]):  # (k*n + t, D c(x_s, x_t)_k)
        for slot, x in entries:
            k, t = divmod(slot, n)
            rad_rows.setdefault((s, k), {})[t] = x
            if s < t:
                span_rows.setdefault((s, t), {})[k] = x
    quotient = nullspace(span_rows.values(), m, context=f"z / [v, v] system of {alg.name}")
    solved = [quotient]
    if quotient.dimension:  # otherwise E = 0 whatever rad v is
        solved.append(nullspace(rad_rows.values(), n, context=f"rad v system of {alg.name}"))
    offgrade = quotient.dimension and quotient.dimension * solved[1].dimension
    method = "modp" if {method, *(res.method for res in solved)} == {"modp"} else "modp-crt"
    return DerivationSpace(alg, False, len(v) + n * m + offgrade, method,
                           offgrade_dimension=offgrade)


def verify_graded_derivation(alg: GradedNilpotent, a: Matrix, b: Matrix) -> bool:
    """Direct substitution check of B[x,y] = [Ax,y] + [x,Ay]."""
    n, m = alg.dim_v, alg.dim_z
    c = alg.structure
    for i in range(n):
        for j in range(i + 1, n):
            cij = c[i][j]
            for k in range(m):
                lhs = sum(b[k][l] * cij[l] for l in range(m) if cij[l])
                rhs = (sum(a[t][i] * c[t][j][k] for t in range(n) if c[t][j][k])
                       + sum(a[t][j] * c[i][t][k] for t in range(n) if c[i][t][k]))
                if lhs != rhs:
                    return False
    return True


def _level(v: list, z: list) -> tuple[list, list, int]:
    """The level record (v, z, D) of a basis given by the rational nonzeros
    (slot, x) of its matrices on v and on z: the entries (slot, D x) and D,
    the lcm of every entry's denominator (ints and Fractions alike) over
    both. Only the levels that no nullspace produced come through here: the
    negative levels and a supplied g0.
    """
    d = math.lcm(*(x.denominator for entries in chain(v, z) for _, x in entries))
    v, z = ([[(slot, x.numerator * (d // x.denominator)) for slot, x in entries]
             for entries in mats] for mats in (v, z))
    return v, z, d


def _split(res: NullspaceResult, p_cols: int) -> tuple[list, list, int]:
    """The level record (v, z, D) of the canonical basis of a degree's
    system: the nonzeros of D T are the verified integer vectors (d, d v)
    scaled to D, the lcm of their d, so no Fraction and no zero is built;
    column a*n + i is slot a*n + i of the map on v, column p_cols + b*m + l
    slot b*m + l of the map on z."""
    d = math.lcm(*(dk for dk, _ in res.vectors))
    v, z = [], []
    for dk, vec in res.vectors:
        s = d // dk
        cut = bisect_left(vec, (p_cols,))
        v.append(vec[:cut] if s == 1 else [(c, x * s) for c, x in vec[:cut]])
        z.append([(c - p_cols, x * s) for c, x in vec[cut:]])
    return v, z, d


def _slots(mat, ncols: int) -> list:
    """The nonzeros (r*ncols + c, x) of a matrix with rows of length ncols."""
    return [(r * ncols + c, x) for r, row in enumerate(mat) for c, x in enumerate(row) if x]


def _negative_levels(alg: GradedNilpotent) -> dict[int, tuple[list, list, int]]:
    """The level records of n itself, from which every degree's system is
    built, read off the algebra's view `nonzeros`: g_-2 = z, whose m
    elements have matrices with no rows and so no entries, and g_-1 = v,
    where x_i is ad x_i: v -> z, entry [s][t] = c(x_i, x_t)_s at slot
    s*n + t, and x_i kills z, so its z-matrix has no entries either.
    Made once and kept on alg, so a caller that adds levels copies the dict.
    """
    def make(alg):
        n, m = alg.dim_v, alg.dim_z
        ad = [[] for _ in range(n)]
        for i, t, s, x in alg.nonzeros:
            ad[i].append((s * n + t, x))
        return {-2: ([[]] * m, [[]] * m, 1), -1: _level(ad, [[]] * n)}

    return _kept(alg, "_negative_levels", make)


def _brackets(ad: list, n: int) -> list[list[list[tuple[int, int]]]]:
    """cij[i][j] lists (k, D c(x_i, x_j)_k) over the nonzeros of the level
    -1 entries ad, k ascending."""
    cij = [[[] for _ in range(n)] for _ in range(n)]
    for ci, entries in zip(cij, ad):
        for slot, x in entries:
            k, j = divmod(slot, n)
            ci[j].append((k, x))
    return cij


def _nonzeros(mats: list, size: int, offset: int, stride: int,
              factor: int) -> list[list[tuple[int, int]]]:
    """idx[slot] lists (offset + a*stride, factor * x) over the entries
    (slot, x) of mats[a], a ascending: the level's nonzeros regrouped by
    slot, with no zero read."""
    idx = [[] for _ in range(size)]
    for a, entries in enumerate(mats):
        col = offset + a * stride
        for slot, x in entries:
            idx[slot].append((col, factor * x))
    return idx


def _prolong_rows(K: int, levels: dict) -> list[dict]:
    """Sparse rows of the degree-K prolongation system, K >= 0.

    Columns: the D(K-1) x n block of f on v at a*n + i, then the
    D(K-2) x m block of f on z at p_cols + b*m + l. At K = 0 these are
    A[t][s] at t*n + s and B[k][l] at n*n + k*m + l, and the rows are
    B c(x,y) = c(Ax,y) + c(x,Ay): Der_gr(n). No row writes a column
    twice, so each entry is assigned, never accumulated.

    One rule writes every row: f([a, b]) = [f(a), b] - [f(b), a] for a
    in layer p and b in layer q of n (1 = v, 2 = z), over the layer pairs
    (v, v), (v, z) and (z, z), b > a within one layer, one row per basis
    element t of g_{K-p-q}; a pair is skipped where that level is absent
    or zero. [f(a), b] reads the index of level K-p acting on layer q,
    [f(b), a] that of level K-q on layer p (the same index when p = q),
    and f([a, b]) is nonzero on (v, v) alone. The level records from
    `_negative_levels` and `tanaka_prolong` hold the integers D_j T_j, so
    each index is scaled by the product of the D_j of the row's other
    levels, with the sign of its term folded in: -D_-1 on (v, v), whose
    bracket term is scaled by D_{K-1}, D_{K-q} and D_{K-p} on (v, z), and
    1 on (z, z). So every row is a positive integer multiple of the
    rational row, with the same nullspace. Empty rows are left out. Rows
    are filled by plain loops: on CPython 3.11 a comprehension is a
    function call, one per row.
    """
    ad, _, d_ad = levels[-1]  # ad[i] lists (k*n + j, D_{-1} c(x_i, x_j)_k)
    n, m = len(ad), len(levels[-2][0])
    p_cols = len(levels[K - 1][0]) * n
    size, offset = (None, n, m), (None, 0, p_cols)
    rows = []
    for p, q in ((1, 1), (1, 2), (2, 2)):
        low = len(levels[K - p - q][0]) if K - p - q in levels else 0
        if not low:
            continue
        d_p, d_q = levels[K - p][2], levels[K - q][2]
        factor = d_q if p != q else -d_ad if p == 1 else 1
        mine = _nonzeros(levels[K - p][q - 1], low * size[q], offset[p], size[p], factor)
        theirs = mine if p == q else _nonzeros(levels[K - q][p - 1], low * size[p],
                                               offset[q], size[q], d_p)
        brackets = _brackets(ad, n) if p == q == 1 else None
        for a in range(size[p]):
            for b in range(a + 1 if p == q else 0, size[q]):
                # f(c(a, b)) on the z block, at the columns of t = 0
                cab = [(p_cols + k, d_p * x) for k, x in brackets[a][b]] if brackets else ()
                for t in range(low):
                    row = {}
                    for k, x in cab:
                        row[k + t * m] = x
                    for col, x in mine[t * size[q] + b]:
                        row[col + a] = x
                    for col, x in theirs[t * size[p] + a]:
                        row[col + b] = -x
                    if row:  # empty where c(a, b) = 0 and the levels have no entry
                        rows.append(row)
    return rows


def _dense(mats: list, nrows: int, ncols: int, d: int) -> tuple:
    """The nrows x ncols matrices (slot, x) / d as a tuple of row lists of
    Fractions, zeros included."""
    zero = Fraction(0)
    out = []
    for entries in mats:
        mat = [[zero] * ncols for _ in range(nrows)]
        for slot, x in entries:
            r, c = divmod(slot, ncols)
            mat[r][c] = Fraction(x, d)
        out.append(tuple(mat))
    return tuple(out)


def _as_float(x):
    """x with every entry as a float, in the same nesting."""
    if isinstance(x, (tuple, list)):
        return type(x)(map(_as_float, x))
    return float(x)


def _is_square(mat, size: int) -> bool:
    return isinstance(mat, (tuple, list)) and len(mat) == size and all(
        isinstance(row, (tuple, list)) and len(row) == size for row in mat)


def _g0_pair(element, n: int, m: int) -> tuple[Matrix, Matrix]:
    """(A, B) of a supplied g0 element: an (A, B) pair, or an (A, B, None)
    triple as in `DerivationSpace.basis`, with A n x n and B m x m, every
    entry an int or a Fraction."""
    if (isinstance(element, (tuple, list)) and len(element) >= 2
            and tuple(element[2:]) in ((), (None,))
            and _is_square(element[0], n) and _is_square(element[1], m)
            and all(isinstance(x, (int, Fraction))
                    for mat in element[:2] for row in mat for x in row)):
        return element[0], element[1]
    raise StructureError(f"supplied g0 element must be (A, B) or (A, B, None) with "
                         f"A {n} x {n} and B {m} x {m} of ints or Fractions")


def tanaka_prolong(alg: GradedNilpotent,
                   max_degree: int = 3,
                   arithmetic: str = "exact",
                   budget: int | None = None,
                   supplied_g0: Sequence[tuple[Matrix, ...]] | None = None
                   ) -> ProlongationResult:
    """Degree-by-degree prolongation of (n, g0).

    g0 is degree 0, whose system counts against the budget like every
    other degree. With supplied_g0 None, g0 = Der_gr(n), the one solve per
    algebra object, read (or made) once degree 0 is charged. A non-empty
    supplied_g0 of (A, B) pairs or the (A, B, None) triples of
    `DerivationSpace.basis` is level 0 instead: an empty or malformed one
    is refused before anything else, and once degree 0 is charged its
    elements are rank-checked together to be linearly independent and then
    each checked to be a graded derivation against the integer degree-0
    rows; the solve starts at degree 1.

    The result keeps every level record, integers only. Both arithmetics
    run the same certified exact solve; "float64" only reports
    `ProlongationResult.bases` as floats of the canonical exact entries,
    in the same nesting.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if arithmetic not in ("exact", "float64"):
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    budget = linalg.resolve_budget(budget)
    t0 = time.perf_counter()
    n, m = alg.dim_v, alg.dim_z
    levels = dict(_negative_levels(alg))
    if supplied_g0 is not None:
        if not supplied_g0:
            raise ValueError("supplied_g0 must be None or a non-empty sequence")
        pairs = [_g0_pair(element, n, m) for element in supplied_g0]
        levels[0] = _level([_slots(a, n) for a, _ in pairs], [_slots(b, m) for _, b in pairs])

    completed = False
    for K in range(max_degree + 1):
        d4, d3, d_prev2, d_prev = (len(levels[j][0]) if j in levels else 0
                                   for j in range(K - 4, K))
        p_cols = d_prev * n
        ncols = p_cols + d_prev2 * m
        n_rows = (n * (n - 1) // 2) * d_prev2 + n * m * d3 + (m * (m - 1) // 2) * d4
        label = f"degree-{K} prolongation system" if K else "degree-0 derivation system"
        check_budget(n_rows, ncols, budget, label)
        if K == 0:  # a zero g0 does not end the loop
            if supplied_g0 is None:
                levels[0], _ = _der_gr(alg, label)
            else:
                # one coordinate of the k elements per row, {element: entry}: a
                # nonzero kernel is a linear relation, which would be a zero of
                # the evaluation map
                v0, z0, _ = levels[0]
                coords = _nonzeros(v0, n * n, 0, 1, 1) + _nonzeros(z0, m * m, 0, 1, 1)
                if nullspace(list(map(dict, coords)), len(v0), context="supplied g0").vectors:
                    raise StructureError("supplied g0 elements are linearly dependent")
                # each element D (A, B) on the degree-0 columns, A[t][s] at t*n + s
                # and B[k][l] at n*n + k*m + l, against the integer Der_gr rows
                vectors = [v + [(n * n + slot, x) for slot, x in z] for v, z in zip(v0, z0)]
                if not linalg._annihilates(_prolong_rows(0, levels), vectors):
                    raise StructureError("supplied g0 element is not a graded derivation")
            continue
        res = nullspace(_prolong_rows(K, levels), ncols, context=label)
        if not res.vectors:
            completed = True
            break
        levels[K] = _split(res, p_cols)

    positive = [levels[K] for K in sorted(levels) if K > 0]
    return ProlongationResult(
        algebra_name=alg.name,
        g0_dim=len(levels[0][0]),
        component_dims=tuple(len(v) for v, _, _ in positive),
        total_dim=sum(len(v) for v, _, _ in levels.values()),
        trivial=completed and not positive,
        completed=completed,
        arithmetic=arithmetic,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        budget=budget,
        levels=levels,
    )


@dataclass(frozen=True)
class SymmetryExcess:
    algebra_name: str
    total_dim: int
    g0_dim: int
    dim_n: int
    positive_mass: int       # total - g0 - dim n
    infinitesimal_excess: int  # total - g0

    @property
    def meets_divh_bound(self) -> bool:
        return self.infinitesimal_excess >= 2 * self.dim_n

    @property
    def is_rigid(self) -> bool:
        return self.infinitesimal_excess == self.dim_n


def symmetry_excess(alg: GradedNilpotent, result: ProlongationResult) -> SymmetryExcess:
    """Dimension bookkeeping of the prolongation vs. the base algebra."""
    dim_n = alg.dim_v + alg.dim_z
    return SymmetryExcess(
        algebra_name=alg.name,
        total_dim=result.total_dim,
        g0_dim=result.g0_dim,
        dim_n=dim_n,
        positive_mass=result.total_dim - result.g0_dim - dim_n,
        infinitesimal_excess=result.total_dim - result.g0_dim,
    )
