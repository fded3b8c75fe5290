"""Derivation algebras and Tanaka prolongations as exact nullspaces.

The prolongation g_K (K >= 0) consists of degree-K maps f sending v ->
g_{K-1} and z -> g_{K-2} subject to f([u,w]) = [f(u),w] + [u,f(w)] for
all u, w in n, where bracketing an element of degree >= 0 against n
means applying the map. One assembler builds the system of every degree
from the level data below it. At K = 0 the maps are pairs (A, B) with
B[x,y] = [Ax,y] + [x,Ay], so g_0 = Der_gr(n), the graded derivations;
full derivations add C: v -> z (always unconstrained) and a z -> v block
E, which vanishes on [v, v] and maps into rad v = {w : [v, w] = 0}, so
Der = Der_gr + Hom(v, z) + Hom(z / [v, v], rad v).

Each degree is one nullspace; iteration stops at the first zero positive
component (transitivity kills everything above) or at max_degree. The
per-degree system size is capped by a configurable, positive entry
budget so an oversized system is refused loudly rather than solved slowly.

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
and scaled to D_j, the lcm of their d. A supplied g0 is read off its
rational matrices (`_level`). The assembler regroups each record's
entries by slot once per system; every row is a positive integer multiple
of the rational row, so `nullspace` receives integral rows. Fraction
vectors are built only where a caller reads them: stored bases (the
canonical vectors, densified on output) and the derivation spaces.
Arithmetic "float64" runs the same certified solve and reports the stored
bases as floats.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import StructureError
from .linalg import DEFAULT_BUDGET, check_budget, default_budget, nullspace
from .nilpotent import GradedNilpotent

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
    algebra: GradedNilpotent
    graded_only: bool
    basis: tuple[tuple[Matrix, Matrix, Matrix | None], ...]  # (A, B, C)
    dimension: int
    method: str
    offgrade_dimension: int = 0  # z->v solutions (degenerate algebras only)


@dataclass(frozen=True)
class ProlongationResult:
    algebra_name: str
    g0_dim: int
    component_dims: tuple[int, ...]  # positive-degree dims, zero excluded
    total_dim: int
    trivial: bool
    completed: bool  # a zero component was reached
    arithmetic: str
    elapsed_ms: int
    budget: int
    bases: tuple | None = None

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


def _unflatten(vec: Sequence, shapes: list[tuple[int, int]]):
    """Split a flat vector into row-major matrices of the given shapes,
    each row one slice of vec (a tuple of the same entries); entries past
    the last shape are not read."""
    out = []
    pos = 0
    for rows, cols in shapes:
        out.append(tuple(tuple(vec[pos + r * cols:pos + (r + 1) * cols])
                         for r in range(rows)))
        pos += rows * cols
    return out


def graded_derivations(alg: GradedNilpotent) -> DerivationSpace:
    """All (A, B) with B[x,y] = [Ax,y] + [x,Ay], as a certified basis."""
    n, m = alg.dim_v, alg.dim_z
    res = nullspace(_prolong_rows(0, _negative_levels(alg)), n * n + m * m,
                    context=f"graded derivation system of {alg.name}")
    basis = []
    for vec in res.basis:
        a, b = _unflatten(vec, [(n, n), (m, m)])
        basis.append((a, b, None))
    return DerivationSpace(alg, True, tuple(basis), res.dimension, res.method)


def full_derivations(alg: GradedNilpotent) -> DerivationSpace:
    """Derivations without the grading restriction.

    Unknown blocks: A: v->v, B: z->z, C: v->z (never constrained in a
    2-step algebra), E: z->v. The equations are the graded ones plus
    [x, Ez] = 0 and E[x, y] = 0, so E is a map z / [v, v] -> rad v: E-solutions
    exist only when the skew forms share a kernel vector and the brackets do
    not span z. Basis entries are (A, B, C) for the E = 0 vectors;
    offgrade_dimension counts the rest, read off the sparse integer vectors
    of the solve: a vector is off-grade when it holds a column of the E
    block, the last block. The E rows read the same integer tensor
    ad = D c as the graded rows, so every row is integral.
    """
    n, m = alg.dim_v, alg.dim_z
    ncols = n * n + m * m + m * n + n * m
    c_off = n * n + m * m
    e_off = c_off + m * n
    levels = _negative_levels(alg)
    rows = _prolong_rows(0, levels)
    brackets = _brackets(levels[-1][0], n)  # brackets[s][t]: (k, D c(x_s, x_t)_k)
    for cs in brackets:
        by_k = [[] for _ in range(m)]
        for t, cst in enumerate(cs):
            for kp, x in cst:
                by_k[kp].append((t, x))
        for k in range(m):
            for kp in range(m):
                row = {e_off + t * m + k: x for t, x in by_k[kp]}
                if row:
                    rows.append(row)
    for i in range(n):  # E[x_i, x_j] = 0, one row per v-coordinate t
        for j in range(i + 1, n):
            if cij := brackets[i][j]:
                rows.extend({e_off + t * m + k: x for k, x in cij} for t in range(n))
    res = nullspace(rows, ncols, context=f"full derivation system of {alg.name}")
    basis = []
    offgrade = 0
    for (_, entries), vec in zip(res.vectors, res.basis):
        if entries[-1][0] >= e_off:  # columns ascend, so the last is the largest
            offgrade += 1
        else:
            basis.append(tuple(_unflatten(vec, [(n, n), (m, m), (m, n)])))
    return DerivationSpace(alg, False, tuple(basis), res.dimension, res.method,
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


def _slots(mat, ncols: int) -> list:
    """The nonzeros (r*ncols + c, x) of a matrix with rows of length ncols."""
    return [(r * ncols + c, x) for r, row in enumerate(mat) for c, x in enumerate(row) if x]


def _negative_levels(alg: GradedNilpotent) -> dict[int, tuple[list, list, int]]:
    """The level records of n itself, from which every degree's system is
    built, read off the algebra's view `nonzeros`: g_-2 = z, whose m
    elements have matrices with no rows and so no entries, and g_-1 = v,
    where x_i is ad x_i: v -> z, entry [s][t] = c(x_i, x_t)_s at slot
    s*n + t, and x_i kills z, so its z-matrix has no entries either.
    """
    n, m = alg.dim_v, alg.dim_z
    ad = [[] for _ in range(n)]
    for i, t, s, x in alg.nonzeros:
        ad[i].append((s * n + t, x))
    return {-2: ([[]] * m, [[]] * m, 1), -1: _level(ad, [[]] * n)}


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

    The level records come from `_negative_levels` and `tanaka_prolong`:
    the nonzeros of the integers D_j T_j. Each family of rows reads one
    index per level tensor it uses, built once per system and negated in
    the row loop where the equation subtracts, and a row that mixes two
    levels is multiplied by the product of their D_j: v-v rows mix levels
    -1 and K-1, v-z rows K-1 and K-2, and z-z rows use level K-2 alone. So
    every row is a positive integer multiple of the rational row, with the
    same nullspace. Empty rows are left out. Rows are filled by plain loops:
    on CPython 3.11 a comprehension is a function call, one per row.
    """
    ad, _, s_ad = levels[-1]  # ad[i] lists (k*n + j, D_{-1} c(x_i, x_j)_k)
    v_prev, z_prev, s_prev = levels[K - 1]
    v_prev2, z_prev2, s_prev2 = levels[K - 2]
    n, m, d_prev2 = len(ad), len(levels[-2][0]), len(v_prev2)
    d4, d3 = (len(levels[j][0]) if j in levels else 0 for j in (K - 4, K - 3))
    p_cols = len(v_prev) * n
    rows = []
    # f([x_i, x_j]) = [f(x_i), x_j] + [x_i, f(x_j)], values in g_{K-2}
    idx = _nonzeros(v_prev, d_prev2 * n, 0, n, s_ad)
    brackets = _brackets(ad, n)
    for i in range(n):
        for j in range(i + 1, n):
            cij = brackets[i][j]
            if s_prev != 1:
                cij = [(k, s_prev * x) for k, x in cij]
            for r in range(d_prev2):
                z0, rn = p_cols + r * m, r * n
                row = {}
                for k, x in cij:
                    row[z0 + k] = x
                for col, x in idx[rn + j]:
                    row[col + i] = -x
                for col, x in idx[rn + i]:
                    row[col + j] = x
                if row:  # empty where c(x_i, x_j) = 0 and the level has no entry
                    rows.append(row)
    # 0 = [f(x_i), z_l] + [x_i, f(z_l)], values in g_{K-3}
    if d3:
        f_z = _nonzeros(z_prev, d3 * m, 0, n, s_prev2)
        f_v = _nonzeros(v_prev2, d3 * n, p_cols, m, s_prev)
        for i in range(n):
            for l in range(m):
                for s in range(d3):
                    row = {}
                    for col, x in f_z[s * m + l]:
                        row[col + i] = x
                    for col, x in f_v[s * n + i]:
                        row[col + l] = -x
                    if row:
                        rows.append(row)
    # 0 = [f(z_l), z_l'] + [z_l, f(z_l')], values in g_{K-4}
    if d4:
        idx = _nonzeros(z_prev2, d4 * m, p_cols, m, 1)
        for l in range(m):
            for lp in range(l + 1, m):
                for u_ in range(d4):
                    row = {}
                    for col, x in idx[u_ * m + lp]:
                        row[col + l] = x
                    for col, x in idx[u_ * m + l]:
                        row[col + lp] = -x
                    if row:
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
                   supplied_g0: Sequence[tuple[Matrix, ...]] | None = None,
                   store_bases: bool = False) -> ProlongationResult:
    """Degree-by-degree prolongation of (n, g0).

    With supplied_g0 None, g0 = Der_gr(n) is solved as degree 0, whose
    system counts against the budget like every other degree. A non-empty
    supplied_g0 of (A, B) pairs or the (A, B, None) triples of
    `DerivationSpace.basis`, each re-verified to be a graded derivation
    and all together rank-checked to be linearly independent, is level 0
    instead, and the solve starts at degree 1; an empty one is refused.

    Both arithmetics run the same certified exact solve; "float64" only
    reports the stored bases (store_bases=True) as floats of the canonical
    exact entries, in the same nesting.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if arithmetic not in ("exact", "float64"):
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    if budget is None:
        budget = default_budget()
    elif budget <= 0:
        raise ValueError(f"budget must be a positive entry count, got {budget}")
    t0 = time.perf_counter()
    n, m = alg.dim_v, alg.dim_z
    levels = _negative_levels(alg)
    first = 0  # g0 = Der_gr(n) is the degree-0 prolongation
    if supplied_g0 is not None:
        if not supplied_g0:
            raise ValueError("supplied_g0 must be None or a non-empty sequence")
        pairs = [_g0_pair(element, n, m) for element in supplied_g0]
        for a, b in pairs:
            if not verify_graded_derivation(alg, a, b):
                raise StructureError("supplied g0 element is not a graded derivation")
        levels[0] = _level([_slots(a, n) for a, _ in pairs], [_slots(b, m) for _, b in pairs])
        # one coordinate of the k elements per row, {element: entry}: a
        # nonzero kernel is a linear relation, which would be a zero of the
        # evaluation map
        v0, z0, _ = levels[0]
        coords = _nonzeros(v0, n * n, 0, 1, 1) + _nonzeros(z0, m * m, 0, 1, 1)
        if nullspace(list(map(dict, coords)), len(v0), context="supplied g0").vectors:
            raise StructureError("supplied g0 elements are linearly dependent")
        first = 1

    completed = False
    for K in range(first, max_degree + 1):
        d4, d3, d_prev2, d_prev = (len(levels[j][0]) if j in levels else 0
                                   for j in range(K - 4, K))
        p_cols = d_prev * n
        ncols = p_cols + d_prev2 * m
        n_rows = (n * (n - 1) // 2) * d_prev2 + n * m * d3 + (m * (m - 1) // 2) * d4
        label = f"degree-{K} prolongation system" if K else "degree-0 derivation system"
        check_budget(n_rows, ncols, budget, label)
        res = nullspace(_prolong_rows(K, levels), ncols, context=label)
        if K and not res.vectors:  # a zero g0 does not end the loop
            completed = True
            break
        # the new basis vectors are the evaluation tensors of level K: the
        # nonzeros of D_K T_K are the verified integer vectors (d, d v)
        # scaled to D_K, the lcm of their d, so no Fraction and no zero is
        # built; column a*n + i is slot a*n + i of the map on v, column
        # p_cols + b*m + l slot b*m + l of the map on z
        d = math.lcm(*(dk for dk, _ in res.vectors))
        v_k, z_k = [], []
        for dk, vec in res.vectors:
            s = d // dk
            split = bisect_left(vec, (p_cols,))
            v_k.append(vec[:split] if s == 1 else [(c, x * s) for c, x in vec[:split]])
            z_k.append([(c - p_cols, x * s) for c, x in vec[split:]])
        levels[K] = (v_k, z_k, d)

    positive = [levels[K] for K in sorted(levels) if K > 0]
    bases = None
    if store_bases:  # the canonical basis T_K = (D_K T_K) / D_K, densified here
        dims = {K: len(v) for K, (v, _, _) in levels.items()}
        bases = tuple((_dense(v, dims[K - 1], n, d), _dense(z, dims[K - 2], m, d))
                      for K, (v, z, d) in sorted(levels.items()) if K > 0)
        if arithmetic == "float64":
            bases = _as_float(bases)
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
        bases=bases,
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
