"""Exact nullspace computation for sparse integer/rational systems.

Rank decisions downstream (derivation dimensions, prolongation components)
must be exact, so every returned basis is certified over Q:

1. Rows arrive sparse ({column: value}) or dense. Each is scaled once, over
   its nonzeros only, to a primitive integer row; zero rows and duplicate
   rows (equal up to sign) are dropped, since neither changes the nullspace.
2. Small systems go straight to fraction-free integer Gauss-Jordan
   (`_int_rref`, which keeps every row primitive). Whether a system is
   small, and the budget check, use the row count before deduplication.
3. Large systems are row-reduced modulo a 31-bit prime in int64 numpy
   (imported on this path only, so small exact work never loads numpy),
   candidate basis vectors are lifted back to Q by rational reconstruction,
   and all lifted vectors are re-checked against the integer matrix exactly
   with one product A @ N. The product runs in int64 when
   max|A| * max|N| * ncols < 2**62 bounds every partial sum, and in Python
   integers otherwise. Since nullity over Q never exceeds nullity mod p, a
   verified set of nullity_p independent vectors certifies the dimension.
4. Any reconstruction/verification failure escalates: second prime, CRT
   combination, then fraction-free integer Gauss-Jordan as the final
   authority. Each failed prime combination and each such fallback is
   logged at INFO on the "htype.linalg" logger, as is each budget refusal.

The basis returned is the canonical reduced-echelon nullspace basis (one
vector per free column, entry 1 there), so results are deterministic and
method-independent. `det_exact` and `inverse_exact` run on the same
integer kernel. The method label "fraction" names this exact-elimination
path.
"""

from __future__ import annotations

import logging
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import BudgetExceeded

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NullspaceResult",
    "nullspace",
    "DEFAULT_BUDGET",
    "default_budget",
    "check_budget",
    "integerize_row",
    "det_exact",
    "inverse_exact",
]

_log = logging.getLogger("htype.linalg")

# 31-bit primes: products stay inside int64 during elimination.
_PRIMES = (2147483647, 2147483629, 2147483587)

# Below this entry count integer Gauss-Jordan is fast enough.
_FRACTION_CUTOFF = 20000

Row = Union[Mapping[int, Fraction], Sequence[Fraction]]
SparseInts = list[tuple[int, int]]  # (column, value), columns ascending


@dataclass(frozen=True)
class NullspaceResult:
    dimension: int
    basis: tuple[tuple[Fraction, ...], ...]
    method: str  # "fraction" | "modp" | "modp-crt"


DEFAULT_BUDGET = 200_000


def default_budget() -> int:
    """Entry cap per assembled system; DIVH_BUDGET overrides."""
    raw = os.environ.get("DIVH_BUDGET")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"DIVH_BUDGET must be an integer, got {raw!r}") from None
    return DEFAULT_BUDGET


def check_budget(nrows: int, ncols: int, budget: int | None, context: str = "") -> None:
    if budget is not None and nrows * ncols > budget:
        _log.info("refused %s: %d entries requested, budget %d",
                  context, nrows * ncols, budget)
        raise BudgetExceeded(nrows * ncols, budget, context)


def _integerize(items: Iterable[tuple[int, Fraction]]) -> SparseInts:
    """Primitive integer multiple of a sparse rational row, zeros left out."""
    nz = [(c, v) for c, v in items if v]
    if not nz:
        return []
    scale = math.lcm(*(v.denominator for _, v in nz))
    ints = [(c, v.numerator * (scale // v.denominator)) for c, v in nz]
    g = math.gcd(*(v for _, v in ints))
    if g > 1:
        ints = [(c, v // g) for c, v in ints]
    return ints


def _sparse_items(row: Row) -> Iterable[tuple[int, Fraction]]:
    if isinstance(row, Mapping):
        return sorted(row.items())
    return enumerate(row)


def integerize_row(row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row to a primitive integer row."""
    out = [0] * len(row)
    for c, v in _integerize(enumerate(row)):
        out[c] = v
    return out


def _distinct(rows: list[SparseInts]) -> list[SparseInts]:
    """Drop rows equal to an earlier one up to sign, keeping first order."""
    keyed = {}
    for row in rows:
        if row[0][1] < 0:
            row = [(c, -v) for c, v in row]
        keyed.setdefault(tuple(row), row)
    return list(keyed.values())


def _int_rref(rows: list[list[int]],
              ncols: int) -> tuple[list[list[int]], list[int], list[tuple[int, int]]]:
    """Fraction-free Gauss-Jordan on Python-int rows (Bareiss 1968, row-primitive).

    The pivot p of column c is the first nonzero entry at or below the next
    pivot row. Every other row with f = row[c] != 0 becomes
    (p*row - f*pivot_row) / g, g the content of the result, so touched rows
    stay primitive; rows with a zero in column c are left alone. Row k of
    the result is a multiple of the canonical reduced row, whose entries are
    rows[k][j] / rows[k][pivots[k]]. factors logs (-1, 1) per swap and (g, p)
    per row update, so a square nonsingular input has determinant
    prod(rows[k][k]) * prod(g) / prod(p). Only the log is kept, since
    multiplying it out is costly when entries are large and only
    `det_exact` needs it.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    factors: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
            factors.append((-1, 1))
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                new = [p * a - f * b for a, b in zip(row, prow)]
                g = math.gcd(*new) or 1
                if g != 1:
                    new = [a // g for a in new]
                mat[i] = new
                factors.append((g, p))
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots, factors


def _common_denominator(mat: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer matrix D*M and D, the lcm of the entries' denominators."""
    fracs = [[Fraction(x) for x in row] for row in mat]
    d = math.lcm(*(x.denominator for row in fracs for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in fracs], d


def det_exact(mat: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix by integer elimination."""
    n = len(mat)
    ints, d = _common_denominator(mat)
    rref, pivots, factors = _int_rref(ints, n)
    if len(pivots) < n:
        return Fraction(0)
    num = math.prod(g for g, _ in factors) * math.prod(rref[k][k] for k in range(n))
    return Fraction(num, math.prod(p for _, p in factors) * d**n)


def inverse_exact(mat: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse of an invertible rational matrix: Gauss-Jordan on [D*M | I]."""
    n = len(mat)
    ints, d = _common_denominator(mat)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(ints)]
    rref, pivots, _ = _int_rref(aug, 2 * n)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    # (D*M)^{-1} row k is rref[k][n:] / rref[k][k], and M^{-1} = D (D*M)^{-1}
    return [[Fraction(d * x, row[k]) for x in row[n:]] for k, row in enumerate(rref)]


def _nullspace_fraction(int_rows: list[SparseInts], ncols: int) -> NullspaceResult:
    dense_rows = [[row.get(c, 0) for c in range(ncols)] for row in map(dict, int_rows)]
    rref, pivots, _ = _int_rref(dense_rows, ncols)
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(rref, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return NullspaceResult(len(basis), tuple(basis), "fraction")


def _rref_modp(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    import numpy as np

    m = mat.copy()
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = (m[hit] - np.outer(col[hit], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _rat_reconstruct(a: int, modulus: int) -> Fraction | None:
    """Wang's algorithm: the unique n/d with |n|, d <= sqrt(modulus/2)."""
    bound = math.isqrt(modulus // 2)
    a %= modulus
    r0, r1 = modulus, a
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if math.gcd(r1, abs(t1)) != 1:
        return None
    n, d = (r1, t1) if t1 > 0 else (-r1, -t1)
    return Fraction(n, d)


def _crt(residues: list[int], primes: Sequence[int]) -> int:
    x, m = residues[0], primes[0]
    for r, p in zip(residues[1:], primes[1:]):
        h = ((r - x) * pow(m, -1, p)) % p
        x += m * h
        m *= p
    return x % m


class _IntSystem:
    """Primitive integer rows A, with the dense int64 forms built once."""

    def __init__(self, rows: list[SparseInts], ncols: int):
        self.rows = rows
        self.ncols = ncols
        self.row_idx = [i for i, row in enumerate(rows) for _ in row]
        self.col_idx = [c for row in rows for c, _ in row]
        self.values = [v for row in rows for _, v in row]
        self.max_a = max(map(abs, self.values))
        self._dense: np.ndarray | None = None

    def _scatter(self, values) -> np.ndarray:
        import numpy as np

        mat = np.zeros((len(self.rows), self.ncols), dtype=np.int64)
        mat[self.row_idx, self.col_idx] = values
        return mat

    def dense(self) -> np.ndarray:
        """A itself in int64; callers ensure max|A| < 2**62."""
        if self._dense is None:
            self._dense = self._scatter(self.values)
        return self._dense

    def reduced(self, p: int) -> np.ndarray:
        if self.max_a < p:
            return self.dense() % p
        return self._scatter([v % p for v in self.values])

    def annihilates(self, vectors: list[SparseInts]) -> bool:
        """Exact test of A @ v == 0 for every integer vector v."""
        import numpy as np

        max_v = max(abs(x) for vec in vectors for _, x in vec)
        if self.max_a * max_v * self.ncols < 2**62:
            n = np.zeros((self.ncols, len(vectors)), dtype=np.int64)
            for k, vec in enumerate(vectors):
                for c, x in vec:
                    n[c, k] = x
            return not np.any(self.dense() @ n)
        for vec in vectors:
            dense = dict(vec)
            for row in self.rows:
                if sum(a * dense.get(c, 0) for c, a in row):
                    return False
        return True


def _lift(infos, primes: tuple[int, ...], pivots: list[int],
          free: list[int]) -> list[dict[int, Fraction]] | None:
    """Candidate basis vectors over Q from the RREF mod each prime, sparse."""
    modulus = math.prod(primes)
    # residues[i][k][r]: entry of pivot row r in free column free[k] mod primes[i]
    residues = [info[0][:, free].T.tolist() for info in infos]
    candidates = []
    for k, f in enumerate(free):
        vec = {f: Fraction(1)}
        for r, pc in enumerate(pivots):
            res = [per_prime[k][r] for per_prime in residues]
            a = res[0] if len(primes) == 1 else _crt(res, primes)
            if a == 0:
                continue
            val = _rat_reconstruct((-a) % modulus, modulus)
            if val is None:
                return None
            vec[pc] = val
        candidates.append(vec)
    return candidates


def _nullspace_modp(system: _IntSystem, context: str = "") -> NullspaceResult | None:
    ncols = system.ncols
    attempts: list[tuple[int, ...]] = [(_PRIMES[0],), (_PRIMES[1],),
                                       (_PRIMES[0], _PRIMES[1]), (_PRIMES[2],),
                                       _PRIMES]
    rref_cache: dict[int, tuple[np.ndarray, list[int]]] = {}
    for primes in attempts:
        infos = []
        for p in primes:
            if p not in rref_cache:
                rref_cache[p] = _rref_modp(system.reduced(p), p)
            infos.append(rref_cache[p])
        pivots = infos[0][1]
        if any(info[1] != pivots for info in infos[1:]):
            _log.info("nullspace %s: primes %s disagree on the pivots", context, primes)
            continue
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        candidates = _lift(infos, primes, pivots, free)
        if candidates is None:
            _log.info("nullspace %s: rational reconstruction failed mod %s",
                      context, primes)
            continue
        if candidates and not system.annihilates(
                [_integerize(sorted(vec.items())) for vec in candidates]):
            _log.info("nullspace %s: reconstruction mod %s fails exact verification",
                      context, primes)
            continue
        zero = Fraction(0)
        basis = []
        for vec in candidates:
            dense = [zero] * ncols
            for c, x in vec.items():
                dense[c] = x
            basis.append(tuple(dense))
        method = "modp" if len(primes) == 1 else "modp-crt"
        return NullspaceResult(len(basis), tuple(basis), method)
    return None


def nullspace(rows: Iterable[Row], ncols: int,
              budget: int | None = None, context: str = "") -> NullspaceResult:
    """Certified exact nullspace of the system rows . v = 0.

    Rows are sparse mappings {column: value} or dense sequences of
    rationals; zero rows are dropped. The budget, if given, caps
    nrows*ncols before any heavy work happens.
    """
    int_rows = [r for r in (_integerize(_sparse_items(row)) for row in rows) if r]
    check_budget(len(int_rows), ncols, budget, context)
    small = len(int_rows) * ncols <= _FRACTION_CUTOFF
    int_rows = _distinct(int_rows)
    if small or not int_rows:
        return _nullspace_fraction(int_rows, ncols)
    result = _nullspace_modp(_IntSystem(int_rows, ncols), context)
    if result is not None:
        return result
    _log.info("nullspace %s: every prime combination failed; "
              "falling back to integer Gauss-Jordan", context)
    return _nullspace_fraction(int_rows, ncols)

