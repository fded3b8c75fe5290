"""Exact nullspace computation for sparse integer/rational systems.

Rank decisions downstream (derivation dimensions, prolongation components)
must be exact, so every returned basis is certified over Q. Every system
takes the same path:

1. Rows arrive sparse, as {column: value} mappings. Each is scaled once,
   over its nonzeros only, to a primitive integer row; a row that is
   already integral, as every row the prolongation assembler builds is,
   is only divided by its content, with no lcm of denominators. Zero rows
   and duplicate rows (equal up to sign) are dropped, since neither
   changes the nullspace.
2. The integer rows are row-reduced modulo a 31-bit prime by sparse
   Gauss-Jordan (`_rref_modp`, which streams the rows into fully reduced
   pivot rows held as dicts and stops once every column has a pivot; no
   dense matrix is built and no numpy is used), candidate basis vectors
   are lifted back to Q by rational reconstruction, and all lifted vectors
   are re-checked against the integer rows exactly with one sparse product
   A @ N in Python integers, so no overflow bound is needed. Since nullity
   over Q never exceeds nullity mod p, a verified set of nullity_p
   independent vectors certifies the dimension.
3. Any reconstruction/verification failure escalates: second prime, CRT
   combination of the first two, third prime, CRT of all three. Each
   failed prime combination is logged at INFO on the "htype.linalg"
   logger, as is each budget refusal.
4. Only when every prime combination fails does fraction-free integer
   Gauss-Jordan (`_int_rref`) decide, as the final authority; that
   fallback is logged too and labelled "fraction".

The basis returned is the canonical reduced-echelon nullspace basis (one
vector per free column, entry 1 there), so results are deterministic and
method-independent. `det_exact` and `inverse_exact` run on the integer
kernel `_int_rref` directly.
"""

from __future__ import annotations

import logging
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BudgetExceeded

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

# 31-bit primes: a product of two residues fits in 62 bits.
_PRIMES = (2147483647, 2147483629, 2147483587)

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
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"DIVH_BUDGET must be an integer, got {raw!r}") from None
    if budget <= 0:
        raise ValueError(f"DIVH_BUDGET must be a positive entry count, got {raw!r}")
    return budget


def check_budget(nrows: int, ncols: int, budget: int | None, context: str = "") -> None:
    if budget is not None and nrows * ncols > budget:
        _log.info("refused %s: %d entries requested, budget %d",
                  context, nrows * ncols, budget)
        raise BudgetExceeded(nrows * ncols, budget, context)


def _integerize(items: Iterable[tuple[int, Fraction | int]]) -> SparseInts:
    """Primitive integer multiple of a sparse rational row, zeros left out.

    A row whose values are all ints only loses its content; the lcm of
    denominators is taken only when some value is not an int.
    """
    nz = [(c, v) for c, v in items if v]
    if not nz:
        return []
    if all(type(v) is int for _, v in nz):
        ints = nz
    else:
        scale = math.lcm(*(v.denominator for _, v in nz))
        ints = [(c, v.numerator * (scale // v.denominator)) for c, v in nz]
    g = math.gcd(*(v for _, v in ints))
    if g > 1:
        ints = [(c, v // g) for c, v in ints]
    return ints


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


def _rref_modp(rows: Iterable[SparseInts], p: int,
               ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form mod p of sparse integer rows, one row at a time.

    The pivot rows found so far are kept fully reduced: 1 at their own
    pivot column, 0 at every other. So an incoming row is reduced by one
    pass over the pivot columns it holds, taken mod p once at the end; what
    is left is normalized at its leftmost nonzero, and the earlier pivot
    rows with a nonzero in that new pivot column are reduced by it. Over
    F_p the RREF is unique, so the order of the rows does not matter.
    Once all ncols columns hold a pivot the RREF is the identity, and the
    remaining rows are not read: rank mod p <= rank over Q, so nullity 0
    mod p certifies nullity 0. Returns the pivot rows as {column: residue}
    dicts, nonzeros only, sorted by pivot, and the pivots.
    """
    pivot_rows: dict[int, dict[int, int]] = {}  # pivot -> entries off the pivot
    for row in rows:
        vec = {c: y for c, v in row if (y := v % p)}
        for c in [c for c in vec if c in pivot_rows]:
            f = vec.pop(c)
            for j, x in pivot_rows[c].items():
                vec[j] = vec.get(j, 0) - f * x
        vec = {j: y for j, x in vec.items() if (y := x % p)}
        if not vec:
            continue
        pc = min(vec)
        inv = pow(vec.pop(pc), -1, p)
        vec = {j: x * inv % p for j, x in vec.items()}
        for prow in pivot_rows.values():
            f = prow.pop(pc, 0)
            if f:
                for j, x in vec.items():
                    y = (prow.get(j, 0) - f * x) % p
                    if y:
                        prow[j] = y
                    else:
                        del prow[j]
        pivot_rows[pc] = vec
        if len(pivot_rows) == ncols:
            break
    pivots = sorted(pivot_rows)
    return [{c: 1, **pivot_rows[c]} for c in pivots], pivots


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


def _annihilates(rows: list[SparseInts], vectors: list[SparseInts]) -> bool:
    """Exact test of A @ v == 0 for the integer rows A and every integer
    vector v, in Python ints.

    The vectors are indexed by column, so each row meets only the vectors
    that are nonzero on its own columns.
    """
    by_col: dict[int, list[tuple[int, int]]] = {}
    for k, vec in enumerate(vectors):
        for c, x in vec:
            by_col.setdefault(c, []).append((k, x))
    for row in rows:
        acc: dict[int, int] = {}
        for c, a in row:
            for k, x in by_col.get(c, ()):
                acc[k] = acc.get(k, 0) + a * x
        if any(acc.values()):
            return False
    return True


def _lift(infos, primes: tuple[int, ...], pivots: list[int],
          free: list[int]) -> list[dict[int, Fraction]] | None:
    """Candidate basis vectors over Q from the RREF mod each prime, sparse.

    Candidate f has 1 at free column f and -rref[r][f] at each pivot pivots[r];
    the pivot rows hold nonzeros only, so only their free entries are read.
    """
    modulus = math.prod(primes)
    candidates = {f: {f: Fraction(1)} for f in free}
    for r, pc in enumerate(pivots):
        rows = [info[0][r] for info in infos]
        for f in set().union(*rows) - {pc}:
            res = [row.get(f, 0) for row in rows]
            a = res[0] if len(primes) == 1 else _crt(res, primes)
            val = _rat_reconstruct((-a) % modulus, modulus)
            if val is None:
                return None
            candidates[f][pc] = val
    return list(candidates.values())


def _nullspace_modp(rows: list[SparseInts], ncols: int,
                    context: str = "") -> NullspaceResult | None:
    attempts: list[tuple[int, ...]] = [(_PRIMES[0],), (_PRIMES[1],),
                                       (_PRIMES[0], _PRIMES[1]), (_PRIMES[2],),
                                       _PRIMES]
    rref_cache: dict[int, tuple[list[dict[int, int]], list[int]]] = {}
    for primes in attempts:
        infos = []
        for p in primes:
            if p not in rref_cache:
                rref_cache[p] = _rref_modp(rows, p, ncols)
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
        if candidates and not _annihilates(
                rows, [_integerize(sorted(vec.items())) for vec in candidates]):
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


def nullspace(rows: Iterable[Mapping[int, Fraction]], ncols: int,
              context: str = "") -> NullspaceResult:
    """Certified exact nullspace of the system rows . v = 0.

    Rows are sparse mappings {column: value} of ints or rationals; zero
    rows are dropped. The context names the system in the escalation log.
    """
    int_rows = [r for r in (_integerize(sorted(row.items())) for row in rows) if r]
    int_rows = _distinct(int_rows)
    result = _nullspace_modp(int_rows, ncols, context)
    if result is not None:
        return result
    _log.info("nullspace %s: every prime combination failed; "
              "falling back to integer Gauss-Jordan", context)
    return _nullspace_fraction(int_rows, ncols)
