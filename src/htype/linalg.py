"""Exact nullspace computation for sparse integer/rational systems.

Rank decisions downstream (derivation dimensions, prolongation components)
must be exact, so every returned basis is certified over Q. Every system
takes the same path:

1. Rows arrive sparse, as {column: value} mappings of ints or Fractions,
   from any iterable: one that can be read again (a list, or a `Rows`
   system that builds its rows afresh at each pass) is read once per pass,
   and a one-shot iterator is read once, into a list. No pass copies or
   sorts the whole system: the caller's order is the kernel's. Each pass
   validates the rows as it reads them, a chunk of `_CHUNK` at a time, by
   C-level passes (`filter`, `set().union`, `chain`) that drop empty rows,
   refuse any other row that is not a mapping, check the columns to be
   ints in [0, ncols) and collect one set of value types, refusing any
   value that is not an int or a Fraction. Rows of ints are read in
   place: the callers' mappings go on as they are, with no copy or
   scaling, and duplicate or zero rows clear to zero in step 2. Only a
   chunk that holds a Fraction has its rows scaled to primitive integer
   rows over their nonzeros. A row after the one that completes the rank
   is never read, so it is neither validated nor built.
2. The integer rows are row-reduced modulo a 31-bit prime by a streaming
   sparse Gauss-Jordan (`_rref_modp`: dict rows, no dense matrix, no
   numpy). Each row is read once and never copied: its working vector is
   built from its entries, a multiple of the pivot row standing in for
   each entry at a pivot column, and is reduced mod p once. A column
   index sends each new pivot only to the pivot rows that hold its
   column. A row whose columns are all unit pivots (pivot rows with no
   other entry) clears to exactly zero, so it is skipped unread; the pass
   keeps every other row it reads, and only those. The candidate basis is
   lifted to Q by rational reconstruction into integer pairs (numerator,
   denominator), and from those into integer vectors (a denominator D and
   the sparse integers D v), with no Fraction built. Every one is
   re-checked against the integer rows with one exact sparse product in
   Python ints (`_annihilates`); a row that holds no column where a
   candidate is nonzero has product exactly 0 with each, so it passes
   unread. When the image is one prime's RREF, the verifier reads the rows
   that prime's pass kept: a skipped row holds only unit pivots of that
   RREF, where every canonical candidate is exactly 0, so its product with
   each is exactly 0 over Q. A CRT image (step 3) is verified on a fresh
   pass of every row. Since nullity over Q never exceeds nullity mod p,
   nullity_p verified independent vectors certify the dimension.
3. A failed prime escalates to the next 31-bit prime, largest first
   (`_primes`). Over F_p the pivots are the greedy column basis, so an
   unlucky prime has lower rank or, at equal rank, lexicographically later
   pivots: a worse prime is skipped, a better one restarts the image, an
   equal one is folded into the CRT image (Garner), which is lifted and
   verified again. Each rejected prime is logged at INFO on the
   "htype.linalg" logger, as is each budget refusal.
4. Every canonical basis entry is a quotient of two minors, each at most
   the Hadamard bound H (the product of the ncols largest row norms, read
   on a fresh pass), so it reconstructs once the modulus passes 2 H^2;
   every unlucky prime
   divides one nonzero minor, also at most H. So after
   ceil((2 bits(H) + 1) / 30) + floor(bits(H) / 30) primes `nullspace`
   raises: it never returns an uncertified basis.

The basis returned is the canonical reduced-echelon nullspace basis (one
vector per free column, entry 1 there), so results are deterministic. It
is kept as the verified integer vectors; the dense Fraction tuples are
built only when `NullspaceResult.basis` is read.
`det_exact` runs on the same kernel: the rows of D*M are fed in their
given order, det(D*M) mod p is the signed product of the entries
normalized at the pivots, and the residues are folded by CRT until the
modulus passes twice the Hadamard bound.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from typing import Callable, Collection, Iterable, Sequence

from .errors import BudgetExceeded

__all__ = [
    "NullspaceResult",
    "nullspace",
    "DEFAULT_BUDGET",
    "default_budget",
    "check_budget",
    "resolve_budget",
    "integerize_row",
    "det_exact",
    "det_integer",
]


def _log(msg: str, *args) -> None:
    """INFO on the "htype.linalg" logger. logging is imported only when a
    record is written, so a run that writes none never loads it."""
    import logging

    # stacklevel: the record names the caller, as a module logger would
    logging.getLogger("htype.linalg").info(msg, *args, stacklevel=2)


SparseInts = Collection[tuple[int, int]]  # (column, value) pairs, ascending in a vector
_CHUNK = 256  # rows validated at a time: bounds the intake's copies, not results


class Rows:
    """A system that can be read again: each iteration is a fresh pass,
    `make()`, so a pass holds no row its reader does not keep. `len` counts
    the rows of a pass of its own (so `list()`, which asks the length
    first, makes two passes)."""

    def __init__(self, make: Callable[[], Iterable[Mapping]]):
        self.make = make

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self.make())

    def __len__(self) -> int:
        return sum(1 for _ in self.make())


@dataclass(frozen=True)
class NullspaceResult:
    # one (D, D v) per canonical basis vector v, free columns ascending: D is
    # the lcm of v's denominators, so D v is a primitive integer vector that
    # holds D at v's free column; these are the integers verified exactly
    vectors: tuple[tuple[int, SparseInts], ...]
    ncols: int
    method: str  # "modp" (the first prime) | "modp-crt" (more primes)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The canonical basis as dense Fraction tuples, built on each read."""
        zero = Fraction(0)
        out = []
        for d, vec in self.vectors:
            dense = [zero] * self.ncols
            for c, x in vec:
                dense[c] = Fraction(x, d)
            out.append(tuple(dense))
        return tuple(out)


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


def resolve_budget(budget: int | None) -> int:
    """A run's entry budget: `default_budget()` when None, else budget,
    which must be positive."""
    if budget is None:
        return default_budget()
    if budget <= 0:
        raise ValueError(f"budget must be a positive entry count, got {budget}")
    return budget


def check_budget(nrows: int, ncols: int, budget: int | None, context: str = "") -> None:
    """BudgetExceeded when nrows * ncols entries exceed the budget, read by
    `resolve_budget`: None is the default."""
    budget = resolve_budget(budget)
    if nrows * ncols > budget:
        _log("refused %s: %d entries requested, budget %d", context, nrows * ncols, budget)
        raise BudgetExceeded(nrows * ncols, budget, context)


def _integerize(items: Iterable[tuple[int, Fraction | int]]) -> dict[int, int]:
    """Primitive integer multiple of a sparse rational row, zeros left out."""
    nz = [(c, v) for c, v in items if v]
    if bad := [v for _, v in nz if not isinstance(v, (int, Fraction))]:
        raise TypeError(f"row values must be ints or Fractions, not {type(bad[0]).__name__}")
    scale = math.lcm(*(v.denominator for _, v in nz))
    ints = [(c, v.numerator * (scale // v.denominator)) for c, v in nz]
    g = math.gcd(*(v for _, v in ints))
    if g > 1:
        ints = [(c, v // g) for c, v in ints]
    return dict(ints)


def integerize_row(row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row to a primitive integer row."""
    out = [0] * len(row)
    for c, v in _integerize(enumerate(row)).items():
        out[c] = v
    return out


def _rref_modp(rows: Iterable[Mapping[int, int]], p: int, ncols: int,
               leads: list[tuple[int, int]] | None = None,
               kept: list[Mapping[int, int]] | None = None,
               ) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form mod p of sparse integer rows, one row at a time.

    The pivot rows found so far are kept fully reduced: 1 at their own
    pivot column, 0 at every other. An incoming row is read once and not
    copied: its working vector is built from its entries, each entry at a
    pivot column replaced by that multiple of the pivot row (no pivot row
    touches another pivot column, so no pivot column enters the vector);
    only then is every entry taken mod p, once, so an entry or a factor
    that is 0 mod p only adds multiples of p. What is
    left is normalized at its leftmost nonzero. A column index maps each
    column to the pivots whose rows hold a nonzero there, so the new pivot
    updates just those rows; every entry an update creates or cancels
    enters or leaves the index. Over F_p the RREF is unique, so the order
    of the rows does not matter. Once all ncols columns hold a pivot the
    RREF is the identity, and the remaining rows are not read: rank mod p
    <= rank over Q, so nullity 0 mod p certifies nullity 0.

    A unit pivot row holds nothing off its pivot, from the start or once
    updates have cancelled its last other entry. It is in no list of the
    column index, so no later pivot updates it: the set of unit pivots only
    grows. A row whose columns are all unit pivots (an empty row too) clears
    to zero exactly, each entry taking away its own multiple of a unit
    row, so it is skipped before its entries are read: it
    would leave no pivot and change no pivot row.

    Returns the pivot rows as {column: residue} dicts, nonzeros only,
    sorted by pivot, and the pivots. If `leads` is given, each new pivot
    appends to it the pair (pivot column, residue normalized there), for
    `det_exact`. If `kept` is given, each row read that is not skipped as
    above is appended to it, for `_annihilates`: each skipped row holds
    only unit pivots of the RREF returned.
    """
    pivot_rows: dict[int, dict[int, int]] = {}  # pivot -> entries off the pivot
    holders: dict[int, set[int]] = {}  # column -> pivots whose rows hold it
    units: set[int] = set()  # pivots whose rows hold nothing else
    for row in rows:
        if units.issuperset(row):
            continue
        if kept is not None:
            kept.append(row)
        acc: dict[int, int] = {}
        get = acc.get
        for c, f in row.items():
            prow = pivot_rows.get(c)
            if prow is None:
                acc[c] = get(c, 0) + f
            else:
                for j, x in prow.items():
                    acc[j] = get(j, 0) - f * x
        # plain loops, not comprehensions: on CPython 3.11 each comprehension
        # is a function call, and this runs once per row
        vec: dict[int, int] = {}
        for j, x in acc.items():
            if y := x % p:
                vec[j] = y
        if not vec:
            continue
        pc = min(vec)
        lead = vec.pop(pc)
        if leads is not None:
            leads.append((pc, lead))
        inv = pow(lead, -1, p)
        for j, x in vec.items():  # values only: the keys stay as they are
            vec[j] = x * inv % p
        if not vec:
            units.add(pc)
        for j in vec:
            holders.setdefault(j, set()).add(pc)
        for r in holders.pop(pc, ()):
            prow = pivot_rows[r]
            f = prow.pop(pc)
            for j, x in vec.items():
                y = prow.get(j)
                if y is None:
                    prow[j] = -f * x % p
                    holders[j].add(r)
                elif y := (y - f * x) % p:
                    prow[j] = y
                else:
                    del prow[j]
                    holders[j].remove(r)
            if not prow:
                units.add(r)
        pivot_rows[pc] = vec
        if len(pivot_rows) == ncols:
            break
    pivots = sorted(pivot_rows)
    return [{c: 1, **pivot_rows[c]} for c in pivots], pivots


def _rat_reconstruct(a: int, modulus: int) -> tuple[int, int] | None:
    """Wang's algorithm: the unique n/d with |n|, d <= sqrt(modulus/2), as
    the pair (n, d) in lowest terms with d > 0."""
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
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _annihilates(rows: Iterable[Mapping[int, int]], vectors: list[SparseInts]) -> bool:
    """Exact test of A @ v == 0 for the integer rows A and every integer
    vector v, in Python ints.

    The vectors are indexed by column, so each row meets only the vectors
    that are nonzero on its own columns. A row that holds none of the
    columns where some vector is nonzero has a product of exactly 0 with
    every vector, so it is passed without reading its entries.
    """
    by_col: dict[int, list[tuple[int, int]]] = {}
    for k, vec in enumerate(vectors):
        for c, x in vec:
            by_col.setdefault(c, []).append((k, x))
    support = by_col.keys()
    for row in rows:
        if support.isdisjoint(row):
            continue
        acc: dict[int, int] = {}
        for c, a in row.items():
            for k, x in by_col.get(c, ()):
                acc[k] = acc.get(k, 0) + a * x
        if any(acc.values()):
            return False
    return True


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to bases 2, 3, 5 and 7, exact below
    3215031751, the least strong pseudoprime to all four."""
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x != 1 and x != n - 1 and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


_PRIMES = [2**31 - 1]  # 31-bit primes found so far, largest first; a fixed sequence


def _primes() -> Iterator[int]:
    """The 31-bit primes, largest first, each found once (one ahead of use) and
    kept. Each exceeds 2^30, and a product of two residues fits in 62 bits."""
    for p in _PRIMES:  # the walk goes on over entries appended as it runs
        if p == _PRIMES[-1]:
            _PRIMES.append(next(filter(_is_prime, range(p - 2, 2**30, -2))))
        yield p


def _reconstruct(image: list[dict[int, int]], modulus: int, pivots: list[int],
                 ncols: int) -> list[tuple[int, SparseInts]] | None:
    """Candidate basis over Q from the RREF mod `modulus`, as the integer
    vectors (D, D v) of `NullspaceResult.vectors`: candidate v has 1 at free
    column f and -rref[r][f] at each pivot pivots[r]. Each entry is lifted
    to its pair (numerator, denominator), and D v is built from the pairs
    in ints, with no Fraction. A residue is lifted once per call: the
    off-pivot entries repeat few distinct values."""
    pivot_set = set(pivots)
    entries: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(ncols) if f not in pivot_set}
    lifted: dict[int, tuple[int, int] | None] = {}
    for row, pc in zip(image, pivots):
        for f, a in row.items():
            if f != pc:
                if a not in lifted:
                    lifted[a] = _rat_reconstruct(-a, modulus)
                if lifted[a] is None:
                    return None
                entries[f].append((pc, *lifted[a]))
    vectors = []
    for f, vals in entries.items():
        d = math.lcm(*(den for _, _, den in vals))
        vec = [(c, num * (d // den)) for c, num, den in vals]
        vec.append((f, d))
        vec.sort()
        vectors.append((d, tuple(vec)))
    return vectors


def _nullspace_modp(rows: Iterable[Mapping[int, int]], ncols: int,
                    context: str = "") -> NullspaceResult:
    """Certified canonical nullspace basis of integer rows by the
    prime ladder of the module docstring: the image is the RREF modulo the
    product of the primes kept, and H is taken once the first prime fails.
    rows is read once per pass: once per prime, once for H, and once more
    for each verification of a CRT image; one prime's image is verified on
    the rows its own pass kept."""
    image, pivots, modulus, limit = [], [], 0, 1
    for count, p in enumerate(_primes(), 1):
        if count == 2:
            # the norms are rounded up: ceil(sqrt(s)) = isqrt(s - 1) + 1; a
            # row that is zero (explicit zeros, or no entries) has none
            norms = sorted((math.isqrt(s - 1) + 1 for row in rows
                            if (s := sum(v * v for v in row.values()))), reverse=True)
            bits = math.prod(norms[:ncols]).bit_length()
            limit = -(-(2 * bits + 1) // 30) + bits // 30
        if count > limit:
            break
        kept: list[Mapping[int, int]] = []
        rref, new = _rref_modp(rows, p, ncols, kept=kept)
        if count == 1 or (-len(new), new) < (-len(pivots), pivots):
            image, pivots, modulus, verified_on = rref, new, p, kept
        elif new == pivots:
            inv = pow(modulus, -1, p)
            for irow, prow in zip(image, rref):
                for j in irow.keys() | prow.keys():
                    x = irow.get(j, 0)
                    irow[j] = x + modulus * ((prow.get(j, 0) - x) * inv % p)
            modulus *= p
            verified_on = rows
        else:
            _log("nullspace %s: prime %d has worse pivots; skipped", context, p)
            continue
        vectors = _reconstruct(image, modulus, pivots, ncols)
        if vectors is None:
            _log("nullspace %s: rational reconstruction failed at prime %d", context, p)
        elif vectors and not _annihilates(verified_on, [vec for _, vec in vectors]):
            _log("nullspace %s: lift at prime %d fails exact verification", context, p)
        else:
            return NullspaceResult(tuple(vectors), ncols, "modp" if count == 1 else "modp-crt")
    raise RuntimeError(f"nullspace {context}: no certified basis after {limit} primes")


def _checked(rows: Iterable, ncols: int, context: str) -> Iterator[Mapping[int, int]]:
    """One pass over rows, validated and integerized a chunk at a time as
    `nullspace` describes: the non-empty rows, each the caller's mapping
    in a chunk of ints, or its primitive integer dict in a chunk that
    holds a Fraction."""
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK)):
        chunk = list(filter(None, chunk))
        if not all(issubclass(t, Mapping) for t in set(map(type, chunk))):
            bad = next(row for row in chunk if not isinstance(row, Mapping))
            raise TypeError(f"nullspace {context}: rows must be mappings {{column: value}}, "
                            f"not {type(bad).__name__}")
        cols = set().union(*chunk)
        types = set(map(type, chain.from_iterable(row.values() for row in chunk)))
        if not all(issubclass(t, (int, Fraction)) for t in types):
            bad = next(v for row in chunk for v in row.values()
                       if not isinstance(v, (int, Fraction)))
            raise TypeError(f"row values must be ints or Fractions, not {type(bad).__name__}")
        if cols:
            if bad := [c for c in cols if type(c) is not int]:
                raise TypeError(f"nullspace {context}: row columns must be ints, "
                                f"not {type(bad[0]).__name__}")
            if min(cols) < 0 or max(cols) >= ncols:
                raise ValueError(f"nullspace {context}: row columns {min(cols)}..{max(cols)} "
                                 f"outside [0, {ncols})")
        if not all(issubclass(t, int) for t in types):
            chunk = [_integerize(row.items()) for row in chunk]
        yield from chunk


def nullspace(rows: Iterable[Mapping[int, Fraction]], ncols: int,
              context: str = "") -> NullspaceResult:
    """Certified exact nullspace of the system rows . v = 0.

    Rows are sparse mappings {column: value}, with int columns in
    [0, ncols) and values ints or Fractions; a non-empty row of another
    type, such as a list of (column, value) pairs, raises TypeError (the
    check runs once per distinct row type in a chunk). rows is read afresh
    at each pass, in the caller's order, so a `Rows` system is built only
    as far as each pass reads it; a one-shot iterator is first read into a
    list, so it is read exactly once. Each pass validates its rows a chunk
    of `_CHUNK` at a time, by C-level passes that keep the non-empty rows
    (`filter`) and collect their columns (`set().union`) and value types
    (`chain.from_iterable`): rows of ints are read as the callers'
    mappings, never copied or changed, and only a chunk that holds a
    Fraction is integerized row by row, into dicts. A row that no pass
    reads, after the kernel reaches full rank, is not validated. The
    kernel skips the rows that clear to zero against its unit pivots, and
    the verifier the rows that miss the candidates' support: both results
    are exactly zero. The context names the system in the escalation log.
    """
    if isinstance(rows, Iterator):
        rows = list(rows)
    return _nullspace_modp(Rows(partial(_checked, rows, ncols, context)), ncols, context)


def det_exact(mat: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix: det(D*M) / D^n by
    `det_integer`, D the lcm of the denominators."""
    n = len(mat)
    fracs = [[Fraction(x) for x in row] for row in mat]
    d = math.lcm(*(x.denominator for row in fracs for x in row))
    rows = [{j: x.numerator * (d // x.denominator) for j, x in enumerate(row) if x}
            for row in fracs]
    return Fraction(det_integer(rows), d**n)


def det_integer(rows: Sequence[Mapping[int, int]]) -> int:
    """Determinant of a square integer matrix given as sparse rows
    {column: value}, on the kernel `_rref_modp`.

    The rows are fed in their given order. Every step of the elimination
    adds multiples of rows, except the normalization of row k by its lead
    entry, and the full-rank RREF is the permutation matrix of sigma (row
    k -> its pivot column), so det = sgn(sigma) * prod(lead_k) mod p; a row
    that clears to 0 gives residue 0. The residues are folded by CRT over
    `_primes` until the modulus passes 2H, H the Hadamard bound, and read
    in the symmetric range.
    """
    n = len(rows)
    # |det| <= sqrt(prod of the squared row norms) < bound
    bound = math.isqrt(math.prod(sum(v * v for v in row.values()) for row in rows)) + 1
    det, modulus = 0, 1
    for p in _primes():
        leads: list[tuple[int, int]] = []
        _rref_modp(rows, p, n, leads)
        residue = 0
        if len(leads) == n:
            cols = [c for c, _ in leads]
            residue = (-1) ** sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
            for _, x in leads:
                residue = residue * x % p
        det += modulus * ((residue - det) * pow(modulus, -1, p) % p)
        modulus *= p
        if modulus > 2 * bound:
            break
    if det > modulus // 2:
        det -= modulus
    return det
