"""2-step graded metric nilpotent Lie algebras n = v (+) z.

An algebra is its rational structure constants, stored as the sorted
nonzeros (i, j, k, c[i][j][k]) with [v_i, v_j] = sum_k c[i][j][k] z_k; the
metric is the coordinate inner product on both layers. The two
division-algebra series are

    h_n(A)      = (A^n (+) A^n) (+) A,        [x+y, x^+y^] = sum x_i y^_i - x^_i y_i
    h'_{p,q}(A) = (A^p (+) A^q) (+) Im(A),    [.,.] = -Im(sum x_j conj(x^_j)
                                                         + sum conj(y^_k) y_k)

expanded over the standard real basis of A. The v-basis order is the
x-block then the y-block, each A-slot over (1, e1, ..., e_{d-1}); the
z-basis is the standard (or imaginary) basis of A. h'_{p,q}(A) is written
from the pairs a < b of each slot only: there b >= 1, so conj(e_b) = -e_b.
J-maps are defined by <J_Z X, Y> = <Z, [X, Y]>.

Every constructor, here and in `clifford`, emits (i, j, k, x) entries into
the one builder `_algebra`, which writes x at (i, j, k) and -x at
(j, i, k). Only `serialization.from_json_dict` writes entries as given, so
that their antisymmetry is checked, in `GradedNilpotent.__post_init__`,
rather than made. `bracket` and every certificate read
`GradedNilpotent.nonzeros`; the dense tensor `GradedNilpotent.structure`
is built from them at its first read, and only `bracket_basis` and the
direct-substitution reference `symmetry.verify_graded_derivation` read it.

Whatever else is derived from one algebra object (its Der_gr level record
and negative levels in `symmetry`, its integer J-maps and type-H
certificate, its Darboux pair and its float boundary model) is made at the
first call and kept on that object by `_kept`, as `structure` is: out of
the dataclass fields, and collected with the algebra.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from . import linalg
from .errors import CenterDimensionError, StructureError
from .linalg import integerize_row

if TYPE_CHECKING:  # annotations only: loading an algebra needs neither
    import random

    from .division import DivisionAlgebra

__all__ = [
    "GradedNilpotent",
    "NilpotentElement",
    "JMap",
    "TypeHResult",
    "NonsingularResult",
    "build_hn",
    "build_hprime",
    "make_custom",
    "random_two_step",
    "element",
    "bracket",
    "jmap",
    "is_type_h",
    "is_nonsingular",
    "check_symplectic_isomorphic",
    "dims",
]

Structure = tuple[tuple[tuple[Fraction, ...], ...], ...]
T = TypeVar("T")


@dataclass(frozen=True)
class GradedNilpotent:
    """The algebra with [v_i, v_j] = sum x z_k over its `nonzeros`
    (i, j, k, x): every nonzero constant, both antisymmetric partners, in
    ascending (i, j, k) order, so that equal algebras have equal fields."""
    name: str
    family: str  # "hn" | "hprime" | "clifford" | "custom"
    algebra_tag: str | None
    params: dict
    dim_v: int
    dim_z: int
    nonzeros: tuple[tuple[int, int, int, Fraction], ...]
    basis_convention: str
    abelian: bool = False

    def __post_init__(self):
        n, m = range(self.dim_v), range(self.dim_z)
        keys = [(i, j, k) for i, j, k, x in self.nonzeros if x and i in n and j in n and k in m]
        if len(keys) < len(self.nonzeros) or any(a >= b for a, b in zip(keys, keys[1:])):
            raise StructureError("structure entries must be nonzero, in range and sorted")
        # partners compare as (numerator, denominator) pairs; the least bad
        # pair, written with i >= j, is reported
        pairs = {(i, j, k): (x.numerator, x.denominator) for i, j, k, x in self.nonzeros}
        bad = [(max(i, j), min(i, j), k) for (i, j, k), (p, q) in pairs.items()
               if pairs.get((j, i, k)) != (-p, q)]
        if bad:
            raise StructureError("antisymmetry violated at (%d,%d,%d)" % min(bad))

    @cached_property
    def structure(self) -> Structure:
        """The dense tensor c[i][j][k], allocated by `_zeros` at the first
        read and kept: every zero cell is the one `_ZERO`."""
        c = _zeros(self.dim_v, self.dim_z)
        for i, j, k, x in self.nonzeros:
            c[i][j][k] = x
        return _freeze(c)

    @property
    def dim_total(self) -> int:
        return self.dim_v + self.dim_z

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self.structure[i][j]


@dataclass(frozen=True)
class NilpotentElement:
    v_part: tuple[Fraction, ...]
    z_part: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.v_part) and all(c == 0 for c in self.z_part)


@dataclass(frozen=True)
class JMap:
    Z: tuple[Fraction, ...]
    matrix: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class TypeHResult:
    holds: bool
    degenerate: bool
    failing_pairs: tuple[tuple[int, int], ...]
    certificate: str

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class NonsingularResult:
    verdict: bool | None  # None = undetermined
    degenerate: bool
    certificate: str


_ZERO = Fraction(0)  # every zero cell of a tensor from `_zeros`


def _kept(alg: GradedNilpotent, key: str, make: Callable[[GradedNilpotent], T]) -> T:
    """make(alg) at the first call for key, then that same object: kept in
    alg's instance dict, where `structure` is kept, so equality, repr, the
    JSON writer and dataclasses.replace read none of it and it is collected
    with alg. A make that raises keeps nothing."""
    kept = vars(alg)
    if key not in kept:
        kept[key] = make(alg)
    return kept[key]


def _check_tensor_budget(dim_v: int, dim_z: int, budget: int | None = None) -> None:
    """BudgetExceeded when the dense tensor would take more slots than the
    budget (`linalg.resolve_budget`: None is the default, DIVH_BUDGET
    overrides; a loader passes its run's). Each of the dim_v^2 cells is a
    list even when dim_z = 0, so a cell counts as at least one slot:
    dim_v^2 * max(dim_z, 1). Every build and load is charged this before
    its first entry is read, though only the `structure` view allocates."""
    linalg.check_budget(dim_v * dim_v, max(dim_z, 1), linalg.resolve_budget(budget),
                        "structure tensor")


def _zeros(dim_v: int, dim_z: int) -> list[list[list[Fraction]]]:
    """The zero dense tensor for `GradedNilpotent.structure`, every cell
    the one `_ZERO`, charged to the budget before anything is allocated."""
    _check_tensor_budget(dim_v, dim_z)
    return [[[_ZERO] * dim_z for _ in range(dim_v)] for _ in range(dim_v)]


def _freeze(c: list[list[list[Fraction]]]) -> Structure:
    return tuple(tuple(tuple(e) for e in row) for row in c)


def _algebra(name: str, family: str, tag: str | None, params: dict,
             dim_v: int, dim_z: int, entries: Iterable[tuple[int, int, int, Fraction]],
             convention: str, abelian: bool = False) -> GradedNilpotent:
    """The algebra with [v_i, v_j] = x z_k and [v_j, v_i] = -x z_k summed
    over its (i, j, k, x) entries: every builder's one writer.

    The budget is checked before the first entry is drawn, so `entries` may
    be a lazy generator. No entry has i = j: `build_hn`, `build_hprime`
    and `clifford.build_htype_from_clifford` write only i < j, and
    `make_custom` refuses i = j before it yields. The entries are summed
    per pair i < j and z-index k, an entry with i > j written as -x at
    (j, i, k); only a key that repeats is added to. Each nonzero sum gives
    the entries (i, j, k, x) and (j, i, k, -x), x a Fraction; a sum of 0
    gives none. No dense tensor is allocated.
    """
    _check_tensor_budget(dim_v, dim_z)
    sums: dict[tuple[int, int, int], Fraction | int] = {}
    for i, j, k, x in entries:
        if i > j:
            i, j, x = j, i, -x
        key = (i, j, k)
        sums[key] = sums[key] + x if key in sums else x
    nonzeros = []
    for (i, j, k), x in sums.items():
        if x:
            x = x if type(x) is Fraction else Fraction(x)
            nonzeros += (i, j, k, x), (j, i, k, -x)
    nonzeros.sort()  # the keys are distinct: no two values are compared
    return GradedNilpotent(name, family, tag, params, dim_v, dim_z, tuple(nonzeros),
                           convention, abelian)


def _check_indices(entry, dim_v: int, dim_z: int) -> None:
    """StructureError unless the structure entry is a list or tuple
    (i, j, k, value) whose i, j, k are ints (a bool is not) with i, j in
    [0, dim_v) and k in [0, dim_z)."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        raise StructureError(f"bad structure entry {entry!r}")
    i, j, k, _ = entry
    if not all(type(x) is int for x in (i, j, k)):
        raise StructureError(f"structure indices must be integers in {entry!r}")
    if not (0 <= i < dim_v and 0 <= j < dim_v and 0 <= k < dim_z):
        raise StructureError(f"structure index out of range in {entry!r}")


_SLOT_CONVENTION = "v: x-block then y-block, each slot over (1,e1,...,e_{d-1}); "


def build_hn(algebra: DivisionAlgebra, n: int) -> GradedNilpotent:
    """h_n(A): v = A^n (x-block) (+) A^n (y-block), z = A."""
    from . import division as da

    if n < 0:
        raise ValueError("n must be >= 0")
    d = algebra.dimension
    # [x_slot = e_a, y^_slot = e_b] = e_a e_b = sign e_k
    entries = ((slot * d + a, (n + slot) * d + b, *da.unit_product(algebra, a, b))
               for slot in range(n) for a in range(d) for b in range(d))
    return _algebra(f"h{n}({algebra.value})", "hn", algebra.value, {"n": n},
                    2 * n * d, d, entries,
                    _SLOT_CONVENTION + "z: standard basis of the coefficient algebra")


def build_hprime(algebra: DivisionAlgebra, p: int, q: int) -> GradedNilpotent:
    """h'_{p,q}(A): v = A^p (+) A^q, z = Im(A). Abelian when A = R."""
    from . import division as da

    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    d = algebra.dimension

    def entries():
        # Only pairs a < b are written, so b >= 1 and conj(e_b) = -e_b:
        # an x-slot's -Im(e_a conj(e_b)) is Im(e_a e_b) and a y-slot's
        # -Im(conj(e_b) e_a) is Im(e_b e_a). Two distinct units multiply to
        # an imaginary unit e_k, which is z-coordinate k - 1.
        for slot in range(p + q):
            for a in range(d):
                for b in range(a + 1, d):
                    k, sign = da.unit_product(algebra, *((a, b) if slot < p else (b, a)))
                    yield slot * d + a, slot * d + b, k - 1, sign

    return _algebra(f"h'{p},{q}({algebra.value})", "hprime", algebra.value,
                    {"p": p, "q": q}, (p + q) * d, d - 1, entries(),
                    _SLOT_CONVENTION + "z: imaginary basis (e1,...,e_{d-1})",
                    abelian=(d == 1))


def make_custom(name: str, dim_v: int, dim_z: int,
                entries: Iterable[tuple[int, int, int, Fraction]],
                family: str = "custom") -> GradedNilpotent:
    """Build from sparse (i, j, k, value) entries; antisymmetry is filled in."""
    def checked():
        for entry in entries:
            _check_indices(entry, dim_v, dim_z)
            i, j, k, val = entry
            if i == j:
                raise StructureError("diagonal bracket entry must vanish")
            yield i, j, k, Fraction(val)

    return _algebra(name, family, None, {}, dim_v, dim_z, checked(), "custom")


def random_two_step(dim_v: int, dim_z: int, rng: random.Random,
                    denom: int = 4) -> GradedNilpotent:
    """Random rational structure tensor; for genericity experiments. The
    budget is checked before the first entry is drawn from rng."""
    entries = ((i, j, k, Fraction(rng.randint(-denom, denom), denom))
               for i in range(dim_v) for j in range(i + 1, dim_v) for k in range(dim_z))
    return make_custom(f"random({dim_v},{dim_z})", dim_v, dim_z, entries)


def bracket(alg: GradedNilpotent, u: NilpotentElement, w: NilpotentElement) -> NilpotentElement:
    """[u, w] from the entries with i in the support of u: being sorted,
    those with a given i are the slice between (i,) and (i + 1,)."""
    if len(u.v_part) != alg.dim_v or len(w.v_part) != alg.dim_v:
        raise StructureError("element dimension mismatch")
    z = [Fraction(0)] * alg.dim_z
    nz, wv = alg.nonzeros, w.v_part
    for i, ui in enumerate(u.v_part):
        if ui:
            for _, j, k, x in nz[bisect_left(nz, (i,)):bisect_left(nz, (i + 1,))]:
                if wv[j]:
                    z[k] += ui * wv[j] * x
    return NilpotentElement((Fraction(0),) * alg.dim_v, tuple(z))


def element(alg: GradedNilpotent, v=None, z=None) -> NilpotentElement:
    v = tuple(Fraction(x) for x in (v if v is not None else [0] * alg.dim_v))
    z = tuple(Fraction(x) for x in (z if z is not None else [0] * alg.dim_z))
    if len(v) != alg.dim_v or len(z) != alg.dim_z:
        raise StructureError("element dimension mismatch")
    return NilpotentElement(v, z)


def jmap(alg: GradedNilpotent, Z: Sequence) -> JMap:
    """<J_Z X, Y> = <Z, [X, Y]>: (J_Z)_{ab} = sum_k Z_k c[b][a][k]."""
    Zf = tuple(Fraction(z) for z in Z)
    if len(Zf) != alg.dim_z:
        raise StructureError("Z dimension mismatch")
    matrix = [[Fraction(0)] * alg.dim_v for _ in range(alg.dim_v)]
    for b, a, k, x in alg.nonzeros:
        matrix[a][b] += Zf[k] * x
    return JMap(Zf, tuple(map(tuple, matrix)))


def _clifford_failures(K: Sequence[Sequence[dict[int, int]]],
                       D: int) -> list[tuple[int, int]]:
    """Pairs a <= b with K_a K_b + K_b K_a != -2 delta_ab D^2 I, for a stack
    K of integer matrices given as sparse rows {column: value}."""
    failing = []
    for a, Ka in enumerate(K):
        for b in range(a, len(K)):
            Kb = K[b]
            for i in range(len(Ka)):
                # row i of K_a K_b + K_b K_a, less row i of the target
                acc = {i: 2 * D * D} if a == b else {}
                for X, Y in ((Ka, Kb), (Kb, Ka)):
                    for t, x in X[i].items():
                        for j, y in Y[t].items():
                            acc[j] = acc.get(j, 0) + x * y
                if any(acc.values()):
                    failing.append((a, b))
                    break
    return failing


def _integer_jmaps(alg: GradedNilpotent) -> tuple[int, list[list[dict[int, int]]]]:
    """(D, K): D the common denominator of the structure tensor and
    K_k = D J_k the integer J-maps, as sparse rows {column: value}:
    (K_k)_{ab} = D c[b][a][k]."""
    D = math.lcm(*(x.denominator for *_, x in alg.nonzeros))
    K = [[{} for _ in range(alg.dim_v)] for _ in range(alg.dim_z)]
    for b, a, k, x in alg.nonzeros:
        K[k][a][b] = x.numerator * (D // x.denominator)
    return D, K


def is_type_h(alg: GradedNilpotent) -> TypeHResult:
    """J_a J_b + J_b J_a = -2 delta_ab I on all pairs of z-basis vectors.

    With D the common denominator of the structure tensor, K_k = D J_k is
    an integer matrix and the identity reads K_a K_b + K_b K_a =
    -2 delta_ab D^2 I, checked on Python integers, which cannot overflow.
    The J-maps of the division-algebra families are near-monomial, so K is
    kept as sparse rows. The certificate and K are made once per algebra.
    """
    def certify(alg):
        if alg.dim_z == 0:
            return TypeHResult(True, True, (), "vacuous: dim z = 0, no J-maps exist")
        D, K = _kept(alg, "_integer_jmaps", _integer_jmaps)
        failing = _clifford_failures(K, D)
        if failing:
            return TypeHResult(False, False, tuple(failing),
                               f"{len(failing)} basis pair(s) violate the J-identity")
        return TypeHResult(True, False, (),
                           "J_a J_b + J_b J_a = -2 delta_ab I verified exactly on the z-basis")

    return _kept(alg, "is_type_h", certify)


def _interpolate(values: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients, constant first, of the polynomial of degree
    < len(values) that takes values[t] at t = 0, 1, 2, ... (Newton form)."""
    coef = list(values)
    for j in range(1, len(coef)):
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j
    poly = [coef[-1]]
    for node in range(len(coef) - 2, -1, -1):
        # poly <- poly * (t - node) + coef[node]
        poly = ([coef[node] - node * poly[0]]
                + [lo - node * hi for lo, hi in zip(poly, poly[1:])] + [poly[-1]])
    return poly


def _trim(poly: list) -> list:
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly


def _remainder(num: list[Fraction], den: list[int]) -> list[Fraction]:
    """Remainder of polynomial division (constant first, den nonzero)."""
    num = list(num)
    while len(num) >= len(den):
        f = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, d in enumerate(den):
            num[shift + i] -= f * d
        num = _trim(num[:-1])
    return num


def _count_real_roots(poly: list[int]) -> int:
    """Distinct real roots of a nonzero polynomial (constant first).

    Sturm's theorem: the sign changes of the chain p, p', -rem(p, p'), ...
    at -oo minus those at +oo. The chain ends at gcd(p, p'), so a repeated
    root counts once, as in sympy's count_roots.
    """
    chain = [poly]
    nxt = _trim([i * c for i, c in enumerate(poly)][1:])
    while nxt:
        chain.append(integerize_row(nxt))  # a positive multiple: same signs
        nxt = [-x for x in _remainder([Fraction(c) for c in chain[-2]], chain[-1])]

    def changes(signs):
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    at_pos = [p[-1] > 0 for p in chain]
    at_neg = [(p[-1] > 0) == (len(p) % 2 == 1) for p in chain]
    return changes(at_neg) - changes(at_pos)


def is_nonsingular(alg: GradedNilpotent) -> NonsingularResult:
    """Is ad_X: v -> z surjective for every nonzero X?"""
    if alg.dim_z == 0:
        return NonsingularResult(True, True, "vacuous: dim z = 0")
    if is_type_h(alg):
        return NonsingularResult(True, False,
                                 "type H implies non-singular: J_Z X != 0 for Z, X != 0")
    if alg.dim_z > 2:
        return NonsingularResult(None, False,
                                 "undetermined: dim z > 2 without type H structure")
    # K_k = D J_k, the integer J-maps the type-H check built
    D, K = _kept(alg, "_integer_jmaps", _integer_jmaps)
    # ad_X surjective for all X != 0  <=>  J_Z nonsingular for all Z != 0
    # (failure of surjectivity pairs with a Z annihilating the image).
    # det K_1 = D^dim v det J_1, and det(K_1 + t K_2) = D^dim v det(J_1 + t J_2)
    # has the same roots and, after integerize_row, the same polynomial
    if alg.dim_z == 1:
        det = Fraction(linalg.det_integer(K[0]), D**alg.dim_v)
        if det != 0:
            return NonsingularResult(True, False, f"det J = {det} != 0")
        return NonsingularResult(False, False, "det J = 0: singular direction exists")
    if linalg.det_integer(K[1]) == 0:
        return NonsingularResult(False, False, "det J_2 = 0")
    # det(K_1 + t K_2) has degree dim v and leading coefficient
    # det K_2 != 0, so its values at t = 0..dim v fix it.
    def pencil(t):
        return [{c: x for c in r1.keys() | r2.keys()
                 if (x := r1.get(c, 0) + t * r2.get(c, 0))} for r1, r2 in zip(*K)]
    values = [Fraction(linalg.det_integer(pencil(t))) for t in range(alg.dim_v + 1)]
    n_real = _count_real_roots(integerize_row(_interpolate(values)))
    if n_real == 0:
        return NonsingularResult(
            True, False, "pencil det(J_1 + t J_2) has no real roots and det J_2 != 0")
    return NonsingularResult(False, False, f"pencil determinant has {n_real} real root(s)")


def _skew_form(alg: GradedNilpotent) -> list[dict[int, Fraction]]:
    """Rows of the skew form S_ij = c[i][j][0], as sparse {j: S_ij} dicts."""
    if alg.dim_z != 1:
        raise CenterDimensionError("only center-dimension-1 supported")
    S = [{} for _ in range(alg.dim_v)]
    for i, j, _, x in alg.nonzeros:
        S[i][j] = x
    return S


def _sparse_matmul(a: Sequence[dict], b: Sequence[dict]) -> list[dict]:
    """Product of two matrices given as sparse rows {column: value}."""
    out = []
    for arow in a:
        acc = {}
        for t, x in arow.items():
            for j, y in b[t].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(acc)
    return out


def _darboux(S: list[dict[int, Fraction]]
             ) -> tuple[list[dict[int, Fraction]], list[dict[int, Fraction]]] | None:
    """A Darboux basis of S and its dual, or None if S is degenerate.

    Returns (P, P^{-1}) as sparse rows {column: value}. The columns
    u_1..u_m, v_1..v_m of P satisfy P^T S P = Omega = [[0, I], [-I, 0]],
    so P^{-1} = Omega^T P^T S: its rows are -(v_k^T S) and then u_k^T S,
    the covectors each step computes anyway. No inverse is taken.

    S is given as sparse rows, and the pool vectors are sparse
    {index: value} dicts, so every pairing visits only nonzeros. The pool
    starts as the standard basis; each step pairs its first vector u with
    the first later vector w with form(u, w) != 0, and strips both from
    the rest of the pool. Stripping adds multiples of u and v, so the
    pairs taken and the pool stay a basis and no pool vector strips to
    zero. There is one exit for None: a vector u with no partner, which
    every odd or degenerate form reaches (at odd n, the last vector at the
    latest).
    """
    n = len(S)

    def covector(u):
        """u^T S as a sparse row, so that form(u, w) = covector(u) . w."""
        out = {}
        for i, ui in u.items():
            for j, sij in S[i].items():
                out[j] = out.get(j, 0) + ui * sij
        return out

    def pair(c, w):
        return sum(c[j] * wj for j, wj in w.items() if j in c)

    us, vs, cus, cvs = [], [], [], []
    pool = [{i: Fraction(1)} for i in range(n)]
    while pool:
        u = pool.pop(0)
        cu = covector(u)
        k = next((k for k, w in enumerate(pool) if pair(cu, w)), None)
        if k is None:
            return None
        partner = pool.pop(k)
        s = pair(cu, partner)
        v = {i: x / s for i, x in partner.items()}
        cv = covector(v)
        # strip symplectic components: w' = w + form(v,w) u - form(u,w) v
        new_pool = []
        for w in pool:
            a, b = pair(cu, w), pair(cv, w)
            w2 = dict(w)
            for vec, f in ((u, b), (v, -a)):
                if f:
                    for i, x in vec.items():
                        w2[i] = w2.get(i, 0) + f * x
            new_pool.append({i: x for i, x in w2.items() if x})
        pool = new_pool
        us.append(u)
        vs.append(v)
        cus.append(cu)
        cvs.append(cv)
    P: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for k, col in enumerate(us + vs):
        for i, x in col.items():
            P[i][k] = x
    return P, [{j: -x for j, x in cv.items()} for cv in cvs] + cus


def check_symplectic_isomorphic(a: GradedNilpotent, b: GradedNilpotent):
    """Graded isomorphism witness for center-dimension-1 algebras.

    Returns (True, M) with exact M such that M^T S_b M = S_a (so
    (v, z) |-> (M^{-1} v, z) carries a to b), or (False, None).
    M = Pb Pa^{-1} for the Darboux bases of `_darboux`, which gives Pa^{-1}
    from its covectors and is made once per algebra, and M is checked
    against S_a and S_b exactly.
    """
    Sa, Sb = _skew_form(a), _skew_form(b)
    if a.dim_v != b.dim_v:
        return False, None
    darboux_a = _kept(a, "_darboux", lambda _: _darboux(Sa))
    darboux_b = _kept(b, "_darboux", lambda _: _darboux(Sb))
    if darboux_a is None or darboux_b is None:
        return False, None
    # S_a = Pa^{-T} Omega Pa^{-1}; same for b. M = Pb Pa^{-1} gives
    # M^T S_b M = S_a.
    n = a.dim_v
    M = _sparse_matmul(darboux_b[0], darboux_a[1])
    # exact transport check, on all n^2 entries
    Mt = [{} for _ in range(n)]
    for r, row in enumerate(M):
        for i, x in row.items():
            Mt[i][r] = x
    transported = _sparse_matmul(Mt, _sparse_matmul(Sb, M))
    for i in range(n):
        for j in range(n):
            if transported[i].get(j, 0) != Sa[i].get(j, 0):
                raise StructureError("witness transport failed")
    zero = Fraction(0)
    return True, tuple(tuple(row.get(j, zero) for j in range(n)) for row in M)


def dims(alg: GradedNilpotent) -> tuple[int, int, int]:
    return alg.dim_v, alg.dim_z, alg.dim_v + alg.dim_z
