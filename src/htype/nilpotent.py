"""2-step graded metric nilpotent Lie algebras n = v (+) z.

An algebra is a dense rational structure tensor c with [v_i, v_j] =
sum_k c[i][j][k] z_k; the metric is the coordinate inner product on both
layers. The two division-algebra series are

    h_n(A)      = (A^n (+) A^n) (+) A,        [x+y, x^+y^] = sum x_i y^_i - x^_i y_i
    h'_{p,q}(A) = (A^p (+) A^q) (+) Im(A),    [.,.] = -Im(sum x_j conj(x^_j)
                                                         + sum conj(y^_k) y_k)

expanded over the standard real basis of A. The v-basis order is the
x-block then the y-block, each A-slot over (1, e1, ..., e_{d-1}); the
z-basis is the standard (or imaginary) basis of A. h'_{p,q}(A) is written
from the pairs a < b of each slot only: there b >= 1, so conj(e_b) = -e_b.
J-maps are defined by <J_Z X, Y> = <Z, [X, Y]>.

Every constructor, here and in `clifford`, emits (i, j, k, x) entries into
the one builder `_algebra`, which writes x at c[i][j][k] and -x at
c[j][i][k]. Only `serialization.from_json_dict` fills a tensor itself, as
given, so that its antisymmetry is checked rather than made. Every reader
outside this module, and every certificate here, reads the one sparse view
`GradedNilpotent.nonzeros`, made once per algebra; only `bracket` and the
direct-substitution reference `symmetry.verify_graded_derivation` index
the dense tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from . import linalg
from .errors import CenterDimensionError, StructureError
from .linalg import det_exact, integerize_row

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


@dataclass(frozen=True)
class GradedNilpotent:
    name: str
    family: str  # "hn" | "hprime" | "clifford" | "custom"
    algebra_tag: str | None
    params: dict
    dim_v: int
    dim_z: int
    structure: Structure  # c[i][j][k]
    basis_convention: str
    abelian: bool = False

    def __post_init__(self):
        c = self.structure
        if len(c) != self.dim_v or any(len(ci) != self.dim_v for ci in c):
            raise StructureError("structure tensor v-dimensions inconsistent")
        for ci in c:
            for cij in ci:
                if len(cij) != self.dim_z:
                    raise StructureError("structure tensor z-dimension inconsistent")
        # a pair of zeros is antisymmetric: only nonzeros compare; the least
        # bad pair, written with i >= j, is reported
        bad = [(max(i, j), min(i, j), k) for i, j, k, x in self.nonzeros
               if c[j][i][k] != -x]
        if bad:
            raise StructureError("antisymmetry violated at (%d,%d,%d)" % min(bad))

    @cached_property
    def nonzeros(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        """(i, j, k, c[i][j][k]) for every nonzero entry, in (i, j, k) order:
        the sparse view of the tensor, computed once per algebra."""
        return tuple((i, j, k, x) for i, ci in enumerate(self.structure)
                     for j, cij in enumerate(ci) for k, x in enumerate(cij) if x)

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


def _zeros(dim_v: int, dim_z: int) -> list[list[list[Fraction]]]:
    """The zero structure tensor: `_algebra` and the JSON loader allocate
    here. BudgetExceeded when it would take more slots than the budget
    (DIVH_BUDGET overrides), before anything is allocated. Each of the
    dim_v^2 cells is a list even when dim_z = 0, so a cell counts as at
    least one slot: dim_v^2 * max(dim_z, 1)."""
    linalg.check_budget(dim_v * dim_v, max(dim_z, 1), linalg.default_budget(),
                        "structure tensor")
    return [[[Fraction(0)] * dim_z for _ in range(dim_v)] for _ in range(dim_v)]


def _freeze(c: list[list[list[Fraction]]]) -> Structure:
    return tuple(tuple(tuple(e) for e in row) for row in c)


def _algebra(name: str, family: str, tag: str | None, params: dict,
             dim_v: int, dim_z: int, entries: Iterable[tuple[int, int, int, Fraction]],
             convention: str, abelian: bool = False) -> GradedNilpotent:
    """The algebra with [v_i, v_j] = x z_k and [v_j, v_i] = -x z_k summed
    over its (i, j, k, x) entries: every builder's one writer.

    The tensor is allocated, and the budget checked, before the first
    entry is drawn, so `entries` may be a lazy generator.
    """
    c = _zeros(dim_v, dim_z)
    for i, j, k, x in entries:
        c[i][j][k] += x
        c[j][i][k] -= x
    return GradedNilpotent(name, family, tag, params, dim_v, dim_z, _freeze(c),
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
    if len(u.v_part) != alg.dim_v or len(w.v_part) != alg.dim_v:
        raise StructureError("element dimension mismatch")
    z = [Fraction(0)] * alg.dim_z
    c = alg.structure
    for i, ui in enumerate(u.v_part):
        if ui == 0:
            continue
        for j, wj in enumerate(w.v_part):
            if wj == 0:
                continue
            cij = c[i][j]
            s = ui * wj
            for k in range(alg.dim_z):
                if cij[k]:
                    z[k] += s * cij[k]
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


def is_type_h(alg: GradedNilpotent) -> TypeHResult:
    """J_a J_b + J_b J_a = -2 delta_ab I on all pairs of z-basis vectors.

    With D the common denominator of the structure tensor, K_k = D J_k is
    an integer matrix and the identity reads K_a K_b + K_b K_a =
    -2 delta_ab D^2 I, checked on Python integers, which cannot overflow.
    The J-maps of the division-algebra families are near-monomial, so K is
    kept as sparse rows.
    """
    if alg.dim_z == 0:
        return TypeHResult(True, True, (), "vacuous: dim z = 0, no J-maps exist")
    n, m = alg.dim_v, alg.dim_z
    D = math.lcm(*(x.denominator for *_, x in alg.nonzeros))
    # K[k][a][b] = D (J_k)_{ab} = D c[b][a][k]
    K = [[{} for _ in range(n)] for _ in range(m)]
    for b, a, k, x in alg.nonzeros:
        K[k][a][b] = x.numerator * (D // x.denominator)
    failing = _clifford_failures(K, D)
    if failing:
        return TypeHResult(False, False, tuple(failing),
                           f"{len(failing)} basis pair(s) violate the J-identity")
    return TypeHResult(True, False, (),
                       "J_a J_b + J_b J_a = -2 delta_ab I verified exactly on the z-basis")


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
    th = is_type_h(alg)
    if th.holds and not th.degenerate:
        return NonsingularResult(True, False,
                                 "type H implies non-singular: J_Z X != 0 for Z, X != 0")
    # ad_X surjective for all X != 0  <=>  J_Z nonsingular for all Z != 0
    # (failure of surjectivity pairs with a Z annihilating the image).
    if alg.dim_z == 1:
        det = det_exact(jmap(alg, [1]).matrix)
        if det != 0:
            return NonsingularResult(True, False, f"det J = {det} != 0")
        return NonsingularResult(False, False, "det J = 0: singular direction exists")
    if alg.dim_z == 2:
        j1, j2 = jmap(alg, [1, 0]).matrix, jmap(alg, [0, 1]).matrix
        if det_exact(j2) == 0:
            return NonsingularResult(False, False, "det J_2 = 0")
        # det(J_1 + t J_2) has degree dim v and leading coefficient
        # det J_2 != 0, so its values at t = 0..dim v fix it.
        values = [det_exact([[x + t * y for x, y in zip(r1, r2)]
                             for r1, r2 in zip(j1, j2)])
                  for t in range(alg.dim_v + 1)]
        n_real = _count_real_roots(integerize_row(_interpolate(values)))
        if n_real == 0:
            return NonsingularResult(
                True, False,
                "pencil det(J_1 + t J_2) has no real roots and det J_2 != 0")
        return NonsingularResult(False, False,
                                 f"pencil determinant has {n_real} real root(s)")
    return NonsingularResult(None, False,
                             "undetermined: dim z > 2 without type H structure")


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
    the rest of the pool.
    """
    n = len(S)
    if n % 2:
        return None

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
            w2 = {i: x for i, x in w2.items() if x}
            if w2:
                new_pool.append(w2)
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
    from its covectors, and M is checked against S_a and S_b exactly.
    """
    Sa, Sb = _skew_form(a), _skew_form(b)
    if a.dim_v != b.dim_v:
        return False, None
    darboux_a, darboux_b = _darboux(Sa), _darboux(Sb)
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
