"""Catalog of simple Lie algebras whose parabolics have the type-H nilradicals.

The dataset (data/parabolic_table.json) holds one row per
simple-algebra family: the Levi factors m, dim a, the nilradical series
and parameters, and the crossed-root set Sigma grouped into involution
orbits so that the orbit count equals dim a in every row. Verification
instantiates rows over a parameter grid and checks the Langlands
dimension identity dim g = dim m + dim a + 2 dim n exactly.

The tower recursion follows m' (the factors staying in the class S of
simple non-compact algebras other than so(1,n)) downward, stacking
nilradical dimensions into a maximal nilpotent subalgebra.

Each row is evaluated through one plan, compiled once from its checked
table expressions (`_compile`). Everything known of one algebra family
(dimension, display name, membership in S) is one record of `_FAMILIES`. Every `htype table` output
is built here: `dump_csv`, and the verification summary's `to_csv` and
`to_report`.

The file records a CRC-32 of its rows (`compute_checksum`), checked once
per process at the first `load_table`. The checksum sits beside the rows,
so it catches accidental corruption, not a deliberate edit; CRC-32 comes
from `binascii`, so loading the catalog maps no OpenSSL.
"""

from __future__ import annotations

import ast
import binascii
import csv
import io
import itertools
import json
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import AlgebraMismatch, DatasetError, StructureError

__all__ = [
    "SimpleAlgebraDescriptor",
    "TableRow",
    "InstantiatedRow",
    "RowReport",
    "VerificationSummary",
    "TowerStep",
    "TowerReport",
    "load_table",
    "dump_csv",
    "table_rows",
    "row_by_name",
    "compute_checksum",
    "instantiate",
    "verify_row",
    "MAX_GRID_DIM",
    "default_grid",
    "verify_all",
    "tower",
    "langlands_annotations",
]


class _Family(NamedTuple):
    """What the catalog knows of one family: each formula takes the params."""

    dimension: Callable[..., int]
    name: Callable[..., str]
    in_S: Callable[..., bool]

    @property
    def arity(self) -> int:
        return self.dimension.__code__.co_argcount


def _pq_in_S(low: int, size: int) -> Callable[[int, int], bool]:
    return lambda p, q: p >= low and q >= low and p + q >= size


def _exceptional(family: str, dim: int) -> _Family:
    return _Family(lambda: dim, lambda: family, lambda: True)


# S: simple, non-compact, and not isomorphic to any so(1,n). The bounds
# exclude sl(2,R) = su(1,1) = sp(1,R) = so(1,2), sl(2,C) = sp(1,C) =
# so(3,C) = so(1,3), sp(1,1) = so(1,4), su*(4) = so(1,5), plus the
# non-simple so(2,2), so*(4), so(4,C). Every exceptional family is in S.
_FAMILIES = {
    "sl_R": _Family(lambda n: n ** 2 - 1, lambda n: f"sl({n},R)",
                    lambda n: n >= 3),
    "sl_C": _Family(lambda n: 2 * (n ** 2 - 1), lambda n: f"sl({n},C)",
                    lambda n: n >= 3),
    "su_star": _Family(lambda n: 4 * n ** 2 - 1, lambda n: f"su*({2 * n})",
                       lambda n: n >= 3),
    "su": _Family(lambda p, q: (p + q) ** 2 - 1, lambda p, q: f"su({p},{q})",
                  _pq_in_S(1, 3)),
    "sp_R": _Family(lambda n: n * (2 * n + 1), lambda n: f"sp({n},R)",
                    lambda n: n >= 2),
    "sp": _Family(lambda p, q: (p + q) * (2 * (p + q) + 1), lambda p, q: f"sp({p},{q})",
                  _pq_in_S(1, 3)),
    "sp_C": _Family(lambda n: 2 * n * (2 * n + 1), lambda n: f"sp({n},C)",
                    lambda n: n >= 2),
    "so": _Family(lambda p, q: (p + q) * (p + q - 1) // 2, lambda p, q: f"so({p},{q})",
                  _pq_in_S(2, 5)),
    "so_star": _Family(lambda n: n * (2 * n - 1), lambda n: f"so*({2 * n})",
                       lambda n: n >= 3),
    "so_C": _Family(lambda n: n * (n - 1), lambda n: f"so({n},C)",
                    lambda n: n >= 5),
}
_FAMILIES.update(
    (family, _exceptional(family, dim)) for family, dim in {
        "EI": 78, "EII": 78, "EIII": 78, "EIV": 78, "E6": 156,
        "EV": 133, "EVI": 133, "EVII": 133, "E7": 266,
        "EVIII": 248, "EIX": 248, "E8": 496,
        "FI": 52, "FII": 52, "F4": 104, "G": 14, "G2": 28,
    }.items())


def _record(family: str, params: tuple[int, ...]) -> _Family:
    """The record of a family, given its params; StructureError for an
    unknown family or a wrong number of params."""
    record = _FAMILIES.get(family)
    if record is None:
        raise StructureError(f"unknown family {family!r}")
    if len(params) != record.arity:
        raise StructureError(f"family {family!r} takes {record.arity} "
                             f"params, got {tuple(params)}")
    return record


@dataclass(frozen=True)
class SimpleAlgebraDescriptor:
    """A simple (or small degenerate) real Lie algebra, by family and params.

    su*(2n) and so*(2n) take n; StructureError for an unknown family or a
    wrong number of params.
    """

    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        _record(self.family, self.params)

    @property
    def dimension(self) -> int:
        return _FAMILIES[self.family].dimension(*self.params)

    @property
    def name(self) -> str:
        return _FAMILIES[self.family].name(*self.params)

    @property
    def in_S(self) -> bool:
        """Simple, non-compact, and not isomorphic to any so(1,n)."""
        return _FAMILIES[self.family].in_S(*self.params)


@dataclass(frozen=True)
class TableRow:
    """One parameterized catalog row."""

    name: str
    param_names: tuple[str, ...]
    validity: str
    g_family: str
    g_params: tuple[str, ...]
    m_factors: tuple[tuple[str, tuple[str, ...]], ...]
    m_abelian: int
    dim_a: int
    nil_series: str
    nil_algebra: str
    nil_params: tuple[str, ...]
    sigma: tuple[tuple[str, ...], ...]  # orbits of crossed simple roots
    maximal: bool
    minimal_when: str
    exceptional: bool

    @property
    def complex_structure(self) -> bool:
        return self.nil_series == "hn" and self.nil_algebra == "C"

    @property
    def quaternionic_structure(self) -> bool:
        return self.nil_series == "hn" and self.nil_algebra == "H"


_CALLS = {"min": min, "max": max}
_SCOPE = {"__builtins__": {}, **_CALLS}


def _refused(node):
    """The first node outside the whitelist of `_compile`, depth first and
    left to right, or None. An operator is checked on its parent node, so
    the whole refused subexpression is named."""
    match node:
        case (ast.Constant(value=int()) | ast.BoolOp()
              | ast.BinOp(op=ast.Add() | ast.Sub() | ast.Mult() | ast.FloorDiv())
              | ast.UnaryOp(op=ast.USub() | ast.Not())
              | ast.Compare(ops=[ast.Eq() | ast.NotEq() | ast.Lt() | ast.LtE() | ast.Gt() | ast.GtE()])):
            pass
        case ast.Name(id=name) if name not in _SCOPE:
            pass
        case ast.Call(func=ast.Name(id=name), keywords=[]) if name in _CALLS:
            pass
        case _:
            return node
    for child in node.args if isinstance(node, ast.Call) else ast.iter_child_nodes(node):
        if isinstance(child, ast.expr) and (bad := _refused(child)):
            return bad
    return None


class _Plan(NamedTuple):
    """A row's table expressions as functions of its params, passed in the
    order of `param_names`; built by `_compile`."""

    valid: Callable[..., object]
    g_params: Callable[..., tuple[int, ...]]  # alone, for the grid's size probe
    # (g params, each m factor's params, nil params, sigma orbits, minimal_when)
    values: Callable[..., tuple]


@lru_cache(maxsize=256)
def _compile(source: str | TableRow):
    """A table expression as a function of the parameters, or a row's
    evaluation plan: each built once per distinct string or row.

    Allowed in an expression: integer literals (True and False among them),
    names, + - * //, unary - and not, single comparisons (no chains),
    and/or, and calls to min and max. The tree is checked once, here: a
    node outside this list raises DatasetError at the first call, on any
    branch, and so does a name of the evaluation scope (min, max,
    __builtins__) anywhere but as a call's function. Only a checked tree is
    compiled, and it is evaluated by Python with the parameters as its only
    names, min and max its only callables, and no builtins. A name that the
    parameters do not hold raises DatasetError each time the function
    reaches it. A failure is not cached, so a rejected expression raises on
    every call. The checked tree is kept on the function as `tree`, and the
    function compiles it at each call: only `_eval` and the refusal of a
    missing name call it, while a row's plan compiles its trees once.

    A row's plan (`_Plan`) puts the checked trees of its expressions, in
    the row's order (validity, g, the m factors, the nilradical, sigma,
    minimal_when), into three lambdas of the positional params, compiled
    together, each returning its values nested as the row nests them.
    Building the plan checks every expression of the row. A missing name
    raises the refusal of the first expression, in that order, that reads
    one.
    """
    if isinstance(source, TableRow):
        row = source
        at = {"lineno": 1, "col_offset": 0}  # for the new nodes; parsed trees keep theirs
        args = ast.arguments(posonlyargs=[], args=[ast.arg(p, **at) for p in row.param_names],
                             kwonlyargs=[], kw_defaults=[], defaults=[])

        def node(shape):
            if isinstance(shape, str):
                return _compile(shape).tree
            return ast.Tuple([node(part) for part in shape], ast.Load(), **at)

        def flat(shape):
            return [shape] if isinstance(shape, str) else [e for part in shape for e in flat(part)]

        def named(fn, shape):
            def run(*params):
                try:
                    return fn(*params)
                except NameError:
                    env = dict(zip(row.param_names, params))
                    for expr in flat(shape):
                        _compile(expr)(env)
                    raise
            return run

        shapes = (row.validity, row.g_params,
                  (row.g_params, tuple(ps for _, ps in row.m_factors), row.nil_params,
                   row.sigma, row.minimal_when))
        lambdas = [ast.Lambda(args, node(shape), **at) for shape in shapes]
        fns = eval(compile(ast.Expression(ast.Tuple(lambdas, ast.Load(), **at)),
                           "<table row>", "eval"), _SCOPE)
        return _Plan(*map(named, fns, shapes))

    expr = source
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        raise DatasetError(f"table expression {expr!r} does not parse") from None

    def refusal(text: str) -> DatasetError:
        return DatasetError(f"table expression {expr!r}: {text!r} is not allowed")

    if (bad := _refused(tree.body)) is not None:
        raise refusal(ast.unparse(bad))

    def evaluate(env: dict[str, int]) -> int:
        try:
            return eval(compile(tree, "<table expression>", "eval"), _SCOPE, env)
        except NameError as exc:
            raise refusal(exc.name) from None
    evaluate.tree = tree.body
    return evaluate


def _eval(expr: str, env: dict[str, int]):
    """Value of a table expression over the parameters in env; see `_compile`."""
    return _compile(expr)(env)


def compute_checksum(rows_json: list) -> str:
    """CRC-32 of the rows' canonical JSON (sorted keys, no spaces), as 8
    lowercase hex digits."""
    blob = json.dumps(rows_json, sort_keys=True, separators=(",", ":")).encode()
    return f"{binascii.crc32(blob):08x}"


@cache
def load_table() -> tuple[str, list]:
    """Raw dataset (version, rows-json); DatasetError on checksum mismatch.
    Read and checked once per process: every caller, `table_rows` among
    them, shares the one parsed list, so a caller copies before changing it."""
    text = resources.files("htype.data").joinpath("parabolic_table.json").read_text()
    doc = json.loads(text)
    actual = compute_checksum(doc["rows"])
    if actual != doc["checksum"]:
        raise DatasetError(
            f"table checksum mismatch: recorded {doc['checksum']}, computed {actual}")
    return doc["version"], doc["rows"]


@cache
def table_rows() -> tuple[TableRow, ...]:
    _, raw = load_table()
    return tuple(
        TableRow(
            name=r["name"],
            param_names=tuple(r["param_names"]),
            validity=r["validity"],
            g_family=r["g"]["family"],
            g_params=tuple(r["g"]["params"]),
            m_factors=tuple((f["family"], tuple(f["params"]))
                            for f in r["m_factors"]),
            m_abelian=r["m_abelian"],
            dim_a=r["dim_a"],
            nil_series=r["nilradical"]["series"],
            nil_algebra=r["nilradical"]["algebra"],
            nil_params=tuple(r["nilradical"]["params"]),
            sigma=tuple(tuple(orbit) for orbit in r["sigma"]),
            maximal=r["maximal"],
            minimal_when=r["minimal_when"],
            exceptional=r["exceptional"],
        )
        for r in raw)


def _csv(header: list[str], rows: Iterable[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def dump_csv(raw_rows: list) -> str:
    """The rows of load_table() as CSV, one line per row."""
    def line(row):
        m_desc = "+".join(f"{f['family']}({','.join(f['params'])})"
                          for f in row["m_factors"]) or "0"
        if row["m_abelian"]:
            m_desc += f"+R^{row['m_abelian']}"
        nil = row["nilradical"]
        return [row["name"], " ".join(row["param_names"]), m_desc, str(row["dim_a"]),
                f"{nil['series']}[{nil['algebra']}]({','.join(nil['params'])})",
                "|".join("~".join(orbit) for orbit in row["sigma"]),
                str(row["maximal"]).lower(), str(row["exceptional"]).lower()]

    return _csv(["name", "params", "m", "dim_a", "nilradical", "sigma",
                 "maximal", "exceptional"], map(line, raw_rows))


def row_by_name(name: str) -> TableRow:
    for r in table_rows():
        if r.name == name:
            return r
    raise StructureError(f"no catalog row named {name!r}")


# dim A of R, C, H and O, as `DivisionAlgebra.dimension` gives them; the
# catalog reads no other fact of the division algebras
_DIVISION_DIMS = {"R": 1, "C": 2, "H": 4, "O": 8}


def nilradical_dims(series: str, algebra_tag: str, params: tuple[int, ...]) -> tuple[int, int]:
    """(dim v, dim z) of h_n(A) or h'_{p,q}(A) without building the tensor.
    The tag is read case-insensitively, as `DivisionAlgebra.from_tag` does."""
    d = _DIVISION_DIMS.get(algebra_tag.upper())
    if d is None:
        raise AlgebraMismatch(f"unknown division algebra tag {algebra_tag!r}")
    if series == "hn":
        return 2 * params[0] * d, d
    if series == "hprime":
        return (params[0] + params[1]) * d, d - 1
    raise StructureError(f"unknown nilradical series {series!r}")


@dataclass(frozen=True)
class InstantiatedRow:
    row: TableRow
    params: tuple[int, ...]
    g: SimpleAlgebraDescriptor
    m_descriptors: tuple[SimpleAlgebraDescriptor, ...]
    m_abelian: int
    dim_m: int
    dim_a: int
    nil_params: tuple[int, ...]
    dim_v: int
    dim_z: int
    dim_n: int
    sigma: tuple[tuple[str, ...], ...]
    maximal: bool
    minimal: bool

    @property
    def name(self) -> str:
        return self.g.name


def _values(row: TableRow, params: Iterable[int]) -> tuple[tuple[int, ...], tuple]:
    """(params, the row plan's values there); ValueError for a wrong number
    of params or a choice outside the row's validity."""
    params = tuple(params)
    if len(params) != len(row.param_names):
        raise ValueError(f"{row.name} expects params {row.param_names}, got {params}")
    plan = _compile(row)
    if not plan.valid(*params):
        raise ValueError(f"params {params} out of range for {row.name} ({row.validity})")
    return params, plan.values(*params)


def instantiate(row: TableRow, params: Iterable[int] = ()) -> InstantiatedRow:
    params, (g_params, m_params, nil_params, sigma, minimal) = _values(row, params)
    g = SimpleAlgebraDescriptor(row.g_family, g_params)
    m_desc = tuple(SimpleAlgebraDescriptor(f, ps)
                   for (f, _), ps in zip(row.m_factors, m_params))
    dim_v, dim_z = nilradical_dims(row.nil_series, row.nil_algebra, nil_params)
    return InstantiatedRow(
        row=row,
        params=params,
        g=g,
        m_descriptors=m_desc,
        m_abelian=row.m_abelian,
        dim_m=sum(f.dimension for f in m_desc) + row.m_abelian,
        dim_a=row.dim_a,
        nil_params=nil_params,
        dim_v=dim_v,
        dim_z=dim_z,
        dim_n=dim_v + dim_z,
        sigma=tuple(tuple(f"alpha_{e}" for e in orbit) for orbit in sigma),
        maximal=row.maximal,
        minimal=bool(minimal),
    )


@dataclass(frozen=True)
class RowReport:
    name: str
    params: tuple[int, ...]
    dim_g: int
    dim_m: int
    dim_a: int
    dim_n: int
    sigma_orbits: int
    identity_ok: bool
    sigma_ok: bool

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.sigma_ok


def _report(row: TableRow, params: tuple[int, ...], dim_g: int, dim_m: int,
            dim_n: int, sigma_orbits: int) -> RowReport:
    return RowReport(
        name=row.name, params=params,
        dim_g=dim_g, dim_m=dim_m, dim_a=row.dim_a, dim_n=dim_n,
        sigma_orbits=sigma_orbits,
        identity_ok=dim_g == dim_m + row.dim_a + 2 * dim_n,
        sigma_ok=sigma_orbits == row.dim_a,
    )


def verify_row(row: TableRow, params: Iterable[int] = ()) -> RowReport:
    """The row's dimension identity and sigma count at params, read straight
    off its plan's values and family records."""
    params, (g_params, m_params, nil_params, sigma, _) = _values(row, params)
    dim_g = _record(row.g_family, g_params).dimension(*g_params)
    dim_m = sum(_record(f, ps).dimension(*ps)
                for (f, _), ps in zip(row.m_factors, m_params)) + row.m_abelian
    dim_v, dim_z = nilradical_dims(row.nil_series, row.nil_algebra, nil_params)
    return _report(row, params, dim_g, dim_m, dim_v + dim_z, len(sigma))


# The largest max_dim a grid walk accepts: default_grid(10_000) has 9,047
# points, and verify_all checks them in under a second.
MAX_GRID_DIM = 10_000


def default_grid(max_dim: int = 500) -> Iterator[tuple[TableRow, tuple[int, ...]]]:
    """Every valid classical parameter choice with dim g <= max_dim. A
    negative max_dim, or one above MAX_GRID_DIM, raises ValueError here,
    before any work."""
    if max_dim < 0:
        raise ValueError(f"max_dim must be non-negative, got {max_dim}")
    if max_dim > MAX_GRID_DIM:
        raise ValueError(f"max_dim {max_dim} exceeds the grid cap {MAX_GRID_DIM}")
    return _grid(max_dim)


def _grid(max_dim: int) -> Iterator[tuple[TableRow, tuple[int, ...]]]:
    # Sizes s = n, or s = p + q with p <= q. dim g grows with s and depends
    # on s alone, so the walk stops at the first size whose g is too large,
    # never at a validity gap (so(p,q) has none below p + q = 5).
    for row in table_rows():
        if row.exceptional:
            continue
        plan = _compile(row)
        for s in itertools.count(2):
            choices = ([(s,)] if len(row.param_names) == 1
                       else [(p, s - p) for p in range(1, s // 2 + 1)])
            probe = plan.g_params(*choices[0])
            if _record(row.g_family, probe).dimension(*probe) > max_dim:
                break
            yield from ((row, ps) for ps in choices if plan.valid(*ps))


@dataclass(frozen=True)
class VerificationSummary:
    reports: tuple[RowReport, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def failures(self) -> tuple[RowReport, ...]:
        return tuple(r for r in self.reports if not r.passed)

    def count(self, exceptional: bool | None = None) -> int:
        if exceptional is None:
            return len(self.reports)
        names = {r.name for r in table_rows() if r.exceptional == exceptional}
        return sum(1 for r in self.reports if r.name in names)

    def to_csv(self) -> str:
        return _csv(["row", "params", "dim_g", "dim_m", "dim_a", "dim_n", "pass"],
                    ([r.name, ";".join(map(str, r.params)), r.dim_g, r.dim_m,
                      r.dim_a, r.dim_n, str(r.passed).lower()] for r in self.reports))

    def to_report(self) -> dict:
        """The `htype table --verify` JSON body, manifest aside."""
        return {
            "operation": "table-verify",
            "rows": [{"name": r.name, "params": list(r.params), "dim_g": r.dim_g,
                      "dim_m": r.dim_m, "dim_a": r.dim_a, "dim_n": r.dim_n,
                      "passed": r.passed} for r in self.reports],
            "counts": {"total": self.count(),
                       "exceptional": self.count(exceptional=True),
                       "classical": self.count(exceptional=False)},
            "all_pass": self.all_pass,
        }


def verify_all(grid: Iterable[tuple[TableRow, tuple[int, ...]]] | None = None,
               max_dim: int = 500) -> VerificationSummary:
    """Exceptional rows always run; classical rows come from the grid
    (default: every valid choice with dim g <= max_dim, capped as in
    default_grid). An explicitly empty grid checks the exceptional rows alone."""
    if grid is None:
        grid = default_grid(max_dim)
    reports = [verify_row(row) for row in table_rows() if row.exceptional]
    reports.extend(verify_row(row, ps) for row, ps in grid)
    return VerificationSummary(tuple(reports))


@cache
def _row_for(family: str) -> TableRow:
    for row in table_rows():
        if row.g_family == family:
            return row
    raise StructureError(f"no catalog row for family {family!r}")


@dataclass(frozen=True)
class TowerStep:
    level: int
    g: SimpleAlgebraDescriptor
    nilradical_dim: int
    m_prime_factors: tuple[SimpleAlgebraDescriptor, ...]
    dropped_factors: tuple[tuple[str, int], ...]  # (name, dimension)


@dataclass(frozen=True)
class TowerReport:
    steps: tuple[TowerStep, ...]
    total_nilradical_dim: int
    maximal_nilpotent_dim: int | None  # closed form where embedded
    discrepancy: bool


def _maximal_nilpotent_dim(desc: SimpleAlgebraDescriptor) -> int | None:
    # closed forms embedded for two families only: upper-triangular count
    # for sl(n,R), restricted-root count with multiplicity for su(p,q)
    if desc.family == "sl_R":
        n = desc.params[0]
        return n * (n - 1) // 2
    if desc.family == "su":
        p, q = desc.params
        return 2 * p * q - min(p, q)
    return None


def tower(desc: SimpleAlgebraDescriptor) -> TowerReport:
    """Iterate g^{-i-1} = m(g^{-i})', keeping only factors in S."""
    if not desc.in_S:
        raise StructureError(f"{desc.name} is not in S")
    steps = []
    level = 0
    current: SimpleAlgebraDescriptor | None = desc
    while current is not None:
        inst = instantiate(_row_for(current.family), current.params)
        if not _report(inst.row, inst.params, inst.g.dimension, inst.dim_m, inst.dim_n,
                       len(inst.sigma)).passed:
            raise StructureError(f"tower step {current.name} fails verification")
        in_s = [f for f in inst.m_descriptors if f.in_S]
        dropped = tuple((f.name, f.dimension)
                        for f in inst.m_descriptors if not f.in_S)
        if len(in_s) > 1:
            raise StructureError("tower branching not supported")
        steps.append(TowerStep(
            level=level, g=current, nilradical_dim=inst.dim_n,
            m_prime_factors=tuple(in_s), dropped_factors=dropped))
        current = in_s[0] if in_s else None
        level += 1
    total = sum(s.nilradical_dim for s in steps)
    closed = _maximal_nilpotent_dim(desc)
    return TowerReport(
        steps=tuple(steps),
        total_nilradical_dim=total,
        maximal_nilpotent_dim=closed,
        discrepancy=closed is not None and closed != total,
    )


def langlands_annotations(inst: InstantiatedRow) -> dict[str, int]:
    """spin(n) = so(z) bookkeeping inside m; m_o is what remains."""
    m = inst.dim_z
    spin = m * (m - 1) // 2
    dim_m_o = inst.dim_m - spin
    if dim_m_o < 0:
        raise StructureError(f"negative m_o for {inst.name}")
    return {
        "dim_spin_factor": spin,
        "dim_a_o": inst.dim_a - 1,
        "dim_a_delta": 1,
        "dim_m_o": dim_m_o,
    }
