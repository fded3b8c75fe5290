"""Catalog rows, dimension identities, towers, and dataset integrity."""

import ast
import binascii
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import types
from importlib import resources
from pathlib import Path

import pytest

from htype import catalog
from htype.catalog import (
    MAX_GRID_DIM,
    SimpleAlgebraDescriptor as D,
    _DIVISION_DIMS,
    _FAMILIES,
    _compile,
    _eval,
    compute_checksum,
    default_grid,
    instantiate,
    langlands_annotations,
    load_table,
    nilradical_dims,
    row_by_name,
    table_rows,
    tower,
    verify_all,
    verify_row,
)
from htype.division import DivisionAlgebra as DA
from htype.errors import AlgebraMismatch, DatasetError, StructureError
from htype.nilpotent import build_hn, build_hprime


def test_dataset_loads_and_counts():
    version, raw = load_table()
    assert version == "1.0"
    rows = table_rows()
    assert len(rows) == 27
    assert sum(1 for r in rows if r.exceptional) == 17


def test_checksum_catches_any_field_corruption():
    _, raw = load_table()
    recorded = compute_checksum(raw)
    # corrupt one field at a time across different field kinds
    mutations = [
        lambda r: r[0].__setitem__("dim_a", r[0]["dim_a"] + 1),
        lambda r: r[3]["nilradical"].__setitem__("algebra", "C"),
        lambda r: r[5]["sigma"][0].__setitem__(0, "3"),
        lambda r: r[12]["m_factors"][0].__setitem__("params", ["2", "4"]),
        lambda r: r[7].__setitem__("validity", "True"),
        lambda r: r[20].__setitem__("m_abelian", 1),
    ]
    import copy
    for mutate in mutations:
        rows = copy.deepcopy(raw)
        mutate(rows)
        assert compute_checksum(rows) != recorded


def test_checksum_mismatch_names_both_checksums_whole(tmp_path, monkeypatch):
    # a scratch copy of the data file with one field of one row changed
    text = resources.files("htype.data").joinpath("parabolic_table.json").read_text()
    doc = json.loads(text)
    doc["rows"][0]["dim_a"] += 1
    (tmp_path / "parabolic_table.json").write_text(json.dumps(doc))
    monkeypatch.setattr(catalog, "resources", types.SimpleNamespace(files=lambda _: tmp_path))
    catalog.load_table.cache_clear()
    try:
        with pytest.raises(DatasetError) as exc:
            catalog.load_table()
    finally:
        catalog.load_table.cache_clear()
    computed = compute_checksum(doc["rows"])
    assert len(computed) == 8 and computed != doc["checksum"]
    assert str(exc.value) == (f"table checksum mismatch: recorded {doc['checksum']}, "
                              f"computed {computed}")


def test_checksum_is_the_crc32_of_the_canonical_rows():
    _, raw = load_table()
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    assert compute_checksum(raw) == f"{binascii.crc32(blob):08x}"
    doc = json.loads(resources.files("htype.data").joinpath("parabolic_table.json")
                     .read_text())
    assert doc["checksum"] == compute_checksum(doc["rows"]) == "a932ce95"
    assert compute_checksum([]) == "0d4cbb29"  # crc32(b"[]"), zero-padded to 8 digits


def test_semantic_mutation_fails_verification():
    row = row_by_name("sp(n,R)")
    bad = dataclasses.replace(row, dim_a=2)
    assert not verify_row(bad, (3,)).passed


# frozen identity examples, each term re-derivable from the closed forms
IDENTITY_CASES = [
    ("G", (), 14, 3, 1, 5),
    ("EVIII", (), 248, 133, 1, 57),
    ("su(p,q)", (2, 3), 24, 9, 1, 7),
    ("EIV", (), 78, 28, 2, 24),
    ("FII", (), 52, 21, 1, 15),
    ("su*(2n)", (3,), 35, 9, 2, 12),
    ("sp(p,q)", (1, 2), 21, 6, 1, 7),
    ("so(p,q)", (3, 4), 21, 6, 1, 7),
    ("E8", (), 496, 267, 1, 114),
]


@pytest.mark.parametrize("name,params,dg,dm,da,dn", IDENTITY_CASES)
def test_row_identities(name, params, dg, dm, da, dn):
    rep = verify_row(row_by_name(name), params)
    assert (rep.dim_g, rep.dim_m, rep.dim_a, rep.dim_n) == (dg, dm, da, dn)
    assert rep.passed


def test_verify_all_default_grid():
    t0 = time.time()
    summary = verify_all()
    assert summary.all_pass
    assert summary.count() >= 60
    assert summary.count(exceptional=True) == 17
    assert time.time() - t0 < 5.0
    csv = summary.to_csv()
    assert csv.splitlines()[0] == "row,params,dim_g,dim_m,dim_a,dim_n,pass"
    assert all(line.endswith(",true") for line in csv.splitlines()[1:])


def test_verification_csv_quotes_row_names():
    summary = verify_all(grid=default_grid(60))
    header, *rows = csv.reader(io.StringIO(summary.to_csv()))
    assert header == ["row", "params", "dim_g", "dim_m", "dim_a", "dim_n", "pass"]
    assert all(len(row) == len(header) for row in rows)
    assert [row[0] for row in rows] == [r.name for r in summary.reports]
    assert ["sl(n,R)", "4"] in [row[:2] for row in rows]


def _table_expressions():
    for r in table_rows():
        yield r, r.validity
        yield r, r.minimal_when
        yield from ((r, e) for e in r.g_params + r.nil_params)
        yield from ((r, e) for _, exprs in r.m_factors for e in exprs)
        yield from ((r, e) for orbit in r.sigma for e in orbit)


def test_table_expressions_keep_their_python_values():
    # the whitelist evaluator against Python's own, on every expression of
    # the table over a grid of parameters (Python's eval is the oracle only)
    seen = 0
    for row, expr in _table_expressions():
        for values in [(1, 1), (1, 2), (2, 3), (3, 1), (4, 4), (5, 2), (7, 9)]:
            env = dict(zip(row.param_names, values))
            want = eval(expr, {"__builtins__": {}, "min": min, "max": max}, env)
            got = _eval(expr, env)
            assert (got, type(got)) == (want, type(want)), (row.name, expr, env)
            seen += 1
    assert seen > 500


@pytest.mark.parametrize("expr", [
    "n.__class__", "().__class__.__base__", "__import__('os')", "open('x')",
    "n ** 2", "n / 2", "1.5", "'n'", "lambda: n", "[n]", "min(n, key=abs)",
    "min(*[n])", "x", "n if n else 0", "n; 1", "0 < n < 5", "+n",
    "min", "max + 1", "min(1, max)", "__builtins__", "abs", "n % 2", "n is n",
])
def test_table_expression_whitelist_rejects(expr):
    with pytest.raises(DatasetError):
        _eval(expr, {"n": 3})


@pytest.mark.parametrize("expr", ["n +", "min(n,", ")", "n ** 2", "__import__('os')"])
def test_rejected_expression_raises_on_every_call(expr):
    # parse trees are kept per expression string; failures are not
    for _ in range(3):
        with pytest.raises(DatasetError):
            _eval(expr, {"n": 3})


def test_each_table_expression_is_parsed_once(monkeypatch):
    parsed = []
    real = ast.parse
    monkeypatch.setattr(ast, "parse", lambda expr, **kw: parsed.append(expr) or real(expr, **kw))
    _compile.cache_clear()
    verify_all()
    verify_all()
    assert parsed and len(parsed) == len(set(parsed))
    assert set(parsed) <= {e for _, e in _table_expressions()}


def test_disallowed_node_on_a_short_circuited_branch_is_refused():
    # the whole tree is checked when the expression is compiled, so a
    # branch that `or` would never evaluate is refused at the first call
    _compile.cache_clear()
    for expr in ["1 or n ** 2", "0 and n / 2", "max(n, 1) or n.real"]:
        for _ in range(2):
            with pytest.raises(DatasetError, match="is not allowed"):
                _eval(expr, {"n": 3})
    assert _eval("1 or n", {}) == 1  # a name is looked up only when it is read


@pytest.mark.parametrize("expr, node", [
    ("1 or n ** 2", "n ** 2"), ("min(n ** 2, n / 2)", "n ** 2"),
    ("max(n, 1) or n.real", "n.real"),
])
def test_refusal_names_the_first_refused_node(expr, node):
    # depth first and left to right; an operator is named with its operands
    with pytest.raises(DatasetError) as exc:
        _eval(expr, {"n": 3})
    assert str(exc.value) == f"table expression {expr!r}: {node!r} is not allowed"


def test_missing_name_raises_on_every_call():
    _compile.cache_clear()
    assert _eval("n + 1", {"n": 3}) == 4
    for env in [{}, {"m": 3}, {}]:
        with pytest.raises(DatasetError, match="'n' is not allowed"):
            _eval("n + 1", env)
    assert _eval("n + 1", {"n": 5}) == 6
    assert _compile.cache_info().misses == 1


# sha256 of verify_all().to_csv() and of repr(list(default_grid(500))),
# computed when every evaluation parsed its expression afresh
VERIFY_ALL_CSV_SHA256 = "73706b0430e0d80eadc676cae78c06e49688e6c3ba68e9138ef7a40e2a14311d"
DEFAULT_GRID_SHA256 = "1c5b28d81ddc558965c556822b803b4cf3c18e9437bb89b6ab4ae3bd4108dfef"


def test_verification_and_grid_pinned():
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()
    assert digest(verify_all().to_csv()) == VERIFY_ALL_CSV_SHA256
    assert digest(repr(list(default_grid(500)))) == DEFAULT_GRID_SHA256


def test_division_dimensions_match_the_algebras():
    assert _DIVISION_DIMS == {t.value: t.dimension for t in DA}
    for tag in ["R", "c", "H", "o"]:
        d = DA.from_tag(tag).dimension
        assert nilradical_dims("hn", tag, (2,)) == (4 * d, d)
        assert nilradical_dims("hprime", tag, (1, 2)) == (3 * d, d - 1)
    for tag in ["X", "", "RR"]:
        with pytest.raises(AlgebraMismatch) as got:
            nilradical_dims("hn", tag, (1,))
        with pytest.raises(AlgebraMismatch) as want:
            DA.from_tag(tag)
        assert str(got.value) == str(want.value)


def test_unknown_row_and_series_are_refused():
    with pytest.raises(StructureError, match="no catalog row named 'nope'"):
        row_by_name("nope")
    with pytest.raises(StructureError, match="unknown nilradical series 'hx'"):
        nilradical_dims("hx", "R", (1,))


def test_instantiated_row_is_named_by_its_algebra():
    inst = instantiate(row_by_name("su(p,q)"), (1, 2))
    assert inst.name == inst.g.name == "su(1,2)"


def test_verification_summary_failures_are_the_failing_reports():
    good = verify_all(grid=[])
    assert good.failures == ()
    bad = dataclasses.replace(good.reports[0], sigma_ok=False)
    summary = dataclasses.replace(good, reports=(bad,) + good.reports[1:])
    assert summary.failures == (bad,)
    assert not summary.all_pass


def test_verify_all_loads_no_division_module():
    src = str(Path(catalog.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "from htype import catalog\n"
            "assert catalog.verify_all().all_pass\n"
            "print(sorted(m for m in sys.modules if m.startswith('htype')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    loaded = ast.literal_eval(proc.stdout)
    assert "htype.catalog" in loaded and "htype.division" not in loaded


def test_row_with_foreign_expression_is_dataset_error():
    row = dataclasses.replace(row_by_name("sl(n,R)"), validity="__import__('os')")
    with pytest.raises(DatasetError):
        instantiate(row, (4,))


def test_empty_grid_runs_exceptional_only():
    summary = verify_all(grid=[])
    assert summary.count() == 17
    assert summary.all_pass


def test_sigma_orbits_match_dim_a_everywhere():
    for row, ps in list(default_grid(300)):
        inst = instantiate(row, ps)
        assert len(inst.sigma) == inst.dim_a
    # the one row whose printed root set has two entries in a single orbit
    inst = instantiate(row_by_name("su(p,q)"), (1, 2))
    assert inst.sigma == (("alpha_1", "alpha_2"),)
    assert inst.dim_a == 1


def test_maximality_exceptions():
    non_maximal = {r.name for r in table_rows() if not r.maximal}
    assert non_maximal == {"sl(n,R)", "sl(n,C)", "su*(2n)", "EIV"}
    for r in table_rows():
        assert r.maximal == (r.dim_a == 1)


MINIMAL_CASES = [
    ("su(p,q)", (1, 4), True), ("su(p,q)", (2, 2), False),
    ("sp(p,q)", (1, 2), True), ("sp(p,q)", (2, 2), False),
    ("su*(2n)", (3,), True), ("su*(2n)", (4,), False),
    ("sl(n,R)", (3,), True), ("sl(n,R)", (4,), False),
    ("sl(n,C)", (3,), True), ("sl(n,C)", (4,), False),
    ("EIV", (), True), ("FII", (), True), ("EI", (), False),
]


@pytest.mark.parametrize("name,params,want", MINIMAL_CASES)
def test_minimal_flags(name, params, want):
    assert instantiate(row_by_name(name), params).minimal is want


def test_structure_flags():
    for r in table_rows():
        assert r.complex_structure == (r.nil_series == "hn" and r.nil_algebra == "C")
        assert r.quaternionic_structure == (r.nil_series == "hn" and r.nil_algebra == "H")
    assert row_by_name("su*(2n)").quaternionic_structure
    assert row_by_name("E6").complex_structure
    assert not row_by_name("FII").complex_structure


def _type_letter(family):
    """The classical series ("sl", "su", "sp" or "so") of a family, read
    off its key; None for an exceptional family, which takes no params."""
    return family.split("_")[0] if _FAMILIES[family].arity else None


def test_classical_rows_keep_type():
    for r in table_rows():
        if r.exceptional:
            continue
        g_type = _type_letter(r.g_family)
        for fam, _ in r.m_factors:
            # every S-eligible factor family shares the type letter
            if _type_letter(fam) == g_type:
                break
        else:
            pytest.fail(f"{r.name}: no same-type factor in m")


def test_nilradical_dims_match_built_algebras():
    cases = [("hn", "R", (3,)), ("hn", "C", (2,)), ("hn", "H", (1,)),
             ("hn", "O", (1,)), ("hprime", "H", (1, 1)), ("hprime", "O", (1, 0))]
    for series, tag, ps in cases:
        dv, dz = nilradical_dims(series, tag, ps)
        alg = (build_hn(DA.from_tag(tag), ps[0]) if series == "hn"
               else build_hprime(DA.from_tag(tag), *ps))
        assert (dv, dz) == (alg.dim_v, alg.dim_z)


def test_out_of_range_params_rejected():
    with pytest.raises(ValueError):
        instantiate(row_by_name("sl(n,R)"), (2,))
    with pytest.raises(ValueError):
        instantiate(row_by_name("so(p,q)"), (1, 5))
    with pytest.raises(ValueError):
        verify_row(row_by_name("sp(p,q)"), (1, 1, 1))


def test_tower_sl5():
    rep = tower(D("sl_R", (5,)))
    assert [s.g.name for s in rep.steps] == ["sl(5,R)", "sl(3,R)"]
    assert [s.nilradical_dim for s in rep.steps] == [7, 3]
    assert rep.total_nilradical_dim == 10
    assert rep.maximal_nilpotent_dim == 10
    assert not rep.discrepancy


def test_tower_su23():
    rep = tower(D("su", (2, 3)))
    assert [s.g.name for s in rep.steps] == ["su(2,3)", "su(1,2)"]
    assert rep.total_nilradical_dim == 10 == rep.maximal_nilpotent_dim


def test_tower_sp22_stops_at_so14_isomorph():
    rep = tower(D("sp", (2, 2)))
    assert len(rep.steps) == 1
    assert rep.steps[0].nilradical_dim == 11  # h'_{1,1}(H)
    assert ("sp(1,1)", 10) in rep.steps[0].dropped_factors


def test_tower_sl4_discrepancy_flagged():
    rep = tower(D("sl_R", (4,)))
    assert rep.total_nilradical_dim == 5
    assert rep.maximal_nilpotent_dim == 6
    assert rep.discrepancy  # reported, not a failure


def test_tower_exceptional_chain():
    rep = tower(D("EVIII", ()))
    assert [s.g.name for s in rep.steps] == ["EVIII", "EV", "so(6,6)", "so(4,4)"]
    assert rep.total_nilradical_dim == 57 + 33 + 17 + 9


def test_tower_rejects_non_S():
    with pytest.raises(StructureError):
        tower(D("sp", (1, 1)))
    with pytest.raises(StructureError):
        tower(D("so", (1, 9)))


def test_row_for_refuses_a_family_with_no_row():
    with pytest.raises(StructureError, match=re.escape("no catalog row for family 'nope'")):
        catalog._row_for("nope")


def test_tower_refuses_a_broken_row(monkeypatch):
    real = catalog._row_for
    # a row whose dimension identity fails at the first step
    monkeypatch.setattr(catalog, "_row_for",
                        lambda family: dataclasses.replace(real(family), dim_a=3))
    with pytest.raises(StructureError, match=re.escape("tower step sl(5,R) fails verification")):
        tower(D("sl_R", (5,)))
    # sl(5,R) with m = sl(3,R) twice, the identity kept by an m_abelian of -8:
    # two factors in S, which the tower does not follow
    monkeypatch.setattr(catalog, "_row_for", lambda family: dataclasses.replace(
        real(family), m_factors=real(family).m_factors * 2, m_abelian=-8))
    with pytest.raises(StructureError, match=re.escape("tower branching not supported")):
        tower(D("sl_R", (5,)))


def test_annotations_refuse_a_negative_m_o():
    # dim z = 4 puts so(4), of dimension 6, inside m; m of dimension 5 cannot hold it
    inst = dataclasses.replace(instantiate(row_by_name("su*(2n)"), (4,)), dim_m=5)
    with pytest.raises(StructureError, match=re.escape(f"negative m_o for {inst.name}")):
        langlands_annotations(inst)


def test_annotations():
    ann = langlands_annotations(instantiate(row_by_name("su*(2n)"), (4,)))
    # dim z = 4, so(4) = 6 = dim su(2)^2; what remains is su*(4)
    assert ann["dim_spin_factor"] == 6
    assert ann["dim_m_o"] == D("su_star", (2,)).dimension
    assert ann["dim_a_o"] == 1

    ann = langlands_annotations(instantiate(row_by_name("sp(p,q)"), (2, 1)))
    assert ann["dim_spin_factor"] == 3
    assert ann["dim_m_o"] == D("sp", (1, 0)).dimension

    ann = langlands_annotations(instantiate(row_by_name("sl(n,R)"), (6,)))
    assert ann["dim_spin_factor"] == 0
    assert ann["dim_m_o"] == D("sl_R", (4,)).dimension

    for row, ps in default_grid(400):
        assert langlands_annotations(instantiate(row, ps))["dim_m_o"] >= 0


def test_in_S_exclusions():
    assert not D("sp", (1, 1)).in_S      # so(1,4)
    assert not D("su_star", (2,)).in_S   # su*(4) = so(1,5) boundary is n>=3
    assert not D("sl_R", (2,)).in_S      # so(1,2)
    assert not D("so", (2, 2)).in_S      # not simple
    assert not D("su", (3, 0)).in_S      # compact
    assert D("su_star", (3,)).in_S
    assert D("sp", (1, 2)).in_S
    assert D("EIV", ()).in_S


def _brute_grid(max_dim, bound=40):
    """Every valid classical choice with params up to bound (p <= q for two
    params) and dim g <= max_dim, found by trying them all."""
    found = []
    for row in table_rows():
        if row.exceptional:
            continue
        for ps in itertools.product(range(1, bound + 1), repeat=len(row.param_names)):
            if list(ps) != sorted(ps):
                continue
            try:
                dim = instantiate(row, ps).g.dimension
            except ValueError:  # fails the row's validity
                continue
            if dim <= max_dim:
                assert bound not in ps, "bound too small for this max_dim"
                found.append((row, ps))
    return found


@pytest.mark.parametrize("max_dim", [0, 3, 14, 40, 78, 133, 500])
def test_default_grid_matches_brute_force(max_dim):
    grid = list(default_grid(max_dim))
    assert len(grid) == len(set(grid))
    assert set(grid) == set(_brute_grid(max_dim))


def test_grid_at_the_cap():
    grid = list(default_grid(MAX_GRID_DIM))
    assert len(grid) == len(set(grid)) == 9047
    assert max(instantiate(row, ps).g.dimension for row, ps in grid) <= MAX_GRID_DIM


def test_grid_above_the_cap_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(catalog, "table_rows", lambda: pytest.fail("table read"))
    with pytest.raises(ValueError, match="exceeds the grid cap"):
        default_grid(MAX_GRID_DIM + 1)
    with pytest.raises(ValueError, match="exceeds the grid cap"):
        verify_all(max_dim=MAX_GRID_DIM + 1)


def test_negative_grid_is_refused_before_any_work(monkeypatch):
    # a negative max_dim would check no classical point and still pass
    monkeypatch.setattr(catalog, "table_rows", lambda: pytest.fail("table read"))
    with pytest.raises(ValueError, match="^max_dim must be non-negative, got -1$"):
        default_grid(-1)
    with pytest.raises(ValueError, match="^max_dim must be non-negative, got -3$"):
        verify_all(max_dim=-3)


def test_every_dataset_family_has_a_record():
    _, raw = load_table()
    named = [(r["g"]["family"], r["g"]["params"]) for r in raw]
    named += [(f["family"], f["params"]) for r in raw for f in r["m_factors"]]
    assert {family for family, _ in named} == set(_FAMILIES)
    for family, params in named:
        assert len(params) == _FAMILIES[family].arity, family


# family, params, name, dim, in S, type letter (one case per classical family)
DESCRIPTOR_CASES = [
    ("sl_R", (3,), "sl(3,R)", 8, True, "sl"),
    ("sl_C", (2,), "sl(2,C)", 6, False, "sl"),
    ("su_star", (3,), "su*(6)", 35, True, "su"),
    ("su", (1, 1), "su(1,1)", 3, False, "su"),
    ("sp_R", (2,), "sp(2,R)", 10, True, "sp"),
    ("sp", (1, 2), "sp(1,2)", 21, True, "sp"),
    ("sp_C", (1,), "sp(1,C)", 6, False, "sp"),
    ("so", (2, 3), "so(2,3)", 10, True, "so"),
    ("so_star", (2,), "so*(4)", 6, False, "so"),
    ("so_C", (5,), "so(5,C)", 20, True, "so"),
    ("EVIII", (), "EVIII", 248, True, None),
    ("G2", (), "G2", 28, True, None),
]


@pytest.mark.parametrize("family,params,name,dim,in_s,letter", DESCRIPTOR_CASES)
def test_descriptor_reads_its_family_record(family, params, name, dim, in_s, letter):
    d = D(family, params)
    assert (d.name, d.dimension, d.in_S, _type_letter(family)) == (name, dim, in_s, letter)


@pytest.mark.parametrize("family,params", [("xx", ()), ("sl_R", ()), ("EV", (3,)),
                                           ("su", (2,))])
def test_descriptor_refuses_unknown_family_or_arity(family, params):
    with pytest.raises(StructureError):
        D(family, params)


# --- the row plan against per-expression evaluation --------------------------

def _reference_instantiate(row, params=()):
    """instantiate as it was before row plans: each expression evaluated
    on its own, in the row's order, through `_eval`."""
    params = tuple(params)
    if len(params) != len(row.param_names):
        raise ValueError(f"{row.name} expects params {row.param_names}, got {params}")
    env = dict(zip(row.param_names, params))
    if not _eval(row.validity, env):
        raise ValueError(f"params {params} out of range for {row.name} ({row.validity})")
    g = D(row.g_family, tuple(_eval(e, env) for e in row.g_params))
    m_desc = tuple(D(f, tuple(_eval(e, env) for e in exprs)) for f, exprs in row.m_factors)
    nil_params = tuple(_eval(e, env) for e in row.nil_params)
    dim_v, dim_z = nilradical_dims(row.nil_series, row.nil_algebra, nil_params)
    sigma = tuple(tuple(f"alpha_{_eval(e, env)}" for e in orbit) for orbit in row.sigma)
    return catalog.InstantiatedRow(
        row=row, params=params, g=g, m_descriptors=m_desc, m_abelian=row.m_abelian,
        dim_m=sum(f.dimension for f in m_desc) + row.m_abelian, dim_a=row.dim_a,
        nil_params=nil_params, dim_v=dim_v, dim_z=dim_z, dim_n=dim_v + dim_z,
        sigma=sigma, maximal=row.maximal, minimal=bool(_eval(row.minimal_when, env)))


def _reference_verify_row(row, params=()):
    inst = _reference_instantiate(row, params)
    dim_g = inst.g.dimension
    return catalog.RowReport(
        name=row.name, params=inst.params, dim_g=dim_g, dim_m=inst.dim_m,
        dim_a=inst.dim_a, dim_n=inst.dim_n, sigma_orbits=len(inst.sigma),
        identity_ok=dim_g == inst.dim_m + inst.dim_a + 2 * inst.dim_n,
        sigma_ok=len(inst.sigma) == inst.dim_a)


def test_row_plans_match_per_expression_evaluation():
    points = [(row, ()) for row in table_rows() if row.exceptional]
    points += list(default_grid(MAX_GRID_DIM))
    assert len(points) == 17 + 9047
    for row, ps in points:
        assert instantiate(row, ps) == _reference_instantiate(row, ps), (row.name, ps)
        assert verify_row(row, ps) == _reference_verify_row(row, ps), (row.name, ps)
    assert verify_all().reports == tuple(
        _reference_verify_row(row, ps) for row, ps
        in [(r, ()) for r in table_rows() if r.exceptional] + list(default_grid()))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message are the result
        return type(exc), str(exc)


# one fault per row; each raises before any plan existed
MALFORMED = [
    ("sl(n,R)", {"validity": "n ** 2 >= 3"}, (4,)),  # refused validity expression
    ("su(p,q)", {"g_params": ("p", "q.real")}, (2, 3)),  # refused g parameter
    ("so(p,q)", {"sigma": (("2", "p / 2"),)}, (3, 4)),  # refused sigma entry
    ("sp(p,q)", {"nil_params": ("p-1", "r")}, (1, 2)),  # missing name
    ("sl(n,C)", {"minimal_when": "m == 3"}, (3,)),  # missing name, last expression
    # out-of-range params, the row's g naming a missing name: validity comes first
    ("sl(n,R)", {"g_params": ("x",)}, (2,)),
    ("so(p,q)", {}, (1, 5)),  # out-of-range params
    ("sp(p,q)", {}, (1, 1, 1)),  # wrong number of params
    ("su*(2n)", {"m_factors": (("su", ("2", "0")), ("xx", ("n-2",)))}, (4,)),  # unknown m family
    ("su*(2n)", {"m_factors": (("su", ("2",)),)}, (4,)),  # wrong arity of an m factor
    ("sl(n,R)", {"g_family": "su"}, (4,)),  # wrong arity of g
    ("EI", {"nil_algebra": "X"}, ()),  # unknown division algebra
]


@pytest.mark.parametrize("name, fields, params", MALFORMED)
def test_malformed_rows_raise_as_before(name, fields, params):
    row = dataclasses.replace(row_by_name(name), **fields)
    for fn, ref in ((instantiate, _reference_instantiate),
                    (verify_row, _reference_verify_row)):
        _compile.cache_clear()
        want = _outcome(ref, row, params)
        assert want[0] != "ok"
        _compile.cache_clear()
        assert _outcome(fn, row, params) == want
        assert _outcome(fn, row, params) == want  # and again, from the cached plan


def test_tower_checks_each_step_once(monkeypatch):
    # each step is one plan evaluation: instantiate, with no verify_row
    seen = []
    real = catalog._values
    monkeypatch.setattr(catalog, "_values", lambda row, ps: seen.append(row.name) or real(row, ps))
    assert tower(D("EVIII", ())).total_nilradical_dim == 57 + 33 + 17 + 9
    assert seen == ["EVIII", "EV", "so(p,q)", "so(p,q)"]
