"""Algebra JSON round trips and input validation."""

import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htype.division import DivisionAlgebra as DA
from htype.errors import BudgetExceeded, StructureError
from htype.linalg import DEFAULT_BUDGET
from htype.nilpotent import GradedNilpotent, _check_indices, build_hn, build_hprime, make_custom
from htype.serialization import from_json_dict, load_algebra, save_algebra, to_json_dict


@pytest.mark.parametrize("make", [
    lambda: build_hn(DA.R, 2),
    lambda: build_hn(DA.O, 1),
    lambda: build_hprime(DA.H, 1, 1),
    lambda: make_custom("pair", 3, 2, [(0, 1, 0, 1), (0, 2, 1, -2)]),
])
def test_round_trip(make, tmp_path):
    alg = make()
    path = tmp_path / "alg.json"
    save_algebra(alg, path)
    back = load_algebra(path)
    assert back.structure == alg.structure
    assert back.name == alg.name and back.family == alg.family
    assert (back.dim_v, back.dim_z) == (alg.dim_v, alg.dim_z)
    assert back.params == alg.params and back.abelian == alg.abelian


def test_save_is_byte_deterministic(tmp_path):
    alg = build_hn(DA.C, 1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_algebra(alg, p1)
    save_algebra(alg, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_only_nonzero_entries_stored():
    doc = to_json_dict(build_hn(DA.R, 1))
    assert doc["structure"] == [[0, 1, 0, "1"], [1, 0, 0, "-1"]]


def test_fractions_survive():
    alg = make_custom("thirds", 2, 1, [(0, 1, 0, "2/3")])
    back = from_json_dict(to_json_dict(alg))
    assert back.structure[0][1][0] == back.bracket_basis(0, 1)[0]
    assert str(back.structure[0][1][0]) == "2/3"


def test_missing_keys_rejected():
    with pytest.raises(StructureError, match="malformed"):
        from_json_dict({"dim_v": 2})


def test_negative_dimension_rejected():
    with pytest.raises(StructureError, match="negative"):
        from_json_dict({"dim_v": -1, "dim_z": 1, "structure": []})


@pytest.mark.parametrize("key", ["dim_v", "dim_z"])
def test_infinite_dimension_rejected(key):
    # json reads Infinity as a float, and int() of it overflows
    data = {"dim_v": 2, "dim_z": 1, "structure": [], key: float("inf")}
    with pytest.raises(StructureError, match="malformed"):
        from_json_dict(data)


def test_bad_entry_shape_rejected():
    base = {"dim_v": 2, "dim_z": 1}
    with pytest.raises(StructureError, match="bad structure entry"):
        from_json_dict({**base, "structure": [[0, 1, 0]]})
    with pytest.raises(StructureError, match="out of range"):
        from_json_dict({**base, "structure": [[0, 5, 0, "1"]]})


@pytest.mark.parametrize("entry, match", [
    (["a", 1, 0, "1"], "integers"),
    ([0, 1.0, 0, "1"], "integers"),
    ([0, 1, True, "1"], "integers"),
    ([0, 1, 0, "x"], "unparsable"),
    ([0, 1, 0, "1/0"], "unparsable"),
    ([0, 1, 0, [1]], "unparsable"),
    ("0101", "bad structure entry"),
    ([0, 1], "bad structure entry"),
    ([0, 1, 0], "bad structure entry"),
    ([0, 1, 0, "1", "1"], "bad structure entry"),
    ([0, 1, 0, float("inf")], "unparsable"),  # json reads Infinity
    # only the writer's forms: true once loaded as 1, 0.1 as its binary
    # fraction, and the exponent took seconds to parse
    ([0, 1, 0, True], "unparsable"),
    ([0, 1, 0, 0.1], "unparsable"),
    ([0, 1, 0, "1e10000000"], "unparsable"),
])
def test_malformed_entry_rejected(entry, match):
    with pytest.raises(StructureError, match=match):
        from_json_dict({"dim_v": 2, "dim_z": 1, "structure": [entry]})


@pytest.mark.parametrize("key, value", [
    ("dim_v", 2.5), ("dim_v", True), ("dim_v", "2"), ("dim_v", None),
    ("dim_z", 1.0), ("dim_z", False), ("dim_z", [1]),
    ("abelian", "no"), ("abelian", 0), ("abelian", None),
])
def test_dims_and_abelian_keep_their_json_types(key, value):
    # int() once read 2.5 as 2, true as 1 and "2" as 2, and bool() "no" as True
    data = {"dim_v": 2, "dim_z": 1, "structure": [], key: value}
    with pytest.raises(StructureError, match=f"^malformed algebra JSON: {key} must be "):
        from_json_dict(data)


@pytest.mark.parametrize("key, value", [
    ("name", 7), ("name", None), ("family", ["hn"]), ("basis_convention", 1),
    ("algebra_tag", 3), ("algebra_tag", False), ("params", 5), ("params", [["n", 1]]),
    ("params", None),
])
def test_header_fields_keep_their_json_types(key, value):
    # "name": 7 once loaded and was reported as the algebra 7, and "params": 5
    # loaded but made to_json_dict raise TypeError
    data = {"dim_v": 2, "dim_z": 1, "structure": [], key: value}
    with pytest.raises(StructureError, match=f"^malformed algebra JSON: {key} must be "):
        from_json_dict(data)


def test_header_fields_are_read_as_given():
    base = {"dim_v": 2, "dim_z": 1, "structure": [[0, 1, 0, "1"], [1, 0, 0, "-1"]]}
    alg = from_json_dict(base)
    assert (alg.name, alg.family, alg.algebra_tag, alg.params, alg.basis_convention) == (
        "unnamed", "custom", None, {}, "unspecified")
    doc = {**base, "name": "h", "family": "hn", "algebra_tag": "R", "params": {"n": 1},
           "basis_convention": "standard", "abelian": False}
    assert to_json_dict(from_json_dict(doc)) == doc


def test_abelian_flag_is_read_as_given():
    base = {"dim_v": 2, "dim_z": 0, "structure": []}
    assert from_json_dict({**base, "abelian": True}).abelian
    assert not from_json_dict({**base, "abelian": False}).abelian


def _dense_load(data):
    """The loader when a dense tensor was the stored form, kept as the
    reference: each entry is written into a zero tensor in turn, the last
    write winning, and the antisymmetry of the nonzero cells is re-checked
    on the tensor. Returns (nonzeros, tensor)."""
    dim_v, dim_z = data["dim_v"], data["dim_z"]
    c = [[[Fraction(0)] * dim_z for _ in range(dim_v)] for _ in range(dim_v)]
    for entry in data["structure"]:
        _check_indices(entry, dim_v, dim_z)
        i, j, k, val = entry
        c[i][j][k] = Fraction(val)
    nonzeros = tuple((i, j, k, x) for i, ci in enumerate(c) for j, cij in enumerate(ci)
                     for k, x in enumerate(cij) if x)
    bad = [(max(i, j), min(i, j), k) for i, j, k, x in nonzeros if c[j][i][k] != -x]
    if bad:
        raise StructureError("antisymmetry violated at (%d,%d,%d)" % min(bad))
    return nonzeros, tuple(tuple(map(tuple, ci)) for ci in c)


def _outcome(load, data):
    try:
        return load(data)
    except StructureError as exc:
        return str(exc)


@st.composite
def _documents(draw):
    """Small documents whose entries are drawn around the antisymmetric
    ones: partners right and wrong, repeats, zeros, diagonal entries, and
    now and then an index out of range."""
    dim_v = draw(st.sampled_from([0, 1, 2, 2, 3, 3, 3, 3, 3]))
    dim_z = draw(st.sampled_from([0, 1, 1, 2, 2, 2, 2]))

    def index(dim, wild):
        return draw(st.sampled_from([-1, dim]) if wild or dim == 0 else st.integers(0, dim - 1))

    entries = []
    for _ in range(draw(st.integers(0, 5))):
        wild = draw(st.integers(0, 49)) == 0
        i, j, k = index(dim_v, wild), index(dim_v, False), index(dim_z, False)
        x = Fraction(draw(st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "2/4", "-3"])))
        entries.append([i, j, k, str(x)])
        partner = draw(st.sampled_from(12 * ["-x"] + ["x", "0", "none"]))
        if partner != "none":
            entries.append([j, i, k, {"-x": str(-x), "x": str(x), "0": 0}[partner]])
    order = draw(st.permutations(range(len(entries))))
    return {"dim_v": dim_v, "dim_z": dim_z, "structure": [entries[t] for t in order]}


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_loader_matches_the_dense_fill(data):
    # the same documents are accepted, with the same entries and tensor, and
    # the same are refused, with the same message; a direct construction
    # from the dense scan is refused as the loader refuses
    want = _outcome(_dense_load, data)
    got = _outcome(from_json_dict, data)
    if isinstance(want, str):
        assert got == want
        if want.startswith("antisymmetry"):
            cells = {(i, j, k): Fraction(x) for i, j, k, x in data["structure"]}
            nonzeros = tuple(sorted((*key, x) for key, x in cells.items() if x))
            with pytest.raises(StructureError, match=f"^{re.escape(want)}$"):
                GradedNilpotent("direct", "custom", None, {}, data["dim_v"], data["dim_z"],
                                nonzeros, "custom")
    else:
        assert (got.nonzeros, got.structure) == want


def test_structure_must_be_a_list():
    with pytest.raises(StructureError, match="not a list"):
        from_json_dict({"dim_v": 2, "dim_z": 1, "structure": 7})


def test_antisymmetry_revalidated_on_load():
    # one partner missing: post_init must catch it
    with pytest.raises(StructureError, match="antisymmetry"):
        from_json_dict({"dim_v": 2, "dim_z": 1,
                        "structure": [[0, 1, 0, "1"]]})


def test_unreadable_file(tmp_path):
    with pytest.raises(StructureError, match="cannot read"):
        load_algebra(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(StructureError, match="cannot read"):
        load_algebra(bad)


def test_defaults_for_optional_fields(tmp_path):
    p = tmp_path / "min.json"
    p.write_text(json.dumps({"dim_v": 0, "dim_z": 1, "structure": []}))
    alg = load_algebra(p)
    assert alg.name == "unnamed" and alg.family == "custom"
    assert alg.basis_convention == "unspecified" and not alg.abelian


def test_oversized_structure_is_refused_before_allocation():
    # The dense tensor would hold 10**18 entries; the refusal must come first.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            from_json_dict({"dim_v": 10**6, "dim_z": 10**6, "structure": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.budget == DEFAULT_BUDGET
    assert peak < 1 << 20


def test_flat_structure_counts_its_empty_cells():
    # dim_z = 0 holds no entries, but each of the 600 * 600 cells is a
    # list: 360,000 slots against the 200,000 budget, refused first
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            from_json_dict({"dim_v": 600, "dim_z": 0, "structure": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.requested, exc.value.budget) == (360_000, DEFAULT_BUDGET)
    assert peak < 1 << 20
    assert from_json_dict({"dim_v": 400, "dim_z": 0, "structure": []}).dim_v == 400


def test_structure_cap_follows_the_budget_override(monkeypatch):
    doc = to_json_dict(build_hn(DA.C, 1))  # 4 * 4 * 2 = 32 tensor entries
    monkeypatch.setenv("DIVH_BUDGET", "31")
    with pytest.raises(BudgetExceeded):
        from_json_dict(doc)
    monkeypatch.setenv("DIVH_BUDGET", "32")
    assert from_json_dict(doc).dim_v == 4
