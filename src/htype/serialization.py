"""Algebra JSON round trip.

Format: {name, family, algebra_tag, params, dim_v, dim_z,
structure: [[i, j, k, "p/q"], ...], basis_convention}. Only nonzero
entries are stored, both antisymmetric partners included, sorted by
(i, j, k) so output is byte-deterministic.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import StructureError

if TYPE_CHECKING:
    from .nilpotent import GradedNilpotent

__all__ = ["to_json_dict", "from_json_dict", "save_algebra", "load_algebra"]

_VALUE = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the strings to_json_dict writes


def to_json_dict(alg: GradedNilpotent) -> dict:
    return {
        "name": alg.name,
        "family": alg.family,
        "algebra_tag": alg.algebra_tag,
        "params": dict(alg.params),
        "dim_v": alg.dim_v,
        "dim_z": alg.dim_z,
        "structure": [[i, j, k, str(x)] for i, j, k, x in alg.nonzeros],
        "basis_convention": alg.basis_convention,
        "abelian": alg.abelian,
    }


def from_json_dict(data: dict, budget: int | None = None) -> GradedNilpotent:
    """The algebra of a JSON document. dim_v and dim_z must be integers (a
    bool is not); when given, `name`, `family` and `basis_convention` must
    be strings, `algebra_tag` a string or null, `params` an object and
    `abelian` a bool. A structure value must be a JSON integer (not a bool)
    or a string "n" or "n/d" of decimal digits, as `to_json_dict` writes it.
    The tensor is charged to budget (None: `linalg.default_budget()`)
    before the first entry is read; a later entry at
    the same (i, j, k) replaces an earlier one, zeros are dropped, and
    GradedNilpotent.__post_init__ checks the antisymmetry of the rest."""
    # Deferred: `htype table` never needs it (and it loads no numpy).
    from .nilpotent import GradedNilpotent, _check_indices, _check_tensor_budget

    try:
        dim_v, dim_z, triples = data["dim_v"], data["dim_z"], data["structure"]
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed algebra JSON: {exc}") from None
    fields = {}
    for key, default, kinds, kind in (  # exact types: a bool is not an int
            ("name", "unnamed", (str,), "str"), ("family", "custom", (str,), "str"),
            ("algebra_tag", None, (str, type(None)), "str or null"),
            ("params", {}, (dict,), "object"), ("dim_v", None, (int,), "int"),
            ("dim_z", None, (int,), "int"), ("basis_convention", "unspecified", (str,), "str"),
            ("abelian", False, (bool,), "bool")):
        if type(value := data.get(key, default)) not in kinds:
            raise StructureError(f"malformed algebra JSON: {key} must be {kind}, not {value!r}")
        fields[key] = value
    if dim_v < 0 or dim_z < 0:
        raise StructureError("negative dimension")
    if not isinstance(triples, list):
        raise StructureError("malformed algebra JSON: structure is not a list")
    _check_tensor_budget(dim_v, dim_z, budget)
    cells = {}
    for entry in triples:
        _check_indices(entry, dim_v, dim_z)
        i, j, k, val = entry
        try:  # an int that is not a bool, or a string that to_json_dict writes
            if not (type(val) is int or type(val) is str and _VALUE.fullmatch(val)):
                raise ValueError('not an int or an "n/d" string')
            cells[i, j, k] = Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureError(f"unparsable structure value in {entry!r}: {exc}") from None
    return GradedNilpotent(nonzeros=tuple(sorted((*key, x) for key, x in cells.items() if x)),
                           **fields)


def save_algebra(alg: GradedNilpotent, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(alg), indent=2, sort_keys=True) + "\n")


def load_algebra(path: str | Path, budget: int | None = None) -> GradedNilpotent:
    """The algebra of a JSON file, its tensor charged to budget as in
    `from_json_dict`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StructureError(f"cannot read algebra JSON: {exc}") from None
    return from_json_dict(data, budget)
