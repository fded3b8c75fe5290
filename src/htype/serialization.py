"""Algebra JSON round trip.

Format: {name, family, algebra_tag, params, dim_v, dim_z,
structure: [[i, j, k, "p/q"], ...], basis_convention}. Only nonzero
entries are stored, both antisymmetric partners included, sorted by
(i, j, k) so output is byte-deterministic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import StructureError

if TYPE_CHECKING:
    from .nilpotent import GradedNilpotent

__all__ = ["to_json_dict", "from_json_dict", "save_algebra", "load_algebra"]


def to_json_dict(alg: GradedNilpotent) -> dict:
    triples = []
    for i in range(alg.dim_v):
        for j in range(alg.dim_v):
            for k, val in enumerate(alg.structure[i][j]):
                if val != 0:
                    triples.append([i, j, k, str(val)])
    return {
        "name": alg.name,
        "family": alg.family,
        "algebra_tag": alg.algebra_tag,
        "params": dict(alg.params),
        "dim_v": alg.dim_v,
        "dim_z": alg.dim_z,
        "structure": triples,
        "basis_convention": alg.basis_convention,
        "abelian": alg.abelian,
    }


def from_json_dict(data: dict) -> GradedNilpotent:
    # Deferred: `htype table` never needs it (and it loads no numpy).
    from .nilpotent import GradedNilpotent, _check_indices, _freeze, _zeros

    try:
        dim_v = int(data["dim_v"])
        dim_z = int(data["dim_z"])
        triples = data["structure"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise StructureError(f"malformed algebra JSON: {exc}") from None
    if dim_v < 0 or dim_z < 0:
        raise StructureError("negative dimension")
    if not isinstance(triples, list):
        raise StructureError("malformed algebra JSON: structure is not a list")
    c = _zeros(dim_v, dim_z)  # BudgetExceeded before an oversized tensor
    for entry in triples:
        _check_indices(entry, dim_v, dim_z)
        i, j, k, val = entry
        try:
            c[i][j][k] = Fraction(val)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise StructureError(f"unparsable structure value in {entry!r}: {exc}") from None
    # GradedNilpotent.__post_init__ re-validates antisymmetry.
    return GradedNilpotent(
        name=data.get("name", "unnamed"),
        family=data.get("family", "custom"),
        algebra_tag=data.get("algebra_tag"),
        params=data.get("params", {}),
        dim_v=dim_v,
        dim_z=dim_z,
        structure=_freeze(c),
        basis_convention=data.get("basis_convention", "unspecified"),
        abelian=bool(data.get("abelian", False)),
    )


def save_algebra(alg: GradedNilpotent, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(alg), indent=2, sort_keys=True) + "\n")


def load_algebra(path: str | Path) -> GradedNilpotent:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StructureError(f"cannot read algebra JSON: {exc}") from None
    return from_json_dict(data)
