"""Logical schemas for columnar data.

Supported logical types and their in-memory representation:

=========  ==============================  =======================
type       numpy in-memory dtype           notes
=========  ==============================  =======================
int64      ``int64``                       also used for dates (epoch days)
float64    ``float64``
bool       ``bool``
string     ``object`` (Python ``str``)     dictionary-coded when NDV is low
=========  ==============================  =======================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.common.errors import SchemaMismatchError

SUPPORTED_TYPES = ("int64", "float64", "bool", "string")

NUMPY_DTYPES = {
    "int64": np.dtype(np.int64),
    "float64": np.dtype(np.float64),
    "bool": np.dtype(np.bool_),
    "string": np.dtype(object),
}


@dataclass(frozen=True)
class Field:
    """One named, typed column."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in SUPPORTED_TYPES:
            raise SchemaMismatchError(
                f"unsupported type {self.type!r} for field {self.name!r}"
            )

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used for this field's in-memory arrays."""
        return NUMPY_DTYPES[self.type]


class Schema:
    """An ordered collection of :class:`Field` objects."""

    def __init__(self, fields: List[Field]) -> None:
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaMismatchError(f"duplicate field names in {names}")
        self._fields = list(fields)
        self._by_name = {f.name: f for f in fields}

    @classmethod
    def of(cls, *pairs: Tuple[str, str]) -> "Schema":
        """Build a schema from ``(name, type)`` pairs."""
        return cls([Field(name, type_) for name, type_ in pairs])

    @property
    def fields(self) -> List[Field]:
        """The fields, in declaration order."""
        return list(self._fields)

    @property
    def names(self) -> List[str]:
        """The field names, in declaration order."""
        return [f.name for f in self._fields]

    def field(self, name: str) -> Field:
        """Look up a field by name; raises :class:`SchemaMismatchError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaMismatchError(f"no field named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.type}" for f in self._fields)
        return f"Schema({inner})"

    def to_dict(self) -> List[Dict[str, str]]:
        """JSON-serializable description of the schema."""
        return [{"name": f.name, "type": f.type} for f in self._fields]

    @classmethod
    def from_dict(cls, raw: List[Dict[str, str]]) -> "Schema":
        """Inverse of :meth:`to_dict`."""
        return cls([Field(item["name"], item["type"]) for item in raw])

    def validate_columns(self, columns: Dict[str, np.ndarray]) -> int:
        """Check a column dict against this schema; return the row count."""
        if set(columns) != set(self.names):
            raise SchemaMismatchError(
                f"columns {sorted(columns)} do not match schema {self.names}"
            )
        lengths = {name: len(arr) for name, arr in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaMismatchError(f"ragged columns: {lengths}")
        return next(iter(lengths.values())) if lengths else 0
