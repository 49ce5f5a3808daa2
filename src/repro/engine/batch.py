"""Column batches: the engine's in-memory data representation.

A batch is a ``dict`` mapping column name to a numpy array; all arrays
share one length.  Batches are passed by reference and treated as
immutable — operators build new dicts (and reuse arrays where safe).

A string column read from ``DICT`` chunks is a hinted
:class:`repro.pagefile.encoding.DictArray` — the same ``str`` values,
plus the codes and dictionary the operators and expressions use to work
once per distinct entry.  :func:`take`, :func:`mask` and
:func:`concat_batches` are how a batch keeps that hint (through the
``select`` / ``concat`` helpers); indexing a column directly yields a
plain array, which is always correct and merely slower downstream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pagefile.encoding import concat, select
from repro.pagefile.schema import Schema

Batch = Dict[str, np.ndarray]


def dictionary_of(values: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(codes, dictionary)`` of a hinted column worth using: ``None``
    for a plain column, and for one whose dictionary outnumbers its rows
    (what a selective filter leaves), where per-row work is the cheaper."""
    codes = getattr(values, "codes", None)
    if codes is None or len(values.dictionary) > len(codes):
        return None
    return codes, values.dictionary


def num_rows(batch: Batch) -> int:
    """Row count of a batch (0 for the empty dict)."""
    for values in batch.values():
        return len(values)
    return 0


def empty_batch(columns: Sequence[str], schema: Schema) -> Batch:
    """A zero-row batch of ``columns``, each with the in-memory dtype of
    its ``schema`` field: what a scan that matched nothing returns, so a
    result keeps its types whether or not any row matched."""
    return {name: np.empty(0, dtype=schema.field(name).numpy_dtype) for name in columns}


def take(batch: Batch, indices: np.ndarray) -> Batch:
    """Row-select by integer indices."""
    return {name: select(values, indices) for name, values in batch.items()}


def mask(batch: Batch, keep: np.ndarray) -> Batch:
    """Row-select by boolean mask.

    The mask becomes row numbers once, for every column: numpy gathers by
    index several times faster than it compresses by mask (60k ``int64``
    at 50% kept: 28 us against 370 us, plus 48 us for the conversion).
    """
    return take(batch, np.flatnonzero(keep))


def concat_batches(batches: List[Batch]) -> Batch:
    """Vertically concatenate batches with identical column sets."""
    batches = [b for b in batches if b]
    if not batches:
        return {}
    names = list(batches[0])
    for other in batches[1:]:
        if list(other) != names:
            raise ValueError(
                f"cannot concat batches with columns {list(other)} vs {names}"
            )
    return {name: concat([b[name] for b in batches]) for name in names}


def from_rows(schema_names: Sequence[str], rows: Sequence[Sequence]) -> Batch:
    """Build a batch from row tuples (test/fixture convenience)."""
    columns: Batch = {}
    for index, name in enumerate(schema_names):
        values = [row[index] for row in rows]
        if values and isinstance(values[0], bool):
            columns[name] = np.array(values, dtype=bool)
        elif values and isinstance(values[0], int):
            columns[name] = np.array(values, dtype=np.int64)
        elif values and isinstance(values[0], float):
            columns[name] = np.array(values, dtype=np.float64)
        else:
            columns[name] = np.array(values, dtype=object)
    return columns
