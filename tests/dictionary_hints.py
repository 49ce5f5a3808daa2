"""Generated string columns in every shape the engine can meet them.

A string column reaches an operator *hinted* (a
:class:`repro.pagefile.encoding.DictArray` carrying codes and a
dictionary) or *plain* (an object array).  The hint may only ever change
speed, so the operator and expression tests run every case twice — on
the generated columns and on the same columns with :func:`strip` applied
— and demand equal outputs.  Test-only; nothing under ``src/`` imports
this.
"""

import numpy as np
from hypothesis import strategies as st

from repro.pagefile import DeletionVector, PageFileReader, Schema, write_page_file
from repro.pagefile.encoding import concat, dict_array, select

#: Includes the empty string, non-ASCII, shared prefixes (so ``Substr``
#: makes equal entries) and case pairs (so ``<`` is not just ``!=``).
WORDS = [
    "", "a", "ab", "abc", "b", "brass", "Brass", "zinc", "żółć", "日本",
    "日本語", "MAIL", "SHIP", "ship", "%", "a_c",
]


def hint_of(values):
    """``(codes, dictionary)`` of a hinted column, else ``None``."""
    codes = getattr(values, "codes", None)
    return None if codes is None else (codes, values.dictionary)


def strip(batch):
    """The same batch with every hint removed: plain ``ndarray`` columns."""
    plain = {name: np.asarray(values) for name, values in batch.items()}
    assert all(type(values) is np.ndarray for values in plain.values())
    return plain


def assert_hint_consistent(values):
    """No hint, or one that tells the truth about every row."""
    hint = hint_of(values)
    if hint is None:
        return
    codes, dictionary = hint
    assert len(codes) == len(values)
    assert np.asarray(values).tolist() == [dictionary[code] for code in codes.tolist()]


def read_strings(items, row_group_size, deleted=()):
    """``items`` written as one page file and read back: hinted when every
    row group chose ``DICT``, plain when any chose ``PLAIN``."""
    schema = Schema.of(("s", "string"))
    data = write_page_file(
        schema, {"s": np.array(items, dtype=object)}, row_group_size=row_group_size
    )
    vector = DeletionVector(deleted) if deleted else None
    return PageFileReader(data).read(deletion_vector=vector)["s"]


@st.composite
def _constructed(draw, rows):
    """A hint built directly: any dictionary, duplicates included."""
    size = draw(st.integers(min_value=1, max_value=6))
    dictionary = np.array(
        draw(st.lists(st.sampled_from(WORDS), min_size=size, max_size=size)),
        dtype=object,
    )
    codes = draw(st.lists(st.integers(0, size - 1), min_size=rows, max_size=rows))
    width = draw(st.sampled_from([np.uint8, np.uint16, np.int32]))
    return dict_array(np.array(codes, dtype=width), dictionary)


@st.composite
def _from_page_file(draw, rows):
    """Through the writer and the reader, so the DICT/PLAIN choice is the
    writer's own: per row group an NDV far below, exactly at or just above
    the ``rows / 2`` threshold; several row groups, whose vocabularies may
    differ and whose encodings may mix; and a deletion vector."""
    deleted_count = draw(st.integers(min_value=0, max_value=3))
    total = rows + deleted_count
    group = draw(st.sampled_from([max(total, 1), 4, 6]))
    ndv = max(1, draw(st.sampled_from([1, 2, group // 2, group // 2 + 1, group])))
    shift = draw(st.integers(min_value=0, max_value=2))
    vocabulary = WORDS + [f"w{i}" for i in range(group + 2 * total)]
    items = []
    for position in range(total):
        number, offset = divmod(position, group)
        # Each group opens with its ``ndv`` words, so its NDV is exact.
        word = offset if offset < ndv else draw(st.integers(0, ndv - 1))
        items.append(vocabulary[number * shift + word])
    deleted = draw(
        st.lists(
            st.integers(0, max(total - 1, 0)),
            min_size=deleted_count,
            max_size=deleted_count,
            unique=True,
        )
    )
    values = read_strings(items, group, deleted)
    assert len(values) == rows
    return values


@st.composite
def string_column(draw, rows):
    """One string column of ``rows`` values: plain, hinted by construction,
    read from a page file, or two of those row-selected and concatenated
    (which merges dictionaries, or drops the hint when one part is plain)."""
    shape = draw(st.sampled_from(["plain", "constructed", "file", "pieces"]))
    if shape == "plain":
        items = draw(st.lists(st.sampled_from(WORDS), min_size=rows, max_size=rows))
        return np.array(items, dtype=object)
    if shape == "constructed":
        return draw(_constructed(rows))
    if shape == "file":
        return draw(_from_page_file(rows))
    head = draw(st.integers(min_value=0, max_value=rows))
    source = draw(string_column(head + 2))
    picked = draw(st.lists(st.integers(0, head + 1), min_size=head, max_size=head))
    first = select(source, np.array(picked, dtype=np.int64))
    return concat([first, draw(string_column(rows - head))])


@st.composite
def string_batch(draw, min_rows=0, max_rows=30, names=("s", "t")):
    """Independent string columns of one length, beside an ``int64`` row
    number (so row order shows) and a float payload."""
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    batch = {name: draw(string_column(rows)) for name in names}
    batch["row"] = np.arange(rows, dtype=np.int64)
    batch["x"] = np.arange(rows, dtype=np.float64) * 0.5
    for name in names:
        assert len(batch[name]) == rows and batch[name].dtype == object
        assert_hint_consistent(batch[name])
    return batch

