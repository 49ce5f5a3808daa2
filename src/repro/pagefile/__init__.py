"""Immutable columnar file format (the reproduction's Parquet stand-in).

The paper stores table data in Parquet.  What the transaction machinery
actually requires of the format is:

* immutability — files are written once, then only referenced or logically
  removed by manifests;
* columnar layout with row groups, so scans can project columns and skip
  row groups via min/max statistics;
* a sidecar *deletion vector* format marking rows of a data file as deleted
  without rewriting it (merge-on-read, Section 2.1).

``pagefile`` implements exactly that: a footer-indexed binary format
(revision ``RPF2``) whose column chunks are dictionary-, frame-of-
reference- or plain-text-encoded under zlib, per-row-group zone maps in a
flat binary footer, and a compressed bitmap deletion-vector file.
Because the files are immutable, a deployment keeps the decompressed
bytes of the chunks it has scanned in one bounded :class:`ChunkCache`; a
hit there saves a ``zlib.decompress`` and nothing else.
"""

from repro.pagefile.cache import ChunkCache
from repro.pagefile.deletion_vector import DeletionVector
from repro.pagefile.file_format import PageFile, write_page_file
from repro.pagefile.reader import PageFileReader
from repro.pagefile.schema import Field, Schema

__all__ = [
    "ChunkCache",
    "DeletionVector",
    "Field",
    "PageFile",
    "PageFileReader",
    "Schema",
    "write_page_file",
]
