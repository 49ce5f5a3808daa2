#!/usr/bin/env python3
"""Bytes one polaris-bench round writes, by blob kind and manifest action.

    python scripts/write_bytes.py txn_contention --seed 41 [--quick]

Sets the workload up and runs its round 0 — the writes the workload's
``write_amp`` divides by user bytes, for workloads that build a fresh
warehouse per round — with ``ObjectStore.put`` and
``ObjectStore.stage_block`` wrapped in this process, so nothing in the
engine or the benchmark changes.  It prints the written bytes per blob
kind (data, dv, manifest, checkpoint, index, other), then the manifest
JSON bytes per action kind (``add_file``, ``remove_file``, ``add_dv``,
``remove_dv``) with their line counts, the manifest and checkpoint bytes
as stored (deflate frames, ``repro.lst.codec``) and as inflated JSON,
and the ``add_file`` lines written per data file (1.0 when each is
written once).  A "line" is one action's compact JSON inside its block's
array; its bytes count one separator.  Last come the data files' chunk
bytes as stored (compressed), with chunk counts, split by chunk encoding
(RAW, FOR, DICT, PLAIN, DEC) and by column type; footers, magic and
trailers are not counted there, but in the line before: data-file bytes
split into chunks, footers and framing (the magic at both ends, the
footer length and crc32).  The counts and bytes repeat exactly for a
seed.

    python scripts/write_bytes.py tpch_power --seed 0 --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib
from collections import Counter
from typing import Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from benchmarks.e2e.harness import load_spec  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
from repro.lst.codec import decode_frames  # noqa: E402
from repro.pagefile import encoding  # noqa: E402
from repro.pagefile.file_format import read_footer  # noqa: E402
from repro.pagefile.schema import SUPPORTED_TYPES  # noqa: E402
from repro.storage.object_store import ObjectStore  # noqa: E402

#: Path fragment that marks each blob kind (see ``repro.storage.paths``).
KINDS = (
    ("data", "/data/"),
    ("dv", "/dv/"),
    ("manifest", "/_manifests/"),
    ("checkpoint", "/_checkpoints/"),
    ("index", "/_indexes/"),
)

#: Chunk encoding tag -> name (``repro.pagefile.encoding``).
ENCODINGS = {
    getattr(encoding, name): name for name in ("RAW", "FOR", "DICT", "PLAIN", "DEC")
}


def blob_kind(path: str) -> str:
    """The kind of blob stored at ``path``; ``other`` for published
    metadata, quarantine copies and anything else."""
    if path.startswith("quarantine/"):
        return "other"
    for kind, fragment in KINDS:
        if fragment in path:
            return kind
    return "other"


class WriteLog:
    """Written bytes and write counts by blob kind and by manifest action."""

    def __init__(self) -> None:
        self.bytes: Counter = Counter()
        self.writes: Counter = Counter()
        self.action_bytes: Counter = Counter()
        self.action_lines: Counter = Counter()
        #: Manifest and checkpoint bytes once inflated, by blob kind.
        self.inflated: Counter = Counter()
        #: Data-file chunks and their stored bytes, by encoding and by
        #: column type.
        self.chunks: Counter = Counter()
        self.chunk_bytes: Counter = Counter()
        #: Data-file bytes by part: chunks, footer, framing.
        self.data_parts: Counter = Counter()

    def record(self, path: str, data: bytes) -> None:
        """Attribute one ``put`` or staged block."""
        kind = blob_kind(path)
        self.bytes[kind] += len(data)
        self.writes[kind] += 1
        if kind == "data":
            self.record_chunks(path, data)
        if kind not in ("manifest", "checkpoint"):
            return
        for payload in decode_frames(data, f"{kind} {path}"):
            self.inflated[kind] += len(payload)
            if kind == "manifest":
                for action in json.loads(payload):
                    name = action.get("action", "?")
                    line = json.dumps(action, separators=(",", ":"))
                    self.action_bytes[name] += len(line) + 1
                    self.action_lines[name] += 1

    def record_chunks(self, path: str, data: bytes) -> None:
        """Attribute each chunk of data file ``data`` to its encoding (the
        first byte it inflates to) and to its column's type."""
        meta = read_footer(data, source=path)
        columns = len(meta.types)
        for chunk, (offset, length) in enumerate(zip(meta.offsets, meta.lengths)):
            tag = zlib.decompressobj().decompress(data[offset : offset + length], 1)
            type_ = meta.types[chunk % columns]
            for key in (ENCODINGS[tag[0]], type_):
                self.chunks[key] += 1
                self.chunk_bytes[key] += length
        chunks = sum(meta.lengths)
        self.data_parts["chunks"] += chunks
        self.data_parts["footer"] += len(meta.footer)
        self.data_parts["framing"] += len(data) - chunks - len(meta.footer)


def measure(workload_name: str, seed: int, quick: bool) -> Tuple[WriteLog, List[str]]:
    """Set ``workload_name`` up and run its round 0 with writes logged;
    returns the log and the workload's failed answer checks."""
    log = WriteLog()
    put, stage_block = ObjectStore.put, ObjectStore.stage_block

    def logged_put(self, path, data, *args, **kwargs):
        log.record(path, data)
        return put(self, path, data, *args, **kwargs)

    def logged_stage_block(self, path, block_id, data):
        log.record(path, data)
        return stage_block(self, path, block_id, data)

    workload = WORKLOADS[workload_name](seed, quick)
    ObjectStore.put, ObjectStore.stage_block = logged_put, logged_stage_block
    try:
        state = workload.setup()
        workload.run_round(state, 0)
    finally:
        ObjectStore.put, ObjectStore.stage_block = put, stage_block
    return log, workload.problems


def _table(title: str, rows: Dict[str, tuple], total: int) -> None:
    print(title)
    for name, (count, size) in rows.items():
        share = size / total if total else 0.0
        per = size / count if count else 0.0
        print(f"  {name:<12} {count:>8} {size:>12,} B {share:>7.1%} {per:>9.1f} B each")


def main() -> int:
    workloads = [entry["name"] for entry in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--quick", action="store_true", help="the workload's quick (smoke) size"
    )
    args = parser.parse_args()
    log, problems = measure(args.workload, args.seed, args.quick)
    total = sum(log.bytes.values())
    mode = ", quick" if args.quick else ""
    print(f"{args.workload} seed {args.seed}{mode}: set-up + round 0 wrote {total:,} B")
    kinds = [kind for kind, _ in KINDS] + ["other"]
    _table(
        "by blob kind (writes, bytes, share, bytes per write)",
        {kind: (log.writes[kind], log.bytes[kind]) for kind in kinds},
        total,
    )
    _table(
        "manifest JSON bytes by action kind (lines, bytes, share, bytes per line)",
        {
            action: (log.action_lines[action], log.action_bytes[action])
            for action in sorted(log.action_lines)
        },
        log.inflated["manifest"],
    )
    for kind in ("manifest", "checkpoint"):
        stored, inflated = log.bytes[kind], log.inflated[kind]
        ratio = stored / inflated if inflated else 0.0
        print(
            f"{kind}s: {inflated:,} B of JSON stored as {stored:,} B ({ratio:.1%})"
        )
    _table(
        "data-file bytes by part (files, bytes, share, bytes per file)",
        {part: (log.writes["data"], log.data_parts[part]) for part in log.data_parts},
        log.bytes["data"],
    )
    chunk_total = sum(log.chunk_bytes[name] for name in ENCODINGS.values())
    splits = (("encoding", ENCODINGS.values()), ("column type", SUPPORTED_TYPES))
    for title, keys in splits:
        _table(
            f"data-file chunk bytes by {title} (chunks, bytes, share, bytes per chunk)",
            {key: (log.chunks[key], log.chunk_bytes[key]) for key in keys},
            chunk_total,
        )
    files = log.writes["data"]
    per_file = log.action_lines["add_file"] / files if files else 0.0
    print(
        f"add_file lines per data file: {log.action_lines['add_file']:,} / "
        f"{files:,} = {per_file:.3f}"
    )
    for problem in problems:
        print(f"answer check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
