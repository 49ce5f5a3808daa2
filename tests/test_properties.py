"""Property-based tests (hypothesis) for the core invariants of DESIGN.md.

Covered invariants:

1. manifest replay determinism / checkpoint equivalence;
2. snapshot isolation — reads are a function of (begin sequence, own writes);
3. first-committer-wins under arbitrary interleavings;
6. block-blob content equals exactly the committed block list;
7. a transaction's committed manifest never references a private file it
   superseded, whether its statements appended their blocks or rewrote it;
plus deletion-vector algebra and page-file roundtrips.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Warehouse
from repro.common.config import StoConfig
from repro.common.errors import WriteConflictError
from repro.engine.statistics import collect_stats
from repro.fe.transaction import PolarisTransaction
from repro.lst import (
    AddDataFile,
    AddDeletionVector,
    Checkpoint,
    DataFileInfo,
    DeletionVectorInfo,
    RemoveDataFile,
    RemoveDeletionVector,
    TableSnapshot,
    decode_manifest,
    encode_actions,
    reconcile_actions,
    replay,
)
from repro.pagefile import DeletionVector, PageFileReader, Schema, write_page_file
from repro.sqldb import SqlDbEngine
from repro.storage import ObjectStore
from tests.conftest import small_config

# -- deletion vectors -----------------------------------------------------------

positions = st.lists(st.integers(min_value=0, max_value=5000), max_size=200)


@given(positions)
def test_dv_roundtrip(points):
    dv = DeletionVector(points)
    assert DeletionVector.from_bytes(dv.to_bytes()) == dv


@given(positions, positions)
def test_dv_union_is_set_union(a, b):
    merged = DeletionVector(a).union(DeletionVector(b))
    assert set(merged) == set(a) | set(b)


@given(positions, positions)
def test_dv_union_commutes(a, b):
    assert DeletionVector(a).union(DeletionVector(b)) == DeletionVector(b).union(
        DeletionVector(a)
    )


@given(positions)
def test_dv_union_idempotent(a):
    dv = DeletionVector(a)
    assert dv.union(dv) == dv


@given(positions, st.integers(0, 5000), st.integers(0, 5000))
def test_dv_range_query_matches_filter(points, lo, hi):
    dv = DeletionVector(points)
    expected = sorted({p for p in points if lo <= p < hi})
    assert dv.positions_in_range(lo, hi).tolist() == expected


# -- page files --------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**40), max_value=2**40),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=20),
        ),
        max_size=300,
    ),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=50, deadline=None)
def test_pagefile_roundtrip(rows, row_group_size):
    schema = Schema.of(("i", "int64"), ("f", "float64"), ("s", "string"))
    columns = {
        "i": np.array([r[0] for r in rows], dtype=np.int64),
        "f": np.array([r[1] for r in rows], dtype=np.float64),
        "s": np.array([r[2] for r in rows], dtype=object),
    }
    data = write_page_file(schema, columns, row_group_size=row_group_size)
    out = PageFileReader(data).read()
    np.testing.assert_array_equal(out["i"], columns["i"])
    np.testing.assert_array_equal(out["f"], columns["f"])
    assert out["s"].tolist() == columns["s"].tolist()


@given(
    st.integers(min_value=0, max_value=100),
    st.sets(st.integers(min_value=0, max_value=99), max_size=100),
    st.integers(min_value=1, max_value=32),
)
@settings(max_examples=50, deadline=None)
def test_pagefile_dv_filtering_matches_mask(n, deleted, row_group_size):
    deleted = {d for d in deleted if d < n}
    schema = Schema.of(("i", "int64"))
    data = write_page_file(
        schema, {"i": np.arange(n, dtype=np.int64)}, row_group_size=row_group_size
    )
    out = PageFileReader(data).read(deletion_vector=DeletionVector(deleted))
    assert set(out["i"].tolist()) == set(range(n)) - deleted


# -- manifest replay -----------------------------------------------------------------


def _files(names):
    return [
        DataFileInfo(name=n, path=f"p/{n}", num_rows=10, size_bytes=80, distribution=0)
        for n in names
    ]


@st.composite
def manifest_histories(draw):
    """Random valid manifest histories: adds, removes, DV add/replace."""
    history = []
    live = {}  # name -> has_dv
    counter = 0
    steps = draw(st.integers(min_value=1, max_value=15))
    for seq in range(1, steps + 1):
        actions = []
        choice = draw(st.integers(0, 2))
        if choice == 0 or not live:
            counter += 1
            name = f"f{counter}"
            actions.append(AddDataFile(_files([name])[0]))
            live[name] = None
        elif choice == 1:
            # One commit may retire several files (as compaction does),
            # some with a DV.
            names = draw(
                st.lists(st.sampled_from(sorted(live)), min_size=1, unique=True)
            )
            for name in names:
                actions.append(RemoveDataFile(name))
                del live[name]
        else:
            name = draw(st.sampled_from(sorted(live)))
            counter += 1
            new_dv = DeletionVectorInfo(
                name=f"d{counter}", path=f"p/d{counter}", target_file=name,
                cardinality=1, size_bytes=8,
            )
            if live[name] is not None:
                actions.append(RemoveDeletionVector(live[name].name, name))
            actions.append(AddDeletionVector(new_dv))
            live[name] = new_dv
        history.append((seq, float(seq), actions))
    return history


@given(manifest_histories(), st.integers(min_value=0, max_value=15))
@settings(max_examples=100, deadline=None)
def test_checkpoint_equivalence(history, cut):
    """Invariant 1: checkpoint + tail replay ≡ full replay, at any cut."""
    cut = min(cut, len(history))
    full = replay(history)
    prefix = replay(history[:cut])
    restored = Checkpoint.from_bytes(Checkpoint.of(prefix, 0.0).to_bytes()).snapshot
    resumed = replay(history[cut:], base=restored)
    assert resumed.files == full.files
    assert resumed.dvs == full.dvs


@given(manifest_histories())
@settings(max_examples=50, deadline=None)
def test_replay_deterministic(history):
    assert replay(history).files == replay(history).files


@given(manifest_histories())
@settings(max_examples=50, deadline=None)
def test_manifest_wire_roundtrip(history):
    for __, __, actions in history:
        assert decode_manifest(encode_actions(actions)) == actions


@given(manifest_histories())
@settings(max_examples=50, deadline=None)
def test_reconcile_net_actions_replayable(history):
    """Reconciled actions of any accumulated statement list must replay
    cleanly onto an empty table (private files only)."""
    all_actions = [a for __, __, actions in history for a in actions]
    # Keep only actions about private (this-transaction) objects: the
    # histories above start from empty, so everything is private.
    net, orphans = reconcile_actions(all_actions)
    snapshot = TableSnapshot().apply_manifest(net, 1)
    live_paths = {f.path for f in snapshot.files.values()}
    live_paths |= {d.path for d in snapshot.dvs.values()}
    # Orphans are disjoint from what the manifest still references.
    assert not (set(orphans) & live_paths)


def _dv(name, target):
    return DeletionVectorInfo(
        name=name, path=f"p/{name}", target_file=target, cardinality=1, size_bytes=8
    )


@st.composite
def transaction_statements(draw):
    """A committed table and the statements of one transaction against it.

    Each statement is ``(kind, blocks)``, the blocks shaped as its tasks
    stage them: an insert adds one file per block; a delete gives each
    file it reaches a fresh DV (removing the one the file had) and, as an
    update, may add a file of rewritten rows; a compaction's blocks each
    remove some files in name order and add one.  A delete that replaces
    a DV this transaction wrote, or a compaction of a file it wrote, gave
    a DV or replaced the DV of, cancels one of its own writes.
    """
    names = [f"c{i}" for i in range(draw(st.integers(0, 4)))]
    live = {name: None for name in names}  # name -> current DV name
    base_actions = [AddDataFile(info) for info in _files(names)]
    for name in names:
        if draw(st.booleans()):
            live[name] = f"cd{name}"
            base_actions.append(AddDeletionVector(_dv(live[name], name)))
    base = TableSnapshot().apply_manifest(base_actions, 1)
    counter = 0

    def new_file():
        nonlocal counter
        counter += 1
        live[f"f{counter}"] = None
        return AddDataFile(_files([f"f{counter}"])[0])

    statements = []
    for __ in range(draw(st.integers(min_value=1, max_value=6))):
        kinds = ["insert", "delete", "compact"] if live else ["insert"]
        kind = draw(st.sampled_from(kinds))
        if kind == "insert":
            statements.append(
                (kind, [[new_file()] for __ in range(draw(st.integers(1, 3)))])
            )
            continue
        reached = draw(
            st.lists(st.sampled_from(sorted(live)), min_size=1, unique=True)
        )
        blocks = []
        if kind == "delete":
            for name in reached:
                counter += 1
                block = []
                if live[name] is not None:
                    block.append(RemoveDeletionVector(live[name], name))
                block.append(AddDeletionVector(_dv(f"d{counter}", name)))
                live[name] = f"d{counter}"
                if draw(st.booleans()):
                    block.append(new_file())
                blocks.append(block)
        else:
            cut = draw(st.integers(min_value=1, max_value=len(reached)))
            for victims in (reached[:cut], reached[cut:]):
                if victims:
                    for name in victims:
                        del live[name]
                    removes = [RemoveDataFile(name) for name in sorted(victims)]
                    blocks.append(removes + [new_file()])
        statements.append((kind, blocks))
    return base, statements


@pytest.fixture(scope="module")
def flush_context():
    """One warehouse for every example: each transaction is rolled back."""
    return Warehouse(config=small_config(), auto_optimize=False).context


@given(case=transaction_statements())
@settings(max_examples=100, deadline=None)
def test_appending_and_rewriting_commit_the_same_table(flush_context, case):
    """A statement that cancels none of its transaction's writes appends
    its blocks; the committed manifest then replays exactly as the
    reconciled one would — files, DVs and stats.
    A statement that does cancel one takes the rewrite path, which
    returns every orphan reconciliation finds."""
    base, statements = case
    txn = PolarisTransaction(flush_context)
    try:
        writer = txn.manifest_writer(1)
        returned = []
        for kind, blocks in statements:
            ids = [writer.write_block(encode_actions(block)) for block in blocks]
            actions = [action for block in blocks for action in block]
            if kind == "insert":
                txn.flush_insert(1, ids, actions)
            else:
                returned.extend(txn.flush_rewrite(1, ids, actions))
        state = txn.write_state(1)
        committed = decode_manifest(
            flush_context.store.get(state.manifest_path).data
        )
    finally:
        txn.rollback()
    assert state.actions == committed

    appended = [a for __, blocks in statements for block in blocks for a in block]
    net, orphans = reconcile_actions(appended)
    assert sorted(returned) == sorted(orphans)
    if not orphans and len(net) == len(appended):
        assert committed == appended
    ours = base.apply_manifest(committed, 2)
    theirs = base.apply_manifest(net, 2)
    assert ours.files == theirs.files
    assert ours.dvs == theirs.dvs
    sto = StoConfig()
    assert collect_stats(1, ours, sto) == collect_stats(1, theirs, sto)


# -- block blob semantics ----------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.binary(max_size=32)),
        min_size=1,
        max_size=20,
        unique_by=lambda t: t[0],
    ),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_block_blob_content_is_committed_list(blocks, data):
    """Invariant 6: blob content == concatenation of committed ids, only."""
    store = ObjectStore()
    for block_id, payload in blocks:
        store.stage_block("m", block_id, payload)
    ids = [b[0] for b in blocks]
    chosen = data.draw(st.permutations(ids).map(lambda p: p[: len(p) // 2 + 1]))
    store.commit_block_list("m", list(chosen))
    by_id = dict(blocks)
    assert store.get("m").data == b"".join(by_id[i] for i in chosen)


# -- first committer wins --------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4)),  # (txn index, key)
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_first_committer_wins_any_interleaving(schedule):
    """Invariant 3: of concurrent txns writing one key, exactly one commits."""
    engine = SqlDbEngine()
    txns = [engine.begin() for __ in range(4)]
    wrote = [set() for __ in range(4)]
    for txn_index, key in schedule:
        txns[txn_index].put("T", (key,), {"by": txn_index})
        wrote[txn_index].add(key)
    outcomes = []
    for index, txn in enumerate(txns):
        if not wrote[index]:
            txn.abort()
            outcomes.append(None)
            continue
        try:
            txn.commit()
            outcomes.append(True)
        except WriteConflictError:
            outcomes.append(False)
    # All four transactions are mutually concurrent (all began before any
    # committed), so: (a) per key at most one of its writers commits, and
    # (b) the first transaction to attempt commit always succeeds.
    for key in range(5):
        committed_writers = [
            i for i in range(4) if key in wrote[i] and outcomes[i]
        ]
        assert len(committed_writers) <= 1
    first_writer = next((i for i in range(4) if wrote[i]), None)
    if first_writer is not None:
        assert outcomes[first_writer] is True


@given(st.lists(st.sampled_from(["a", "b"]), min_size=2, max_size=10))
@settings(max_examples=50, deadline=None)
def test_si_reads_pinned_to_begin(operations):
    """Invariant 2: an SI reader's view never changes mid-transaction."""
    engine = SqlDbEngine()
    setup = engine.begin()
    setup.put("T", (0,), {"v": 0})
    setup.commit()
    reader = engine.begin()
    first_view = reader.get("T", (0,))
    for op in operations:
        writer = engine.begin()
        writer.put("T", (0,), {"v": op})
        writer.commit()
        assert reader.get("T", (0,)) == first_view
