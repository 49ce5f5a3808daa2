"""Randomized oracle tests: Polaris vs a plain in-memory reference model.

A seeded stream of random operations — inserts, deletes, updates, explicit
transactions with commits and rollbacks, compactions, checkpoints, GC,
cache invalidation — is applied both to a warehouse and to a trivial
in-memory model (a dict of rows).  After every step the visible table
contents must match the model exactly.  This is the strongest correctness
net in the suite: any divergence in snapshot reconstruction, DV merging,
manifest reconciliation or the commit protocol shows up as a mismatch.
"""

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Schema, TableScan, Warehouse, and_
from repro.dcp import scheduler
from tests.conftest import small_config


class Model:
    """The oracle: committed rows by id, plus a buffer per open txn."""

    def __init__(self):
        self.committed = {}  # id -> value
        self.pending = None  # id -> value while a txn is open

    def visible(self):
        return self.pending if self.pending is not None else self.committed

    def begin(self):
        self.pending = dict(self.committed)

    def commit(self):
        self.committed = self.pending
        self.pending = None

    def rollback(self):
        self.pending = None

    def insert(self, rows):
        self.visible().update(rows)

    def delete_lt(self, bound):
        view = self.visible()
        for key in [k for k in view if k < bound]:
            del view[key]

    def delete_range(self, lo, hi):
        view = self.visible()
        for key in [k for k in view if lo <= k < hi]:
            del view[key]

    def update_range(self, lo, hi, value):
        view = self.visible()
        for key in view:
            if lo <= key < hi:
                view[key] = value


def read_table(session):
    out = session.query(TableScan("t", ("id", "v")))
    return dict(zip(out["id"].tolist(), out["v"].tolist()))


def check(session, model):
    assert read_table(session) == model.visible()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_randomized_against_oracle(seed, si_sanitizer):
    rng = np.random.default_rng(seed)
    config = small_config()
    config.txn.conflict_granularity = "file" if seed % 2 else "table"
    dw = Warehouse(config=config, auto_optimize=bool(seed % 2))
    si_sanitizer(dw)  # verify SI axioms over the whole run at teardown
    session = dw.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
        sort_column="id" if seed % 3 == 0 else None,
    )
    model = Model()
    next_id = 0
    in_txn = False

    for step in range(60):
        op = rng.integers(0, 10)
        if op <= 3:  # insert a batch
            n = int(rng.integers(1, 40))
            ids = np.arange(next_id, next_id + n, dtype=np.int64)
            values = np.round(rng.random(n), 3)
            next_id += n
            session.insert("t", {"id": ids, "v": values})
            model.insert(dict(zip(ids.tolist(), values.tolist())))
        elif op <= 5 and next_id:  # range delete
            lo = int(rng.integers(0, next_id))
            hi = lo + int(rng.integers(1, 30))
            session.delete(
                "t",
                and_(BinOp(">=", Col("id"), Lit(lo)), BinOp("<", Col("id"), Lit(hi))),
                prune=[("id", ">=", lo), ("id", "<", hi)],
            )
            model.delete_range(lo, hi)
        elif op == 6 and next_id:  # range update
            lo = int(rng.integers(0, next_id))
            hi = lo + int(rng.integers(1, 20))
            value = float(round(rng.random(), 3))
            session.update(
                "t",
                and_(BinOp(">=", Col("id"), Lit(lo)), BinOp("<", Col("id"), Lit(hi))),
                {"v": Lit(value)},
                prune=[("id", ">=", lo), ("id", "<", hi)],
            )
            model.update_range(lo, hi, value)
        elif op == 7:  # transaction boundary
            if in_txn:
                if rng.random() < 0.5:
                    session.commit()
                    model.commit()
                else:
                    session.rollback()
                    model.rollback()
                in_txn = False
            else:
                session.begin()
                model.begin()
                in_txn = True
        elif op == 8:  # background machinery must never change visible data
            choice = rng.integers(0, 3)
            if choice == 0:
                dw.sto.run_compaction(1001)
            elif choice == 1:
                dw.sto.run_checkpoint(1001)
            else:
                dw.context.cache.invalidate()
        else:  # garbage collection (only safe without an open txn's view)
            dw.sto.run_gc()
        check(session, model)

    if in_txn:
        session.commit()
        model.commit()
    check(session, model)

    # End-of-run invariants: a fresh session agrees, and so does a cold
    # rebuild after losing every cache.
    fresh = dw.session()
    dw.context.cache.invalidate()
    assert read_table(fresh) == model.committed


@pytest.mark.parametrize("seed", [10, 11])
def test_randomized_with_failures_against_oracle(
    seed, si_sanitizer, monkeypatch
):
    """Same oracle run with task fault injection: retries must hide faults."""
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(scheduler, "TASK_FAILURE_RATE", 0.1)
    monkeypatch.setattr(scheduler, "MAX_TASK_RETRIES", 8)
    config = small_config()
    dw = Warehouse(config=config, auto_optimize=False)
    si_sanitizer(dw)
    session = dw.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    model = Model()
    next_id = 0
    for step in range(25):
        op = rng.integers(0, 3)
        if op == 0 or not next_id:
            n = int(rng.integers(1, 30))
            ids = np.arange(next_id, next_id + n, dtype=np.int64)
            values = np.round(rng.random(n), 3)
            next_id += n
            session.insert("t", {"id": ids, "v": values})
            model.insert(dict(zip(ids.tolist(), values.tolist())))
        elif op == 1:
            lo = int(rng.integers(0, next_id))
            session.delete("t", BinOp("<", Col("id"), Lit(lo)))
            model.delete_lt(lo)
        else:
            lo = int(rng.integers(0, next_id))
            session.update(
                "t", BinOp("<", Col("id"), Lit(lo)), {"v": Lit(0.5)}
            )
            model.update_range(-1, lo, 0.5)
        check(session, model)
    report = dw.sto.run_gc()  # orphans of failed attempts are reclaimable
    check(session, model)
