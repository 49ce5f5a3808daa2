"""Tests for automatic statement retry on commit conflicts."""

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Schema, Warehouse, WriteConflictError
from repro.fe import session as fe_session
from tests.conftest import small_config


def ids(n, start=0):
    return {"id": np.arange(start, start + n, dtype=np.int64), "v": np.zeros(n)}


def make_dw(monkeypatch, retries):
    monkeypatch.setattr(fe_session, "COMMIT_RETRIES", retries)
    config = small_config()
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    session.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id",
    )
    session.insert("t", ids(100))
    return dw, session


class ConflictOnFirstAttempt:
    """A statement whose first execution races a conflicting committer.

    Models an autonomous compaction (or any system transaction) committing
    between the statement's writes and its commit — the scenario
    Section 5.1 warns about.
    """

    def __init__(self, dw):
        self.dw = dw
        self.calls = 0

    def __call__(self, txn):
        from repro.fe import write_path
        from repro.fe.catalog import describe_table

        self.calls += 1
        table_row = describe_table(txn.root, "t")
        deleted = write_path.execute_delete(
            self.dw.context, txn, table_row, BinOp("==", Col("id"), Lit(7))
        )
        if self.calls == 1:
            # A concurrent transaction updates the same table and commits
            # first; this statement's commit will hit the WriteSets row.
            rival = self.dw.session()
            rival.delete("t", BinOp("==", Col("id"), Lit(50)))
        return deleted


def test_autocommit_retries_conflicting_statement(monkeypatch):
    dw, session = make_dw(monkeypatch, retries=2)
    statement = ConflictOnFirstAttempt(dw)
    result = session._run(statement)
    assert result == 1
    assert statement.calls == 2  # first attempt conflicted, second won
    snapshot = session.table_snapshot("t")
    assert snapshot.live_rows == 98  # both the rival's and our delete


def test_no_retries_propagates_conflict(monkeypatch):
    dw, session = make_dw(monkeypatch, retries=0)
    statement = ConflictOnFirstAttempt(dw)
    with pytest.raises(WriteConflictError):
        session._run(statement)
    assert statement.calls == 1


def test_retry_budget_exhausted(monkeypatch):
    dw, session = make_dw(monkeypatch, retries=1)

    class AlwaysConflict(ConflictOnFirstAttempt):
        def __call__(self, txn):
            self.calls += 1
            from repro.fe import write_path
            from repro.fe.catalog import describe_table

            table_row = describe_table(txn.root, "t")
            deleted = write_path.execute_delete(
                self.dw.context, txn, table_row,
                BinOp("==", Col("id"), Lit(7 + self.calls)),
            )
            rival = self.dw.session()
            rival.delete("t", BinOp("==", Col("id"), Lit(40 + self.calls)))
            return deleted

    statement = AlwaysConflict(dw)
    with pytest.raises(WriteConflictError):
        session._run(statement)
    assert statement.calls == 2  # initial + one retry


def test_explicit_transactions_never_retried(monkeypatch):
    dw, session = make_dw(monkeypatch, retries=5)
    session.begin()
    session.delete("t", BinOp("==", Col("id"), Lit(1)))
    rival = dw.session()
    rival.delete("t", BinOp("==", Col("id"), Lit(2)))
    with pytest.raises(WriteConflictError):
        session.commit()


def test_retry_count_visible_on_transaction(monkeypatch):
    dw, session = make_dw(monkeypatch, retries=2)
    statement = ConflictOnFirstAttempt(dw)
    captured = []
    original = statement.__call__

    def wrapped(txn):
        captured.append(txn.retries)
        return original(txn)

    statement.__call__ = wrapped  # type: ignore[method-assign]
    session._run(statement.__call__)
    assert captured == [0, 1]
