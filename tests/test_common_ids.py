"""Tests for id generation."""

from repro.common.ids import MonotonicSequence, TransactionNames


def test_names_are_txid_and_ordinal_in_hex():
    names = TransactionNames(0x186A5)
    assert names.manifest == "186a5"
    assert [names.next() for _ in range(3)] == ["186a5.0", "186a5.1", "186a5.2"]
    for _ in range(13):
        names.next()
    assert names.next() == "186a5.10"


def test_names_repeat_for_the_same_txid():
    a = TransactionNames(100_000)
    b = TransactionNames(100_000)
    assert [a.next() for _ in range(5)] == [b.next() for _ in range(5)]


def test_names_differ_across_txids():
    names = {TransactionNames(txid).next() for txid in range(100_000, 100_100)}
    assert len(names) == 100


def test_names_unique_within_transaction():
    names = TransactionNames(100_000)
    drawn = [names.next() for _ in range(1000)]
    assert len(set(drawn)) == 1000
    assert names.manifest not in drawn


def test_sequence_is_strictly_increasing():
    seq = MonotonicSequence()
    values = [seq.next() for _ in range(10)]
    assert values == list(range(10))


def test_sequence_start():
    seq = MonotonicSequence(start=100)
    assert seq.next() == 100
    assert seq.last == 100


def test_sequence_last_before_any_next():
    assert MonotonicSequence(start=5).last == 4
