"""Coverage for the supporting modules: retry, channels, paths, cost model,
catalog helpers, and session edge cases."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.common.clock import SimulatedClock
from repro.common.config import DcpConfig, PolarisConfig
from repro.common.errors import CatalogError, TransientStorageError
from repro.dcp.channels import ChannelStats, estimate_batch_bytes
from repro.dcp import costmodel
from repro.dcp.costmodel import CostModel
from repro.fe import catalog as ddl
from repro.storage import paths
from repro.storage.retry import with_retries
from tests.conftest import small_config


class TestRetry:
    def test_success_first_try(self):
        assert with_retries(lambda: 42) == 42

    def test_retries_until_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientStorageError("try again")
            return "done"

        assert with_retries(flaky, attempts=5) == "done"
        assert calls["n"] == 3

    def test_exhausted_reraises(self):
        def always():
            raise TransientStorageError("no luck")

        with pytest.raises(TransientStorageError):
            with_retries(always, attempts=2)

    def test_non_transient_errors_propagate_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("bug")

        with pytest.raises(ValueError):
            with_retries(broken)
        assert calls["n"] == 1


class TestChannels:
    def test_numeric_batch_bytes(self):
        batch = {"a": np.zeros(100, dtype=np.int64)}
        assert estimate_batch_bytes(batch) == 800

    def test_string_batch_bytes_estimated(self):
        batch = {"s": np.array(["hello"] * 10, dtype=object)}
        size = estimate_batch_bytes(batch)
        assert 50 <= size <= 200

    def test_empty_batch(self):
        assert estimate_batch_bytes({}) == 0
        assert estimate_batch_bytes({"s": np.empty(0, dtype=object)}) == 0

    def test_channel_stats_accumulate(self):
        stats = ChannelStats()
        stats.record("shuffle", 100)
        stats.record("shuffle", 50)
        stats.record("result", 10)
        assert stats.transfers == {"shuffle": 150, "result": 10}
        assert stats.total_bytes == 160


class TestPaths:
    def test_layout_is_table_scoped(self):
        root = paths.table_root("db", 1001)
        assert paths.data_file_path("db", 1001, "f.rpf").startswith(root)
        assert paths.dv_file_path("db", 1001, "d.rdv").startswith(root)
        assert paths.manifest_path("db", 1001, "m").startswith(root)
        assert paths.checkpoint_path("db", 1001, 5).startswith(root)

    def test_checkpoint_paths_sort_by_sequence(self):
        a = paths.checkpoint_path("db", 1, 9)
        b = paths.checkpoint_path("db", 1, 10)
        assert a < b  # zero-padded

    def test_published_paths_are_user_visible(self):
        assert paths.published_root("db", "t").startswith("published/")
        assert "_delta_log" in paths.published_delta_log_path("db", "t", 0)

    def test_delta_log_versions_sort(self):
        assert paths.published_delta_log_path("db", "t", 2) < \
            paths.published_delta_log_path("db", "t", 10)


class TestCostModel:
    def setup_method(self):
        self.model = CostModel(DcpConfig())

    def test_zero_work_is_overhead_only(self):
        assert self.model.task_duration(0, 0, 0) == costmodel.TASK_OVERHEAD_S

    def test_rows_dominate_at_scale(self):
        small = self.model.task_duration(1_000, 1, 0)
        big = self.model.task_duration(10_000_000, 1, 0)
        assert big > small * 10

    def test_files_add_fixed_cost(self):
        one = self.model.task_duration(0, 1, 0)
        ten = self.model.task_duration(0, 10, 0)
        assert ten > one

    def test_bytes_add_transfer_cost(self):
        assert self.model.task_duration(0, 0, 100 * 1024 * 1024) > \
            self.model.task_duration(0, 0, 0)


class TestCatalogHelpers:
    @pytest.fixture
    def dw(self):
        return Warehouse(config=small_config(), auto_optimize=False)

    def test_describe_unknown_table(self, dw):
        txn = dw.context.sqldb.begin()
        with pytest.raises(CatalogError, match="unknown table"):
            ddl.describe_table(txn, "ghost")
        txn.abort()

    def test_duplicate_create_rejected(self, dw):
        session = dw.session()
        schema = Schema.of(("id", "int64"))
        session.create_table("t", schema)
        with pytest.raises(CatalogError, match="already exists"):
            session.create_table("t", schema)

    def test_unknown_distribution_column_rejected(self, dw):
        session = dw.session()
        with pytest.raises(CatalogError, match="distribution column"):
            session.create_table("t", Schema.of(("id", "int64")),
                                 distribution_column="nope")

    def test_failed_create_rolls_back(self, dw):
        session = dw.session()
        with pytest.raises(CatalogError):
            session.create_table("t", Schema.of(("id", "int64")),
                                 distribution_column="nope")
        # The failed auto-commit statement left nothing behind.
        assert session.table_names() == []

    def test_table_names_sorted(self, dw):
        session = dw.session()
        for name in ("zeta", "alpha", "mid"):
            session.create_table(name, Schema.of(("id", "int64")))
        assert session.table_names() == ["alpha", "mid", "zeta"]

    def test_table_schema_roundtrip(self, dw):
        session = dw.session()
        schema = Schema.of(("id", "int64"), ("s", "string"))
        session.create_table("t", schema)
        txn = dw.context.sqldb.begin()
        row = ddl.describe_table(txn, "t")
        txn.abort()
        assert ddl.table_schema(row) == schema


class TestSessionEdgeCases:
    @pytest.fixture
    def dw(self):
        return Warehouse(config=small_config(), auto_optimize=False)

    def test_failed_statement_rolls_back_autocommit(self, dw):
        session = dw.session()
        session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        with pytest.raises(Exception):
            session.insert("t", {"bogus": np.arange(3)})
        # No half-applied statement: table still empty and session healthy.
        session.insert("t", {"id": np.arange(3, dtype=np.int64),
                             "v": np.zeros(3)})
        snapshot = session.table_snapshot("t")
        assert snapshot.live_rows == 3

    def test_failed_statement_poisons_nothing_in_explicit_txn(self, dw):
        session = dw.session()
        session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        session.begin()
        session.insert("t", {"id": np.arange(3, dtype=np.int64), "v": np.zeros(3)})
        with pytest.raises(Exception):
            session.insert("t", {"bogus": np.arange(3)})
        # Statement failed before any physical writes: txn still usable.
        session.commit()
        assert session.table_snapshot("t").live_rows == 3

    def test_in_transaction_flag(self, dw):
        session = dw.session()
        assert not session.in_transaction
        session.begin()
        assert session.in_transaction
        session.rollback()
        assert not session.in_transaction

    def test_two_sessions_are_independent(self, dw):
        a, b = dw.session(), dw.session()
        a.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        a.begin()
        a.insert("t", {"id": np.arange(2, dtype=np.int64), "v": np.zeros(2)})
        # b is not inside a's transaction.
        assert not b.in_transaction
        b.insert("t", {"id": np.arange(10, 12, dtype=np.int64), "v": np.zeros(2)})
        a.commit()
        assert dw.session().table_snapshot("t").live_rows == 4


class TestWarehouseFacade:
    def test_passthrough_properties(self):
        dw = Warehouse(config=small_config(), auto_optimize=False)
        assert isinstance(dw.clock, SimulatedClock)
        assert dw.store is dw.context.store
        assert isinstance(dw.config, PolarisConfig)

    def test_isolated_deployments(self):
        a = Warehouse(config=small_config())
        b = Warehouse(config=small_config())
        a.session().create_table("t", Schema.of(("id", "int64")))
        assert b.session().table_names() == []
