#!/usr/bin/env python3
"""Print every ``sys.dm_*`` view of one seeded, fully instrumented run.

    python scripts/dmv_scenario.py [--seed N] > views.txt

Turns every collector on (query store and wait statistics), then drives
a deployment through SQL DDL and DML, gateway requests from two tenants,
ANALYZE and CREATE INDEX, a crash and the recovery pass after it, and a
checkpoint the scrubber repairs.
It then prints ``SELECT * FROM v`` for each view, column by column with
its dtype and full-precision values.  Everything runs on the simulated
clock, so two trees whose views agree print byte-identical output: run
the script in both checkouts and ``diff`` the files.
"""

from __future__ import annotations

import argparse

# Script mode: make ``repro`` importable without an installed package.
if __package__ in (None, ""):
    import os
    import sys

    _SRC = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import numpy as np

from repro import PolarisConfig, Warehouse
from repro.chaos import ChaosController, RecoveryManager, SimulatedCrash
from repro.service import Gateway
from repro.telemetry.introspection import Introspector


def run(seed: int) -> Warehouse:
    """Build the deployment and leave a row in every view."""
    config = PolarisConfig()
    config.seed = seed
    config.telemetry.query_store_enabled = True
    config.telemetry.wait_stats_enabled = True
    dw = Warehouse(config=config)
    session = dw.session()
    session.sql("CREATE TABLE t (id BIGINT, v DOUBLE)")
    for start in range(0, 40, 10):
        values = ", ".join(f"({i}, {i * 0.5})" for i in range(start, start + 10))
        session.sql(f"INSERT INTO t (id, v) VALUES {values}")
        dw.clock.advance(0.7)
    session.sql("SELECT id, v FROM t WHERE v > 3.5")
    session.sql("DELETE FROM t WHERE id < 5")
    session.sql("ANALYZE t")
    session.sql("CREATE INDEX idx_t_id ON t (id)")
    session.sql("SELECT v FROM t WHERE id = 17")

    gateway = Gateway(dw.context)
    gateway.submit("acme", "transactional", "INSERT INTO t (id, v) VALUES (99, 1.0)")
    gateway.submit("acme", "analytical", "SELECT COUNT(*) FROM t")
    gateway.submit("globex", "transactional", "SELECT v FROM t WHERE id = 99")
    gateway.submit("globex", "analytical", "SELECT nope FROM t")
    gateway.run()

    ids = np.arange(100, 120, dtype=np.int64)
    with ChaosController().arm("fe.commit.after_writesets"):
        try:
            dw.session().insert("t", {"id": ids, "v": ids * 1.0})
        except SimulatedCrash:
            pass
    RecoveryManager(dw.context, sto=dw.sto).recover()

    (table_id,) = session.sql("SELECT table_id FROM sys.dm_storage_health")["table_id"]
    checkpoint = dw.sto.run_checkpoint(int(table_id))
    dw.store.damage(checkpoint.path, "bit_flip")
    dw.sto.run_scrub()
    dw.clock.advance(5.0)
    return dw


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    session = run(args.seed).session()
    for view in Introspector.view_names():
        batch = session.sql(f"SELECT * FROM {view}")
        print(f"== {view}")
        for column, values in batch.items():
            print(f"{column} {values.dtype}: {[repr(v) for v in values.tolist()]}")


if __name__ == "__main__":
    main()
