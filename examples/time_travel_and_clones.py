"""Lineage features: Query As Of, zero-copy clones, backup and restore.

The scenario the paper's Section 6 motivates: an analyst fat-fingers a
DELETE against the orders table.  Because log-structured tables keep every
version within retention, recovery is a metadata operation:

1. *Query As Of* inspects the table as it was before the accident;
2. a *Clone As Of* materializes (zero-copy) the pre-accident state next to
   the live table for reconciliation;
3. a point-in-time *restore* puts the whole database back — in seconds,
   copying no data — and garbage collection later reclaims the orphans.

Run:  python examples/time_travel_and_clones.py
"""

import numpy as np

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse


def count_and_total(table: str):
    return Aggregate(
        TableScan(table, ("order_id", "amount")),
        (),
        {"orders": ("count", None), "total": ("sum", Col("amount"))},
    )


def main() -> None:
    dw = Warehouse(database="lineage-demo")
    session = dw.session()

    session.create_table(
        "orders",
        Schema.of(("order_id", "int64"), ("region", "string"), ("amount", "float64")),
        distribution_column="order_id",
    )
    rng = np.random.default_rng(1)
    n = 5_000
    session.insert(
        "orders",
        {
            "order_id": np.arange(n, dtype=np.int64),
            "region": np.array(
                [["emea", "amer", "apac"][i % 3] for i in range(n)], dtype=object
            ),
            "amount": np.round(rng.gamma(2.0, 150.0, n), 2),
        },
    )
    out = session.query(count_and_total("orders"))
    print(f"loaded: {out['orders'][0]} orders, total {out['total'][0]:,.2f}")
    backup = dw.backup()
    good_time = dw.clock.now

    # -- the accident: meant WHERE region = 'apac' AND amount < 10 ... ---------
    session.delete("orders", BinOp(">", Col("amount"), Lit(10.0)))
    out = session.query(count_and_total("orders"))
    print(f"after bad DELETE: {out['orders'][0]} orders left")

    # -- 1. Query As Of: look at the past without restoring ---------------------
    historic = session.query(count_and_total("orders"), as_of=good_time)
    print(f"query as of t={good_time:.1f}: {historic['orders'][0]} orders "
          "(history intact)")

    # -- 2. Clone As Of: materialize the good state, zero copy -------------------
    session.clone_table("orders", "orders_before_accident", as_of=good_time)
    cloned = session.query(count_and_total("orders_before_accident"))
    print(f"clone as of: {cloned['orders'][0]} orders, no data copied")

    # The clone is a real table: it can evolve independently.
    clone_session = dw.session()
    clone_session.delete(
        "orders_before_accident", BinOp("==", Col("region"), Lit("apac"))
    )
    print("clone edited independently; source untouched:",
          int(session.query(count_and_total("orders"))["orders"][0]), "orders")

    # -- 3. point-in-time restore -------------------------------------------------
    dw.restore(backup, as_of=good_time)
    restored = dw.session().query(count_and_total("orders"))
    print(f"after restore: {restored['orders'][0]} orders, "
          f"total {restored['total'][0]:,.2f}")

    # The accident's files are unreferenced now; GC reclaims them.
    report = dw.sto.run_gc()
    print(f"garbage collection removed {report.deleted_total} unreferenced files")


if __name__ == "__main__":
    main()
