"""TPC-H queries as SQL text, for the subset expressible in the dialect.

The plan-builder twins live in :mod:`repro.workloads.tpch.queries`;
``tests/test_sql_tpch.py`` asserts text and plan produce identical
results through the full warehouse stack.  The texts also serve as the
query-store fingerprint corpus (distinct shapes must never collide).
"""

from __future__ import annotations

from typing import Dict

Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1.0 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty,
       AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""

Q3_SQL = """
SELECT l_orderkey, o_orderdate, o_shippriority,
       SUM(l_extendedprice * (1.0 - l_discount)) AS revenue
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < DATE '1995-03-15'
  AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10
"""

Q6_SQL = """
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24.0
"""

Q10_SQL = """
SELECT c_custkey, c_name, c_acctbal, n_name,
       SUM(l_extendedprice * (1.0 - l_discount)) AS revenue
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
WHERE l_returnflag = 'R'
  AND o_orderdate >= DATE '1993-10-01'
  AND o_orderdate < DATE '1994-01-01'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue DESC
LIMIT 20
"""

Q12_SQL = """
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END) AS low_line_count
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate
  AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '1994-01-01'
  AND l_receiptdate < DATE '1995-01-01'
GROUP BY l_shipmode
ORDER BY l_shipmode
"""

Q14_SQL = """
SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                        THEN l_extendedprice * (1.0 - l_discount)
                        ELSE 0.0 END)
       / SUM(l_extendedprice * (1.0 - l_discount)) AS promo_revenue
FROM lineitem
JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'
"""

#: Query number -> SQL text for every query the dialect can express.
TPCH_SQL_QUERIES: Dict[int, str] = {
    1: Q1_SQL,
    3: Q3_SQL,
    6: Q6_SQL,
    10: Q10_SQL,
    12: Q12_SQL,
    14: Q14_SQL,
}
