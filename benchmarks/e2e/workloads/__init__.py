"""The four polaris-bench workloads, by name (the order BENCHMARK.json lists)."""

from benchmarks.e2e.workloads.gateway_mix import GatewayMix
from benchmarks.e2e.workloads.sql_point_lookup import SqlPointLookup
from benchmarks.e2e.workloads.tpch_power import TpchPower
from benchmarks.e2e.workloads.txn_contention import TxnContention

WORKLOADS = {
    workload.name: workload
    for workload in (TpchPower, SqlPointLookup, TxnContention, GatewayMix)
}

__all__ = ["WORKLOADS"]
