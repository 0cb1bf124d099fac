"""Statistics collection for simulated runs."""

from repro.metrics.collector import Metrics
from repro.metrics.monitor import daemon_table, mgr_shard_table

__all__ = ["Metrics", "daemon_table", "mgr_shard_table"]
