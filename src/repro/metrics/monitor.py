"""Per-daemon tables over the svc bus's always-on stats.

Every :class:`~repro.svc.service.Service` keeps a
:class:`~repro.svc.events.ServiceStats` record on its environment's
instrumentation bus; these functions render those records, and read
nothing else.

Example::

    from repro.svc import get_bus
    bus = get_bus(cluster.env)
    print(daemon_table(bus))
    print(mgr_shard_table(bus, duration_s=cluster.env.now))
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.svc.events import InstrumentationBus


def _render(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows))
        for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def daemon_table(bus: "InstrumentationBus") -> str:
    """Render every registered daemon's always-on stats as a table.

    Columns: daemon, node, lifecycle state, messages handled, queue
    depth high-water mark, simulated busy time, and dropped work.
    """
    rows = [
        [
            stats.service,
            stats.node or "-",
            stats.state,
            str(stats.messages_handled),
            str(stats.queue_high_water),
            f"{stats.busy_s:.4f}",
            str(stats.total_dropped),
        ]
        for stats in bus.stats.values()
    ]
    if not rows:
        return "(no services registered)"
    header = ["daemon", "node", "state", "handled", "q-high", "busy(s)", "dropped"]
    return _render(header, rows)


def mgr_shard_table(
    bus: "InstrumentationBus",
    duration_s: float | None = None,
    fanout: _t.Mapping[int, int] | None = None,
) -> str:
    """Per-metadata-shard summary (one row per mgr shard).

    Columns: shard, node, metadata ops served (the shard's
    ``metadata_op`` count), ops/sec of simulated time (when
    ``duration_s`` is given), queue-depth high-water mark, and
    ``fanout[shard]``: the invalidation notices the iods sent for
    files that shard owns.  Shard 0 of a single-shard cluster is the
    plain ``mgr`` daemon.
    """
    shards = {}
    for name, stats in bus.stats.items():
        if name == "mgr":
            shards[0] = stats
        elif name.startswith("mgr") and name[3:].isdigit():
            shards[int(name[3:])] = stats
    if not shards:
        return "(no mgr shards registered)"
    fanout = fanout or {}
    rows = []
    for shard in sorted(shards):
        stats = shards[shard]
        ops = stats.events.get("metadata_op", 0)
        rate = f"{ops / duration_s:.1f}" if duration_s and duration_s > 0 else "-"
        rows.append(
            [
                str(shard),
                stats.node or "-",
                str(ops),
                rate,
                str(stats.queue_high_water),
                str(fanout.get(shard, 0)),
            ]
        )
    header = ["shard", "node", "meta-ops", "ops/s", "q-high", "inval-out"]
    return _render(header, rows)
