"""Coherence with ``sync_write``.

A coordinator process periodically checkpoints shared state that
workers on other nodes read between their work phases.  With the
default (non-coherent) write path, workers can read *stale*
checkpoints from their node's cache; ``sync_write`` invalidates the
remote copies so every worker sees the newest epoch.

Run:  python examples/coherent_checkpointing.py
"""

from repro import Cluster, ClusterConfig

CHECKPOINT_BYTES = 64 * 1024
EPOCHS = 5


def run(coherent: bool) -> tuple[int, int]:
    """Returns (stale_reads, invalidations)."""
    cluster = Cluster(ClusterConfig(compute_nodes=3, iod_nodes=3))
    env = cluster.env
    epoch_written = [env.event() for _ in range(EPOCHS)]
    stale = [0]

    def coordinator(env):
        client = cluster.client("node0")
        f = yield from client.open("/ckpt/state")
        for epoch in range(EPOCHS):
            payload = bytes([epoch + 1]) * CHECKPOINT_BYTES
            if coherent:
                yield from client.sync_write(
                    f, 0, CHECKPOINT_BYTES, payload
                )
            else:
                yield from client.write(f, 0, CHECKPOINT_BYTES, payload)
            epoch_written[epoch].succeed()
            yield env.timeout(0.01)  # work between checkpoints

    def worker(env, node):
        client = cluster.client(node)
        f = yield from client.open("/ckpt/state")
        for epoch in range(EPOCHS):
            yield epoch_written[epoch]
            data = yield from client.read(
                f, 0, CHECKPOINT_BYTES, want_data=True
            )
            if data != bytes([epoch + 1]) * CHECKPOINT_BYTES:
                stale[0] += 1
            yield cluster.node(node).compute(1e-3)

    procs = [env.process(coordinator(env))]
    for node in ("node1", "node2"):
        procs.append(env.process(worker(env, node)))
    env.run(until=env.all_of(procs))
    return stale[0], cluster.metrics.count("cache.invalidations_received")


def main() -> None:
    print(f"checkpoint/restore across 3 nodes, {EPOCHS} epochs:\n")
    print("default (non-coherent) writes:")
    stale, inval = run(coherent=False)
    print(f"  stale checkpoint reads: {stale}   invalidations: {inval}\n")
    print("sync_write (coherent) writes:")
    stale, inval = run(coherent=True)
    print(f"  stale checkpoint reads: {stale}   invalidations: {inval}")
    print(
        "\nsync_write propagates each checkpoint to the iod AND"
        "\ninvalidates remote caches, so no worker ever reads an old epoch."
    )


if __name__ == "__main__":
    main()
