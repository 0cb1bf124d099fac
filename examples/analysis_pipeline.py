"""The paper's motivating workload: a computational science analysis cycle.

Figure 1 of the paper sketches a cycle where a simulation produces
datasets that visualization and analysis programs consume — several
applications, running simultaneously, sharing disk-resident data.
This example builds exactly that pipeline on the simulated cluster:

* ``simulation``  writes a results dataset (time-step by time-step);
* ``visualizer``  renders each time-step (reads the full step);
* ``analyzer``    computes statistics (reads each step twice: pass 1
  for the mean, pass 2 for the variance).

The visualizer and analyzer run on the *same* nodes: every block the
visualizer faults in is a free hit for the analyzer — the paper's
inter-application data sharing.  Run once with caching and once
without to see the difference.

Run:  python examples/analysis_pipeline.py
"""

from repro import Cluster, ClusterConfig

STEP_BYTES = 512 * 1024
N_STEPS = 6
NODES = ["node0", "node1"]


def build_pipeline(caching: bool) -> float:
    """Run the full cycle; returns total simulated time."""
    config = ClusterConfig(compute_nodes=2, iod_nodes=2, caching=caching)
    cluster = Cluster(config)
    env = cluster.env
    step_ready = [env.event() for _ in range(N_STEPS)]

    def simulation(env):
        client = cluster.client("node0")
        f = yield from client.open("/results/run-042")
        for step in range(N_STEPS):
            # "compute" the step, then write it out
            yield cluster.node("node0").compute(2e-3)
            yield from client.write(
                f, step * STEP_BYTES, STEP_BYTES, None
            )
            step_ready[step].succeed()

    def visualizer(env, node):
        client = cluster.client(node)
        f = yield from client.open("/results/run-042")
        for step in range(N_STEPS):
            yield step_ready[step]
            yield from client.read(f, step * STEP_BYTES, STEP_BYTES)
            yield cluster.node(node).compute(1e-3)  # render

    def analyzer(env, node):
        client = cluster.client(node)
        f = yield from client.open("/results/run-042")
        for step in range(N_STEPS):
            yield step_ready[step]
            for _pass in range(2):  # mean pass + variance pass
                yield from client.read(f, step * STEP_BYTES, STEP_BYTES)
                yield cluster.node(node).compute(5e-4)

    procs = [
        env.process(simulation(env)),
        env.process(visualizer(env, "node0")),
        env.process(analyzer(env, "node0")),
        env.process(visualizer(env, "node1")),
        env.process(analyzer(env, "node1")),
    ]
    env.run(until=env.all_of(procs))
    return env.now


def main() -> None:
    t_cached = build_pipeline(caching=True)
    t_plain = build_pipeline(caching=False)
    print("computational science analysis cycle "
          f"({N_STEPS} steps x {STEP_BYTES // 1024} KB, "
          "1 producer + 4 consumers on 2 nodes):")
    print(f"  original PVFS (no caching): {t_plain * 1e3:8.1f} ms")
    print(f"  with kernel cache module:   {t_cached * 1e3:8.1f} ms")
    print(f"  speedup: {t_plain / t_cached:.2f}x")
    print("\nWhy: the visualizer's miss populates the node's shared cache;")
    print("the analyzer's two passes over the same step then hit locally,")
    print("and the simulation's writes are absorbed by write-behind.")


if __name__ == "__main__":
    main()
