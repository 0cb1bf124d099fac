"""Find the metadata knee with an open-loop load, then shard it away.

The paper's cache never caches metadata — every ``open`` pays a round
trip to the single mgr daemon, which saturates at ~6.6k requests/s no
matter how many compute nodes offer load.  A closed-loop benchmark
can't see that ceiling (a saturated system is simply offered less),
so this example drives a churn-heavy *open-loop* arrival schedule
(DESIGN.md §17) at increasing offered rates and plots completed
against offered: completed tracks offered until the mgr saturates,
then flattens.  Hash-partitioning the namespace across 4 metadata
shards (``ClusterConfig(mgr_shards=4)``) moves the knee right past
the highest rate swept.

Run:  python examples/openloop_scaling.py
"""

from repro.experiments.scaling import (
    locate_knee,
    run_knee_curve,
    scaling_point,
)

P = 256
RATES = (2000.0, 4000.0, 8000.0, 16000.0)
SHARDS = (1, 4)


def measure(p: int, mgr_shards: int, rate_ops_s: float,
            duration_s: float = 0.15) -> dict:
    """One knee-curve cell: offered/completed ops/s at one config."""
    return scaling_point(
        p, mgr_shards, rate_ops_s=rate_ops_s, duration_s=duration_s
    )


def main() -> None:
    print(f"open-loop churn workload at p={P}: every request opens a")
    print("fresh file, so the metadata service is the whole story.")
    print("Sweeping offered rate for mgr_shards in", SHARDS, "...\n")

    result = run_knee_curve(p=P, shards=SHARDS, rates=RATES)
    print(result.to_table())

    print()
    for series in result.series:
        knee = locate_knee(result, series.label)
        print(
            f"  {series.label:<14} knee at ~{knee:8.0f} offered ops/s "
            "(highest rate where completed >= 95% of offered)"
        )
    print("\nThe single mgr flattens near its ~6.6k ops/s service")
    print("capacity; 4 shards keep completed == offered through the")
    print("top of the sweep — the knee moved right by more than 2x,")
    print("which is exactly what the `mgr-shards-knee` row of")
    print("`python -m repro.experiments.validate` holds at p=256.")


if __name__ == "__main__":
    main()
