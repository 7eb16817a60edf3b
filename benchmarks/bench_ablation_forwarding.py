"""A-FWD — forwarding-policy ablation (the paper's §7 future work:
"different methods for forwarding the request messages").

Burst and moderate Poisson workloads across the four policies.  The
paper uses ``random``; ``least_informed`` tends to spread votes
fastest (lower NME under burst), while ``sequential`` is the
deterministic reference.

Under a burst, ``most_informed`` IS ``sequential``: same hops, same
count of every message kind.  Not a bug.  Every RM starts at t=0 with
all rows at ts 0, so its first hop is a tie that the key
``(-row_ts[j], j)`` breaks to the lowest id; from then on every RM
walks the ids upward, and a node's row is never fresher than a lower
unvisited node's.  Over every choice at N = 8, 20, 50, 100 and 200
(seed 0; the two policies draw no randomness, so the seed does not
matter) the unvisited ``row_ts`` are non-increasing in id, exactly
N²/2 of the choices are outright ties, and the lowest id is chosen
every time.  ``tests/test_rcv_forwarding.py`` pins the 47 RM hops of
N=8.  Under Poisson load the two part: at N=20, rate 1/15, seeds 0-3,
``most_informed`` costs 16.4-17.1 messages per entry against
``sequential``'s 13.6-14.1.
"""

from benchmarks.conftest import report
from repro.core import RCVConfig
from repro.core.forwarding import POLICIES
from repro.experiments import render_rows
from repro.metrics import summarize
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario


def _measure():
    rows = []
    for policy in sorted(POLICIES):
        cfg = RCVConfig(forwarding=policy)
        burst = [
            run_scenario(
                Scenario(
                    algorithm="rcv",
                    n_nodes=20,
                    arrivals=BurstArrivals(),
                    seed=seed,
                    algo_kwargs={"config": cfg},
                )
            )
            for seed in range(4)
        ]
        poisson = [
            run_scenario(
                Scenario(
                    algorithm="rcv",
                    n_nodes=20,
                    arrivals=PoissonArrivals(rate=1 / 15.0),
                    seed=seed,
                    issue_deadline=5_000,
                    drain_deadline=20_000,
                    algo_kwargs={"config": cfg},
                )
            )
            for seed in range(4)
        ]
        rows.append(
            {
                "policy": policy,
                "burst NME": str(summarize(r.nme for r in burst)),
                "burst RT": str(summarize(r.mean_response_time for r in burst)),
                "poisson NME": str(summarize(r.nme for r in poisson)),
                "poisson RT": str(
                    summarize(r.mean_response_time for r in poisson)
                ),
            }
        )
    return rows


def test_forwarding_ablation(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    report(render_rows(rows, title="RM forwarding policy ablation (N=20)"))
    assert len(rows) == 4
