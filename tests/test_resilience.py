"""Fault-injection tests scoping the paper's resilience narrative.

§1 claims the RCV scheme "gains high resiliency" from its MCV
ancestry: correct operation depends on no specific node.  The paper's
model (§3) nonetheless *excludes* crashes, and these tests pin what
the claim does and does not cover in the algorithm as published:

* **holds** — there is no coordinator/token: once requests are
  ordered, crashes of idle nodes cannot stall the EM hand-off chain;
  safety (mutual exclusion) is unconditional under any crash pattern.
* **does not hold** — a crashed node is a black hole for the single
  roaming RM (no retransmission in the paper), and its NSIT row is a
  permanently *unknown vote*: if live votes split closely enough,
  the relative-majority threshold becomes unreachable and pending
  requests stall.  True crash tolerance needs the MCV-style recovery
  machinery the paper leaves out.  (Recorded as finding F3 in
  EXPERIMENTS.md.)
"""

from repro.core import RCVNode
from repro.mutex.base import NodeState
from repro.net.faults import FaultPlan
from tests.conftest import make_harness


def crashes(*entries):
    """A plan crashing each ``(node, t)`` of ``entries``."""
    return FaultPlan((("crash", entries),))


def test_crash_after_ordering_does_not_block_em_chain():
    """Once the burst is fully ordered, the EM chain only involves the
    requesters; crashing every idle node must not stall it."""
    # Let the voting finish but not the whole run: with Tn=5 the
    # burst of 6 requests is fully ordered well before t=60.
    h = make_harness(
        seed=1, outages=crashes(*((idle, 60.0) for idle in range(6, 12)))
    )
    h.add_nodes(RCVNode, 12)
    h.auto_release_after(10.0)
    for i in range(6):
        h.request(i)
    h.run()
    assert all(h.nodes[i].cs_count == 1 for i in range(6))


def test_safety_is_unconditional_under_crashes():
    """Whatever a crash does to liveness, two nodes never overlap in
    the CS: the monitor would raise during these runs."""
    for seed in range(6):
        # Crash two nodes mid-protocol, at a message boundary and off it.
        h = make_harness(seed=seed, outages=crashes((9, 5.0), (8, 7.5)))
        h.add_nodes(RCVNode, 10)
        h.auto_release_after(10.0)
        for i in range(5):
            h.request(i)
        h.run(until=10_000)
        assert h.safety.entries == h.safety.exits
        assert h.safety.holder is None


def test_crash_can_strand_requests_but_strands_cleanly():
    """The negative result, pinned: crashing a node mid-vote may eat
    RMs and freeze the vote; stranded requesters stay in REQUESTING
    (no phantom grants, no CS held forever)."""
    h = make_harness(seed=5, outages=crashes((7, 2.5)))
    h.add_nodes(RCVNode, 8)
    h.auto_release_after(10.0)
    for i in range(4):
        h.request(i)
    h.run(until=10_000)
    stalled = [i for i in range(4) if h.nodes[i].cs_count == 0]
    assert h.safety.entries == h.safety.exits
    assert h.safety.holder is None
    for i in stalled:
        assert h.nodes[i].state is NodeState.REQUESTING


def test_single_crash_with_decisive_votes_still_completes():
    """When the vote is not splittable — a single requester needs only
    a relative majority of the 9 live rows — one crashed *idle* node
    costs nothing unless the random walk happens to enter it.

    For node 0 at N=10 the RM commits after 4 forwards, so it survives
    iff node 9 is not among the first 4 of 9 distinct hops:
    p = 5/9 ≈ 0.56.  Across 12 seeds we expect ~7 completions; we
    assert at least 3 (p < 1e-3 of a false failure) and, for the
    seeds that died, a clean strand."""
    completions = 0
    trials = 12
    for seed in range(trials):
        # node 9: an idle bystander, crashed from the start
        h = make_harness(seed=seed, outages=crashes((9, 0.0)))
        h.add_nodes(RCVNode, 10)
        h.auto_release_after(10.0)
        h.request(0)
        h.run(until=5_000)
        completions += h.nodes[0].cs_count
        if h.nodes[0].cs_count == 0:
            assert h.nodes[0].state is NodeState.REQUESTING
        assert h.safety.entries == h.safety.exits
    assert completions >= 3, f"{completions}/{trials} completed"


def test_recovered_node_rejoins_traffic():
    plan = FaultPlan((("crash", ((5, 0.0),)), ("recover", ((5, 1.0),))))
    h = make_harness(seed=0, outages=plan)
    h.add_nodes(RCVNode, 6)
    h.auto_release_after(5.0)
    assert plan.node_down(5, 0.0)
    h.run(until=1.0)
    assert not plan.node_down(5, h.sim.now)
    for i in range(6):
        h.request(i)
    h.run()
    assert all(n.cs_count == 1 for n in h.nodes)
