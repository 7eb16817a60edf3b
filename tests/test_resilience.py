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

from repro.mutex.base import NodeState
from repro.net.faults import FaultPlan
from tests.conftest import started_engine


def rcv_with_crashes(n, seed, requesters, *entries):
    """RCV crashing each ``(node, t)`` of ``entries``; each of
    ``requesters`` issues at t=0."""
    engine = started_engine("rcv", n, seed=seed, faults=(("crash", entries),))
    for i in requesters:
        engine.drivers[i].issue()
    return engine


def test_crash_after_ordering_does_not_block_em_chain():
    """Once the burst is fully ordered, the EM chain only involves the
    requesters; crashing every idle node must not stall it."""
    # Let the voting finish but not the whole run: with Tn=5 the
    # burst of 6 requests is fully ordered well before t=60.
    engine = rcv_with_crashes(
        12, 1, range(6), *((idle, 60.0) for idle in range(6, 12))
    )
    engine.sim.run()
    assert all(engine.nodes[i].cs_count == 1 for i in range(6))


def test_safety_is_unconditional_under_crashes():
    """Whatever a crash does to liveness, two nodes never overlap in
    the CS: the monitor would raise during these runs."""
    for seed in range(6):
        # Crash two nodes mid-protocol, at a message boundary and off it.
        engine = rcv_with_crashes(10, seed, range(5), (9, 5.0), (8, 7.5))
        engine.sim.run(until=10_000)
        assert engine.safety.entries == engine.safety.exits
        assert engine.safety.holder is None


def test_crash_can_strand_requests_but_strands_cleanly():
    """The negative result, pinned: crashing a node mid-vote may eat
    RMs and freeze the vote; stranded requesters stay in REQUESTING
    (no phantom grants, no CS held forever)."""
    engine = rcv_with_crashes(8, 5, range(4), (7, 2.5))
    engine.sim.run(until=10_000)
    stalled = [i for i in range(4) if engine.nodes[i].cs_count == 0]
    assert engine.safety.entries == engine.safety.exits
    assert engine.safety.holder is None
    for i in stalled:
        assert engine.nodes[i].state is NodeState.REQUESTING


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
        engine = rcv_with_crashes(10, seed, [0], (9, 0.0))
        engine.sim.run(until=5_000)
        completions += engine.nodes[0].cs_count
        if engine.nodes[0].cs_count == 0:
            assert engine.nodes[0].state is NodeState.REQUESTING
        assert engine.safety.entries == engine.safety.exits
    assert completions >= 3, f"{completions}/{trials} completed"


def test_recovered_node_rejoins_traffic():
    """Node 5 recovers at t=1, rejoins (a SYNC_REQ/SYNC_REP resync
    with each of its five peers), and serves a burst of six."""
    spec = (("crash", ((5, 0.0),)), ("recover", ((5, 1.0),)))
    plan = FaultPlan(spec)
    engine = started_engine("rcv", 6, hold=5.0, faults=spec)
    assert plan.node_down(5, 0.0)
    engine.sim.run(until=1.0)
    assert not plan.node_down(5, engine.sim.now)
    for driver in engine.drivers:
        driver.issue()
    engine.sim.run()
    assert all(n.cs_count == 1 for n in engine.nodes)
    kinds = engine.network.stats.by_kind
    assert kinds["SYNC_REQ"] == kinds["SYNC_REP"] == 5
