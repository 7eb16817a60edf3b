"""The explicit-state search engine.

Explores every reachable configuration of a :class:`~repro.verify.
world.World` under the nondeterministic scheduler, deduplicating on
canonical fingerprints, and checks each state for:

* ``me`` — mutual exclusion (>1 node in the CS);
* ``lemmas`` — the algorithm's whole-system invariants
  (:func:`repro.core.verification.check_system` for RCV: Lemmas 1, 7
  and the merged global order);
* ``ledger`` — the commit-order before-pair ledger
  (:func:`repro.core.verification.extend_before_pairs`), extended
  along every executed path: an order witnessed anywhere must never
  be reversed later on the same path;
* ``stuck`` — terminal states (no enabled action) with a node still
  REQUESTING.  Auto-disabled when a drop budget is set: dropping a
  protocol message legitimately forfeits liveness (PR-7 semantics).

Protocol exceptions raised by the node code during a transition are
always captured as ``protocol-error`` violations.

Reduction: *sleep sets* — sound for all the state-based checks above
because sleep sets prune redundant *transitions*, never states; every
reachable state is still visited, so the reachable-state count is
identical with the reduction on or off (a property the test suite
pins).  Classic ample-set/stubborn-set reduction is deliberately not
used: a delivery that emits new messages creates new dependent
actions, violating the ample-set conditions in this message-passing
model.  Two actions are independent iff they have distinct *owner*
nodes (the requester/releaser, or the delivery destination); drop/dup
actions touch the shared adversary budgets and are dependent with
everything.

Search: breadth-first, stopping at the first violation, so every
counterexample is at minimal depth; a state budget (``max_states``)
is the only bound.  Schedules are exported as JSON
(:mod:`repro.verify.schedule`) and replay deterministically.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.verification import extend_before_pairs
from repro.verify.errors import VerifyError
from repro.verify.models import AlgorithmModel, make_model
from repro.verify.world import World, describe_action

__all__ = [
    "CheckResult",
    "Checker",
    "DEFAULT_CHECKS",
    "Violation",
    "check",
    "extend_ledger",
    "state_violation",
]

DEFAULT_CHECKS = ("me", "lemmas", "ledger", "stuck")


class Violation:
    """One invariant breach, with the schedule that reaches it."""

    def __init__(
        self,
        kind: str,
        message: str,
        steps: List[dict],
        depth: int,
    ) -> None:
        self.kind = kind
        self.message = message
        #: delivery schedule from the initial state to the breach
        self.steps = steps
        self.depth = depth

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "depth": self.depth,
            "steps": self.steps,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Violation({self.kind}: {self.message} @ depth {self.depth})"


class CheckResult:
    """Outcome of one exploration: ``complete`` (the whole space,
    clean), one violation, or ``truncated == "max_states"``."""

    def __init__(self, settings: dict) -> None:
        self.settings = settings
        self.states = 0
        self.transitions = 0
        self.revisits = 0
        self.sleep_skipped = 0
        self.max_depth_seen = 0
        self.complete = False
        self.truncated: Optional[str] = None
        self.violations: List[Violation] = []
        self.elapsed = 0.0

    @property
    def ok(self) -> bool:
        return self.complete and not self.violations

    @property
    def states_per_sec(self) -> float:
        return self.states / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "settings": self.settings,
            "states": self.states,
            "transitions": self.transitions,
            "revisits": self.revisits,
            "sleep_skipped": self.sleep_skipped,
            "max_depth_seen": self.max_depth_seen,
            "complete": self.complete,
            "truncated": self.truncated,
            "violations": [v.to_dict() for v in self.violations],
            "elapsed_sec": round(self.elapsed, 6),
            "states_per_sec": round(self.states_per_sec, 1),
        }


class _Entry:
    __slots__ = ("world", "sleep", "depth", "trace_idx", "ledger")

    def __init__(self, world, sleep, depth, trace_idx, ledger) -> None:
        self.world = world
        self.sleep = sleep
        self.depth = depth
        self.trace_idx = trace_idx
        self.ledger = ledger


def state_violation(
    world: World, checks: Tuple[str, ...], acts: List[Tuple], stuck: bool
) -> Optional[Tuple[str, str]]:
    """``(kind, message)`` of the first per-state check ``world``
    fails, given its enabled actions; shared with schedule replay."""
    model = world.model
    if "me" in checks:
        holders = world.cs_holders()
        if len(holders) > 1:
            return (
                "mutual-exclusion",
                f"nodes {holders} are in the critical section "
                "simultaneously",
            )
    if "lemmas" in checks and model.has_invariants:
        try:
            model.check_invariants(world.nodes)
        except AssertionError as exc:
            return "lemma", str(exc)
    if stuck and not acts:
        requesting = world.requesting()
        if requesting:
            return (
                "stuck",
                f"terminal state with nodes {requesting} still "
                "REQUESTING (no message can un-wedge them)",
            )
    return None


def extend_ledger(
    world: World, ledger: FrozenSet
) -> Tuple[FrozenSet, Optional[str]]:
    """``world``'s commit orders added to the before-pair ``ledger``:
    (new ledger, violation message or None)."""
    new_pairs = None
    for node in world.nodes:
        si = getattr(node, "si", None)
        if si is None:
            return ledger, None  # algorithm without NONLs
        try:
            pairs = extend_before_pairs(
                ledger if new_pairs is None else ledger | new_pairs,
                si.nonl,
                who=f"node {node.node_id}",
            )
        except AssertionError as exc:
            return ledger, str(exc)
        if pairs:
            new_pairs = pairs if new_pairs is None else new_pairs | pairs
    if new_pairs:
        return ledger | new_pairs, None
    return ledger, None


class Checker:
    """One exploration of one model under one channel/budget setup."""

    def __init__(
        self,
        model: AlgorithmModel,
        *,
        requests: int = 1,
        fifo: bool = False,
        drop_budget: int = 0,
        dup_budget: int = 0,
        retx: bool = False,
        retx_broken: bool = False,
        oracle: bool = False,
        checks: Tuple[str, ...] = DEFAULT_CHECKS,
        reduce: str = "sleep",
        max_states: Optional[int] = None,
    ) -> None:
        if reduce not in ("sleep", "none"):
            raise VerifyError(f"unknown reduction {reduce!r}")
        unknown = set(checks) - set(DEFAULT_CHECKS)
        if unknown:
            raise VerifyError(f"unknown checks: {sorted(unknown)}")
        # Each of these would explore (almost) nothing, or silently
        # disarm a check, and still report "complete, no violations".
        if not checks:
            raise VerifyError("no checks selected: nothing to verify")
        if requests < 1:
            raise VerifyError(f"requests must be >= 1, not {requests}")
        if drop_budget < 0 or dup_budget < 0:
            raise VerifyError(
                f"adversary budgets must be >= 0, not drops={drop_budget} "
                f"dups={dup_budget}"
            )
        if max_states is not None and max_states < 1:
            raise VerifyError(f"max_states must be >= 1, not {max_states}")
        if retx_broken and not retx:
            raise VerifyError(
                "retx_broken plants a broken retransmit timer and "
                "requires retx=True"
            )
        self.model = model
        self.requests = requests
        self.fifo = fifo
        self.drop_budget = drop_budget
        self.dup_budget = dup_budget
        self.retx = bool(retx)
        self.retx_broken = bool(retx_broken)
        self.oracle = oracle
        self.checks = tuple(checks)
        self.reduce = reduce
        self.max_states = max_states
        # Dropping a message legitimately wedges its requester —
        # PR-7 classifies that as liveness loss, not a safety bug.
        # Under the reliable channel a drop is retransmitted, so
        # stuck-freedom is CHECKABLE under nonzero drop budgets —
        # that is the point of modeling retx (unless retx_broken
        # plants the skip-retransmit mutant, which must get caught).
        self._stuck_enabled = "stuck" in checks and (
            drop_budget == 0 or self.retx
        )
        self._trace: List[Tuple[int, dict]] = []

    # ------------------------------------------------------------------
    def settings(self) -> dict:
        out = dict(self.model.describe())
        out.update(
            requests=self.requests,
            channel="fifo" if self.fifo else "nonfifo",
            drop_budget=self.drop_budget,
            dup_budget=self.dup_budget,
            checks=list(self.checks),
            reduce=self.reduce,
            max_states=self.max_states,
        )
        # Only when set, so pre-retx schedule JSON replays unchanged.
        if self.retx:
            out["retx"] = True
        if self.retx_broken:
            out["retx_broken"] = True
        return out

    # ------------------------------------------------------------------
    def run(self) -> CheckResult:
        result = CheckResult(self.settings())
        t0 = time.perf_counter()
        self._run(result)
        result.elapsed = time.perf_counter() - t0
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _steps_to(self, trace_idx: int) -> List[dict]:
        steps: List[dict] = []
        while trace_idx >= 0:
            parent, step = self._trace[trace_idx]
            steps.append(step)
            trace_idx = parent
        steps.reverse()
        return steps

    def _violation(
        self, kind: str, message: str, trace_idx: int, depth: int
    ) -> Violation:
        return Violation(kind, message, self._steps_to(trace_idx), depth)

    def _successors(self, world: World, action: Tuple):
        """Every resolution of ``action``'s internal rng draws:
        odometer over the recorded choice positions."""
        stack: List[Tuple[int, ...]] = [()]
        while stack:
            script = stack.pop()
            succ = world.clone()
            out = succ.execute(action, script=script)
            for pos in range(len(script), len(out.choices)):
                for alt in range(1, out.factors[pos]):
                    stack.append(out.choices[:pos] + (alt,))
            yield succ, out

    def _run(self, result: CheckResult) -> None:
        model = self.model
        root = World(
            model,
            requests=self.requests,
            fifo=self.fifo,
            drop_budget=self.drop_budget,
            dup_budget=self.dup_budget,
            retx=self.retx,
            retx_broken=self.retx_broken,
            oracle=self.oracle,
        )
        ledger, _ = extend_ledger(root, frozenset())
        worklist = deque([_Entry(root, frozenset(), 0, -1, ledger)])
        visited: Dict[Tuple, List[FrozenSet]] = {}
        use_sleep = self.reduce == "sleep"

        while worklist:
            entry = worklist.popleft()
            fp = entry.world.fingerprint()
            sleeps = visited.get(fp)
            if sleeps is None:
                visited[fp] = [entry.sleep]
                result.states += 1
                if entry.depth > result.max_depth_seen:
                    result.max_depth_seen = entry.depth
                acts = entry.world.enabled_actions()
                found = state_violation(
                    entry.world, self.checks, acts, self._stuck_enabled
                )
                if found is not None:
                    result.violations.append(
                        self._violation(*found, entry.trace_idx, entry.depth)
                    )
                    return
            else:
                if any(s <= entry.sleep for s in sleeps):
                    result.revisits += 1
                    continue
                sleeps[:] = [s for s in sleeps if not entry.sleep <= s]
                sleeps.append(entry.sleep)
                acts = entry.world.enabled_actions()
            if self.max_states is not None and result.states >= self.max_states:
                result.truncated = "max_states"
                return
            explored_here: List[Tuple] = []
            for action in acts:
                if action in entry.sleep:
                    result.sleep_skipped += 1
                    continue
                note = describe_action(entry.world, action)
                # What the successors may leave asleep: the explored
                # or inherited actions independent of this one, i.e.
                # run on a different node (drop/dup have no owner and
                # are dependent with everything).
                owner = entry.world.owner(action)
                if use_sleep and owner is not None:
                    sleep = frozenset(
                        b
                        for b in entry.sleep.union(explored_here)
                        if entry.world.owner(b) not in (None, owner)
                    )
                else:
                    sleep = frozenset()
                for succ, out in self._successors(entry.world, action):
                    result.transitions += 1
                    step = {
                        "op": action[0],
                        "arg": action[1],
                        "choices": list(out.choices),
                        "note": note,
                    }
                    trace_idx = len(self._trace)
                    self._trace.append((entry.trace_idx, step))
                    depth = entry.depth + 1
                    if out.error is not None:
                        result.violations.append(
                            self._violation(
                                "protocol-error",
                                f"{type(out.error).__name__}: {out.error}",
                                trace_idx,
                                depth,
                            )
                        )
                        return
                    succ_ledger = entry.ledger
                    if "ledger" in self.checks:
                        succ_ledger, msg = extend_ledger(
                            succ, entry.ledger
                        )
                        if msg is not None:
                            result.violations.append(
                                self._violation(
                                    "commit-order", msg, trace_idx, depth
                                )
                            )
                            return
                    worklist.append(
                        _Entry(succ, sleep, depth, trace_idx, succ_ledger)
                    )
                if use_sleep:
                    explored_here.append(action)
        result.complete = True


def check(
    algo: str = "rcv",
    n: int = 3,
    *,
    model_opts: Optional[dict] = None,
    **checker_opts,
) -> CheckResult:
    """Build the model and explore it."""
    model = make_model(algo, n, **(model_opts or {}))
    return Checker(model, **checker_opts).run()
