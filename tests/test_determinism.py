"""No unseeded time or randomness — the invariant every figure rests on.

Bit-for-bit replay of a ``(scenario, seed)`` pair requires that the
deterministic core never reads a clock other than the simulator's and
never draws randomness outside the named seed tree
(:class:`~repro.sim.rng.RngRegistry`).  :func:`hazards` forbids, by
AST, over ``src/``, ``benchmarks/`` and ``examples/`` (tests may fake
clocks and build throwaway RNGs at will):

* **wall-clock** calls (``time.time``, ``datetime.now``, …) —
  everywhere;
* **timer** calls (``time.monotonic``, ``time.perf_counter``, …) —
  in the deterministic core only; measurement layers (benchmarks,
  experiments, runtime) legitimately time real work;
* **ambient entropy** (``os.urandom``, ``uuid.uuid4``, ``secrets``,
  module-level ``random.*`` draws which consume the process-global
  stream) — everywhere;
* **ad-hoc RNG construction** ``random.Random(...)`` — everywhere,
  *unless* the seed argument is a ``spawn_seed(...)`` call, i.e. the
  RNG is derived from the named stream tree.

Operational code that genuinely needs host state (a wall clock hosts
share for lease expiry, a nonce for a lossy transport) is listed in
:data:`ALLOWED`, one row per site with its justification.  The table
is held to the tree both ways: a site without a row fails, and so does
a row without a site.  The core gets no rows — a hazard there is a bug.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCAN_DIRS = ("src", "benchmarks", "examples")

#: the deterministic core: simulated time only, named streams only
CORE_DIRS = (
    "src/repro/sim/",
    "src/repro/net/",
    "src/repro/core/",
    "src/repro/engine/",
    "src/repro/mutex/",
    "src/repro/baselines/",
    "src/repro/quorums/",
    "src/repro/workload/",
    "src/repro/metrics/",
    "src/repro/trace/",
)

WALL_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

TIMER_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.thread_time",
    }
)

ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

#: prefixes whose *any* call is ambient entropy (process-global state)
ENTROPY_PREFIXES = ("secrets.",)

#: every place host state is allowed to enter:
#: (relpath, enclosing function, qualified call) -> justification
ALLOWED: Dict[Tuple[str, str, str], str] = {
    ("src/repro/experiments/backends.py", "_wall_clock", "time.time"): (
        "lease expiry needs a clock hosts share; failure times are for humans"
    ),
    (
        "src/repro/experiments/service.py",
        "_ServiceState.__init__",
        "time.time",
    ): "display-only start timestamp",
    ("src/repro/experiments/service.py", "_Handler._reply", "time.time"): (
        "a reply's Date header; display only"
    ),
    (
        "src/repro/experiments/backends.py",
        "ServiceBackend.record_failure",
        "os.urandom",
    ): "dedup nonce for a lossy transport, never replayed",
}


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name → fully qualified imported name, for every import.

    ``import time`` → ``{"time": "time"}``; ``import random as _r`` →
    ``{"_r": "random"}``; ``from time import monotonic as mono`` →
    ``{"mono": "time.monotonic"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def _qualified_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted name via ``aliases``.

    ``_r.Random`` with ``{"_r": "random"}`` → ``"random.Random"``;
    returns None when the chain roots in something unresolvable
    (a call result, subscript, local variable…).
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _calls(node: ast.AST, scope: str = "") -> Iterator[Tuple[str, ast.Call]]:
    """``(enclosing function, call)`` for every call under ``node``;
    the function is dotted through its classes (``Cls.method``),
    ``<module>`` at top level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield from _calls(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            yield scope or "<module>", child
        yield from _calls(child, scope)


def _is_spawn_seed_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return name == "spawn_seed"


def _in_core(relpath: str) -> bool:
    return relpath.startswith(CORE_DIRS)


def _scan(
    relpath: str, source: str
) -> Tuple[List[Tuple[int, str]], Set[Tuple[str, str, str]]]:
    """The hazards of one file, and the :data:`ALLOWED` rows it used."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        # one hazard, not a skip: the file could hide any of the others
        return [(exc.lineno or 0, f"file does not parse: {exc.msg}")], set()
    core = _in_core(relpath)
    aliases = _import_aliases(tree)
    found, used = [], set()
    for function, node in _calls(tree):
        qname = _qualified_name(node.func, aliases)
        if qname is None:
            continue
        hazard = None
        if qname in WALL_CALLS:
            hazard = (
                f"wall-clock call {qname}() — simulated components "
                "must read time through the simulator (env.now()); "
                "operational code that genuinely needs a shared wall "
                "clock (cross-host lease expiry, display timestamps) "
                "must say so with a row in ALLOWED "
                "(tests/test_determinism.py)"
            )
        elif qname in TIMER_CALLS and core:
            hazard = (
                f"monotonic-timer call {qname}() inside the "
                "deterministic core — core code must not observe "
                "host time at all; move the measurement to the "
                "benchmark/experiment layer"
            )
        elif qname in ENTROPY_CALLS or qname.startswith(ENTROPY_PREFIXES):
            hazard = (
                f"ambient entropy {qname}() — draws outside the "
                "named seed tree are unreplayable; derive from "
                "RngRegistry (sim/rng.py) instead"
            )
        elif qname == "random.Random":
            if not (node.args and _is_spawn_seed_call(node.args[0])):
                hazard = (
                    "ad-hoc random.Random(...) construction — seed "
                    "it from the named stream tree "
                    "(RngRegistry.stream(...) or "
                    "random.Random(spawn_seed(root, name)))"
                )
        elif qname.startswith("random.") and qname.count(".") == 1:
            # module-level draw: consumes the process-global stream
            hazard = (
                f"{qname}() draws from the process-global random "
                "stream — use a named RngRegistry stream"
            )
        if hazard is None:
            continue
        key = (relpath, function, qname)
        if key in ALLOWED and not core:
            used.add(key)
        else:
            found.append((node.lineno, hazard))
    return found, used


def hazards(relpath: str, source: str) -> List[Tuple[int, str]]:
    """``(line, message)`` for every place ``source`` lets host state
    in without an :data:`ALLOWED` row."""
    return _scan(relpath, source)[0]


def tree_sources() -> Dict[str, str]:
    """Root-relative path → source of every scanned file."""
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for sub in SCAN_DIRS
        for path in sorted((ROOT / sub).rglob("*.py"))
    }


def failures(sources: Mapping[str, str]) -> List[str]:
    """Everything wrong with ``sources`` or with :data:`ALLOWED`, one
    ``path:line: message`` (or ``ALLOWED[...]: message``) each."""
    found, used = [], set()
    for relpath, source in sources.items():
        file_hazards, file_used = _scan(relpath, source)
        found += [f"{relpath}:{line}: {msg}" for line, msg in file_hazards]
        used |= file_used
    for key, why in ALLOWED.items():
        if _in_core(key[0]):
            found.append(
                f"ALLOWED[{key}]: the deterministic core gets no "
                "exemptions — a hazard there is a bug"
            )
        elif not why.strip():
            found.append(f"ALLOWED[{key}]: no justification recorded")
        elif key not in used:
            found.append(
                f"ALLOWED[{key}]: stale row — no such call in that "
                "function; delete the row with the site"
            )
    return found


# ----------------------------------------------------------------------
# the shipped tree
# ----------------------------------------------------------------------
def test_shipped_tree_lets_host_state_in_only_where_the_table_says():
    found = failures(tree_sources())
    assert not found, "\n".join(found)


# ----------------------------------------------------------------------
# one planted case per hazard class (mutation-proofing the check)
# ----------------------------------------------------------------------
CORE = "src/repro/sim/planted.py"
OPS = "src/repro/experiments/planted.py"
BENCH = "benchmarks/bench_planted.py"

PLANTED = {
    "wall-clock-in-core": (
        CORE, "import time\n\ndef f():\n    return time.time()\n",
        [(4, "wall-clock call time.time()")],
    ),
    "timer-in-core": (
        CORE, "import time\nx = time.monotonic()\n",
        [(2, "monotonic-timer call time.monotonic() inside the deterministic core")],
    ),
    "timer-outside-core-is-fine": (
        OPS, "import time\nx = time.perf_counter()\n", [],
    ),
    "wall-clock-in-experiments-without-a-row": (
        OPS, "import time\n\ndef lease():\n    return time.time() + 60\n",
        [(4, "wall-clock call time.time()")],
    ),
    "wall-clock-beside-an-allowed-one": (
        "src/repro/experiments/backends.py",
        "import time\n\ndef _wall_clock():\n    return time.time()\n"
        "\ndef other():\n    return time.time()\n",
        [(7, "wall-clock call time.time()")],
    ),
    "os-urandom": (
        OPS, "import os\nnonce = os.urandom(8)\n",
        [(2, "ambient entropy os.urandom()")],
    ),
    "secrets-token_hex": (
        BENCH, "import secrets\n\n\nx = secrets.token_hex(4)\n",
        [(4, "ambient entropy secrets.token_hex()")],
    ),
    "module-level-random-draw": (
        BENCH, "import random\nx = random.random()\n",
        [(2, "random.random() draws from the process-global random stream")],
    ),
    "adhoc-Random": (
        CORE, "import random\nrng = random.Random(5)\n",
        [(2, "ad-hoc random.Random(...) construction")],
    ),
    "spawn_seed-Random-is-fine": (
        CORE,
        "import random\nfrom repro.sim.rng import spawn_seed\n"
        "rng = random.Random(spawn_seed(7, 'net/delay'))\n",
        [],
    ),
    "aliased-import": (
        CORE, "from time import time as now\n\n\n\nx = now()\n",
        [(5, "wall-clock call time.time()")],
    ),
    "aliased-class": (
        CORE, "from random import Random as R\nrng = R(42)\n",
        [(2, "ad-hoc random.Random(...) construction")],
    ),
    "unparseable-file": (
        OPS, "x = 1\ndef broken(:\n", [(2, "file does not parse: ")],
    ),
}


@pytest.mark.parametrize("case", PLANTED)
def test_planted_hazard_is_reported_with_line_and_message(case):
    relpath, source, expected = PLANTED[case]
    found = hazards(relpath, source)
    assert [line for line, _ in found] == [line for line, _ in expected]
    for (_, message), (_, fragment) in zip(found, expected):
        assert fragment in message
    # and the tree check names the file
    assert [
        f for f in failures({relpath: source}) if not f.startswith("ALLOWED[")
    ] == [f"{relpath}:{line}: {message}" for line, message in found]


# ----------------------------------------------------------------------
# the table is held to the tree
# ----------------------------------------------------------------------
WALL_IN_OPS = "import time\n\ndef lease():\n    return time.time()\n"


def _table_failures(sources):
    return [f for f in failures(sources) if f.startswith("ALLOWED[")]


def test_allowed_row_covers_exactly_its_function(monkeypatch):
    monkeypatch.setitem(ALLOWED, (OPS, "lease", "time.time"), "shared clock")
    assert hazards(OPS, WALL_IN_OPS) == []
    moved = WALL_IN_OPS.replace("lease", "renamed")
    assert [line for line, _ in hazards(OPS, moved)] == [4]


def test_stale_row_fails(monkeypatch):
    """Deleting an allowed site without its row fails, as does a row
    for a file that is gone."""
    sources = tree_sources()
    backends = "src/repro/experiments/backends.py"
    assert "return time.time()" in sources[backends]
    sources[backends] = sources[backends].replace(
        "return time.time()", "return 0.0"
    )
    (stale,) = failures(sources)
    assert "'_wall_clock', 'time.time'" in stale and "stale row" in stale
    monkeypatch.setitem(ALLOWED, (OPS, "lease", "time.time"), "shared clock")
    (stale,) = failures(tree_sources())
    assert OPS in stale and "stale row" in stale


def test_blank_justification_fails(monkeypatch):
    monkeypatch.setitem(ALLOWED, (OPS, "lease", "time.time"), "  ")
    (blank,) = _table_failures({**tree_sources(), OPS: WALL_IN_OPS})
    assert OPS in blank and "no justification" in blank


def test_row_under_the_core_is_refused_and_exempts_nothing(monkeypatch):
    monkeypatch.setitem(ALLOWED, (CORE, "lease", "time.time"), "just this once")
    assert [line for line, _ in hazards(CORE, WALL_IN_OPS)] == [4]
    (refused,) = _table_failures({**tree_sources(), CORE: WALL_IN_OPS})
    assert CORE in refused and "no exemptions" in refused
