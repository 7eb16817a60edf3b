#!/usr/bin/env python
"""A shared-nothing campaign: cell server + two workers.

The multi-host deployment from docs/operations.md, demonstrated on
one machine: a `CellServer` serves the cell cache over HTTP, two
worker *processes* — which share no filesystem, no database file,
nothing but the server's URL — run the same campaign against it,
splitting its cells by leasing them through the server, and the lease table doubles as a live monitor
(`campaign-status`).  On real hardware the only change is the URL:
start `python -m repro.cli cell-server --host 0.0.0.0` on one host
and point `python -m repro.cli campaign --backend http --server ...`
workers at it from any others.

Run:  python examples/multi_host_campaign.py
"""

import multiprocessing

from repro.cli import main as cli_main
from repro.experiments import CellCache, CellServer, ServiceBackend, scale_campaign


def campaign():
    # Small enough to finish in seconds, big enough to steal over.
    return scale_campaign(
        ("rcv",), n_values=(6, 8), seeds=(0, 1), requests_per_node=2
    )


def worker(url: str, index: int) -> None:
    """One campaign worker on another 'host': everything it knows
    about the world is the server URL."""
    cache = CellCache(backend=ServiceBackend(url))
    campaign().run(
        max_workers=1,
        cache=cache,
        owner=f"worker-{index}",
        lease_ttl=60.0,
        chunk_size=1,  # finest-grained stealing: claim one cell at a time
        steal_timeout=120.0,
    )


def main() -> None:
    server = CellServer().start()  # CLI twin: python -m repro.cli cell-server
    print(f"cell server : {server.url} (in-process for the demo)")

    ctx = multiprocessing.get_context("fork")
    workers = [
        ctx.Process(target=worker, args=(server.url, i)) for i in range(2)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join()
    assert all(process.exitcode == 0 for process in workers)

    # The union of whatever the two workers claimed is a complete
    # campaign: aggregate it straight from the server (every claim
    # answers "done").
    cache = CellCache(backend=ServiceBackend(server.url))
    result = campaign().run(max_workers=1, cache=cache)
    assert result.complete and cache.writes == 0
    print()
    print(result.to_markdown())

    # Per-worker accounting from the server's lease table — exactly
    # what `campaign-status --server URL` shows mid-campaign.
    stats = ServiceBackend(server.url).stats()
    split = {
        owner: record["commits"]
        for owner, record in stats["owners"].items()
        if owner.startswith("worker-")
    }
    print(f"\ncells computed per worker: {split} "
          f"(total {sum(split.values())} = campaign size)")
    assert sum(split.values()) == len(campaign().cells)

    print("\n$ python -m repro.cli campaign-status --server", server.url)
    cli_main(["campaign-status", "--server", server.url])

    server.stop()


if __name__ == "__main__":
    main()
