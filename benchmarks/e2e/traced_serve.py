"""Benchmark-owned launcher for the traced server child.

``python -m benchmarks.e2e.traced_serve TRACE_OUT serve --listen ...``
installs the span wrappers (:mod:`benchmarks.e2e.tracing`) and then calls
``repro.cli.main`` with the remaining arguments, so process topology,
pinning and the serve code path are exactly those of the untraced run.

Signals:

* ``SIGTERM`` is the CLI's own graceful stop; the trace is written to
  ``TRACE_OUT`` after ``main`` returns (i.e. after the shutdown checkpoint,
  so its spans are in the dump).
* ``SIGUSR1`` appends a *counter snapshot* (counted block I/O per shard and
  the service's ``describe()``) — the harness sends one at each end of the
  measured phase and differences them.
* ``SIGUSR2`` writes the trace now, without stopping: ``write_small`` needs
  the spans out before it SIGKILLs the server.
"""

from __future__ import annotations

import signal
import sys
import time
from typing import Any

from benchmarks.e2e import tracing


def _counters(service: Any) -> dict[str, Any]:
    """Counted I/O and service counters, read through public attributes
    only; anything that no longer exists reads as absent."""
    shot: dict[str, Any] = {"t": time.monotonic_ns(), "reads": 0, "writes": 0}
    for scheme in getattr(service, "schemes", []):
        stats = scheme.stats.snapshot()
        shot["reads"] += stats.reads
        shot["writes"] += stats.writes
    try:
        shot["describe"] = service.describe()
    except Exception as error:  # noqa: BLE001 — diagnostics must not kill the server
        shot["describe_error"] = repr(error)
    return shot


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    recorder.install()

    # The service object is built inside cli.main; catch it as it starts.
    from repro.service.sharded import ShardedLabelService

    services: list[Any] = []
    original_start = ShardedLabelService.start

    def start(self: Any) -> Any:
        services.append(self)
        return original_start(self)

    ShardedLabelService.start = start  # type: ignore[method-assign]

    snapshots: list[dict[str, Any]] = []

    def extra() -> dict[str, Any]:
        return {"snapshots": snapshots, "role": "server"}

    def on_usr1(_signum: int, _frame: Any) -> None:
        if services:
            snapshots.append(_counters(services[-1]))

    def on_usr2(_signum: int, _frame: Any) -> None:
        tracing.dump(recorder, trace_out, extra())

    signal.signal(signal.SIGUSR1, on_usr1)
    signal.signal(signal.SIGUSR2, on_usr2)

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracing.dump(recorder, trace_out, extra())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
