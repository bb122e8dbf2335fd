"""Epoch objects: the unit of snapshot publication.

The writer publishes one :class:`Epoch` per wake-up commit (and one at
service start covering the pre-existing state).  An epoch is immutable and
self-contained: its :class:`~repro.core.cachelog.LogSnapshot` carries every
modification effect still in the log at publication time, so a reader
pinned to the epoch can repair any cached label whose ``last_cached``
falls inside the snapshot's window — without locks, without I/O, and
without ever observing a newer (or torn) label.

Publication is a single reference assignment on the service (atomic in
CPython), performed while the writer still holds the store's exclusive
latch: a fallthrough reader that acquires the shared latch therefore
always finds the structure state and the published epoch in agreement.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from ..core.cachelog import LogSnapshot


@dataclass(frozen=True)
class Epoch:
    """One published commit point of the label service."""

    #: Monotone publication counter (0 = the state at service start).
    number: int
    #: The scheme's modification clock at publication; values read under
    #: this epoch are stamped with it.
    clock: int
    #: Immutable modification-log view readers repair cached labels against.
    snapshot: LogSnapshot

    def __repr__(self) -> str:  # compact: snapshots can hold many effects
        return (
            f"Epoch(number={self.number}, clock={self.clock}, "
            f"log_entries={len(self.snapshot)})"
        )


class WriteTicket:
    """Handle returned by an asynchronous submit: wait for the commit.

    The writer resolves the ticket once the wake-up that applied the batch
    has committed and published its epoch, or fails it with the batch's
    own exception (or the wake-up's, when its commit failed).
    """

    __slots__ = ("_event", "_result", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None

    def _resolve(self, result: Any) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> Any:
        """Block until the batch committed; returns its
        :class:`~repro.core.batch.BatchResult` or re-raises the writer's
        failure.  Raises ``TimeoutError`` if not done within ``timeout``."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"write not committed within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result
