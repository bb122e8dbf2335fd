"""Network front end: varint-framed binary protocol, asyncio server,
synchronous pipelining client.  See ``docs/API.md`` (net section) for the
frame table and error catalogue, and ``DESIGN.md`` §14 for the
backpressure/overload state machine.  Frames and their codec live in
:mod:`repro.net.protocol`."""

from .client import NetClient, Pending, PendingStream, exception_for_frame
from .server import NetServer, run_server

__all__ = [
    "NetClient",
    "NetServer",
    "Pending",
    "PendingStream",
    "exception_for_frame",
    "run_server",
]
