"""Network front end: varint-framed binary protocol, asyncio server,
synchronous pipelining client.  See ``docs/API.md`` (net section) for the
frame table and error catalogue, and ``DESIGN.md`` §14 for the
backpressure/overload state machine.  Frames and their codec live in
:mod:`repro.net.protocol`."""

from .._exports import lazy_exports

__all__ = lazy_exports(__name__, {
    ".client": ("NetClient", "Pending", "PendingStream", "exception_for_frame"),
    ".server": ("NetServer", "run_server"),
})
