"""The file-system boundary: one :class:`Disk` is the only code that
opens files for writing, writes, syncs files and directories, renames,
truncates and removes (DESIGN.md §7, "File-system boundary").

The protocol is argued under one persistence model: everything written
to a file before its last fsync persists; any subset of the later
writes may persist (the disk may reorder them), and the last one may be
torn; a rename or unlink persists only once its directory is fsynced.
Every physical write is one :meth:`Disk.put`, so wrapping the
primitives records an operation's whole trace.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, BinaryIO, Iterable

from ..errors import CrashError, FsyncFailedError


class Disk:
    """The store's file-system calls under one ``fsync`` policy (off: a
    sync only flushes to the OS), plus a backend's fault injector, crash
    state and count of bytes through :meth:`write`."""

    def __init__(self, fsync: bool = False) -> None:
        self.fsync = fsync
        self.fault_injector: Any = None
        self._crashed = False
        #: The tear a hook returned, carried out by the next :meth:`write`
        #: (so "tear the directory" tears the actual image bytes).
        self._pending_tear: Any = None
        self.bytes_written = 0

    def hit(self, hook: str, size: int | None = None) -> Any:
        """Carry out ``hook``'s fault through the one interpreter,
        :meth:`~repro.faults.FaultInjector.hit`.

        The one place a fault crashes the disk: on a
        :class:`~repro.errors.CrashError` or — fsyncgate: a failed fsync
        may have dropped dirty pages — a
        :class:`~repro.errors.FsyncFailedError` raised here, and on a tear
        returned here, which the next :meth:`write` carries out."""
        injector = self.fault_injector
        if injector is None:
            return None
        try:
            action = injector.hit(hook, size)
        except (CrashError, FsyncFailedError):
            self._crashed = True
            raise
        if action is not None:
            self._crashed = True
            self._pending_tear = action
        return action

    # -- primitives -----------------------------------------------------

    def open(self, path: str, mode: str) -> BinaryIO:
        return open(path, mode)

    def put(self, handle: BinaryIO, data: bytes) -> None:
        """One physical write: no hook, not counted, no crash check."""
        handle.write(data)

    def sync(self, handle: BinaryIO) -> None:
        """Flush and, under the policy, fire ``backend.fsync`` and fsync."""
        handle.flush()  # surface buffered writes to the OS (and readers)
        if self.fsync:
            self.hit("backend.fsync")
            os.fsync(handle.fileno())

    def sync_raw(self, handle: BinaryIO) -> None:
        """Like :meth:`sync` but without the ``backend.fsync`` hook.

        Used for the seal's sync of the log about to be renamed: the
        checkpoint is already durable in pages + directory by then, so an
        injected fsync failure there would crash the machine *after* it —
        a window the chaos oracle cannot attribute.  The hookable crash
        point for this window is ``wal.truncate``, fired at entry while
        the log still stands.  Temp files, trims and a follower's mirror
        belong to no hooked site either.
        """
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def sync_dir(self, dirpath: str) -> None:
        """fsync a directory (policy permitting) so renames in it last."""
        if not self.fsync:
            return
        fd = os.open(dirpath or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def rename(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst``, then sync the directory."""
        os.replace(src, dst)
        self.sync_dir(os.path.dirname(dst))

    def truncate(self, handle: BinaryIO, size: int) -> None:
        handle.truncate(size)

    def remove(self, path: str) -> None:
        os.remove(path)

    # -- composites -----------------------------------------------------

    def write(self, handle: BinaryIO, data: bytes) -> None:
        """Write through the fault funnel (``backend.raw_write``): a tear
        puts a *prefix* on disk and dies, like a power loss mid-sector;
        a crashed disk refuses the write."""
        action = self._pending_tear
        if action is None:
            if self._crashed:
                raise CrashError("backend has crashed; reopen to recover")
            action = self.hit("backend.raw_write", len(data))
        if action is not None:
            self._pending_tear = None
            cut = action.keep(len(data))
            if cut:
                self.put(handle, data[:cut])
            raise CrashError(
                f"simulated crash: {action.kind} after {cut} of {len(data)} bytes"
            )
        self.put(handle, data)
        self.bytes_written += len(data)

    def write_at(self, handle: BinaryIO, offset: int, data: bytes) -> None:
        handle.seek(offset)
        self.write(handle, data)

    def replace(self, path: str, chunks: Iterable[bytes]) -> int:
        """Atomically replace ``path`` with the ``chunks``; returns the
        size.  Temp file, write, sync, rename, directory sync: a failure
        before the rename — also one raised by ``chunks`` — unlinks the
        temp file and propagates, leaving the old file (or none)."""
        tmp = path + ".tmp"
        size = 0
        try:
            with self.open(tmp, "wb") as handle:
                for chunk in chunks:
                    self.put(handle, chunk)
                    size += len(chunk)
                self.sync_raw(handle)
            self.rename(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                self.remove(tmp)
            raise
        return size

    def copy(self, src: str, dst: str) -> int:
        """:meth:`replace` ``dst`` with the bytes of ``src``."""
        with open(src, "rb") as source:
            return self.replace(dst, iter(partial(source.read, 1 << 20), b""))
