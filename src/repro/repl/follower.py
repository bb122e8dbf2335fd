"""The replication follower: pull, persist, apply, publish.

A :class:`Follower` mirrors a primary's WAL stream into a local copy of
the primary's on-disk layout and applies every committed transaction to
a replica label service, one shard at a time:

1. **Bootstrap.**  A fresh follower downloads the newest checkpoint
   image (a complete, self-describing page file); a follower restarting
   over existing local files keeps them, unless the primary's retention
   has deleted the segment they resume at: then they are discarded and
   the shard bootstraps afresh.  Either way the store then opens through
   the ordinary :func:`~repro.persist.open_store` path — local crash
   recovery replays the committed tail and trims a torn suffix, exactly
   like a primary restart would.
2. **Log-first shipping.**  Fetched WAL bytes are appended to the local
   live log (its ``WALWriter``) *before* they are applied, so a follower
   killed mid-apply loses nothing: on restart, recovery replays the
   persisted committed prefix and the cursor resumes at the local byte
   position.
3. **Apply.**  Committed transactions are parsed out of the shipped
   bytes and replayed into the live replica under its exclusive latch by
   the same :func:`~repro.persist.replay_transaction` recovery runs: the
   tape re-runs through the batch executor, no page or directory write
   (dirty pages stay in memory until the follower's own next
   checkpoint) — then a fresh epoch is published.  The re-run records
   the §6 effects the primary recorded, so pinned-epoch reader sessions
   on the follower behave exactly like sessions on the primary; a re-run
   that diverges from the log stops the follower with a
   :class:`~repro.errors.ReplicationError`.
4. **Sealing.**  When the primary reports a segment sealed and the
   follower has fully mirrored and applied it, the follower checkpoints
   its own page file and seals its local copy too, keeping the two
   segment numberings aligned: the log carries no page image, so the
   follower writes its pages where its primary did, at the same LSN.  A
   running follower whose cursor falls below the primary's retention
   horizon stops with a :class:`~repro.errors.ReplicationError`.

:meth:`Follower.promote` stops following and turns the replica service
into a writable primary (failover handoff).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Iterator

from ..errors import ProtocolError, RecoveryError, ReplicationError, ServiceError
from ..net import protocol as proto
from ..net.client import NetClient
from ..obs.metrics import get_registry
from ..persist import open_store, replay_transaction
from ..service.service import LabelService
from ..service.sharded import ShardedLabelService
from ..storage.disk import Disk
from ..storage.shardlayout import shard_page_path, write_manifest
from ..storage.wal import MAGIC as WAL_MAGIC
from ..storage.wal import scan_wal_bytes
from ..storage.walseg import fresh_manifest, manifest_path, read_wal_manifest, write_json_atomic

__all__ = ["Follower", "ShardFollower"]

#: Errors :meth:`Follower.run` treats as "primary unreachable": back off
#: and reconnect instead of dying.  Anything else — malformed shipped
#: bytes, a cursor the primary cannot serve, and every
#: :class:`ReplicationError` although it is a :class:`ServiceError` — is
#: fatal.
_RETRYABLE = (ConnectionError, OSError, TimeoutError, ServiceError, ProtocolError)

#: Seconds a follower backs off before re-dialing a vanished primary.
RECONNECT_BACKOFF = 0.2

#: Re-dials :meth:`Follower.catch_up` makes before a dead connection's
#: failure propagates.
RECONNECT_ATTEMPTS = 25


def _behind_horizon(segment: int, manifest: Any) -> bool:
    """Whether a follower cursor at ``segment`` is below the primary's
    retention horizon: neither a retained segment nor the live tail, and
    older than the newest checkpoint image."""
    return (
        segment != manifest.next_segment
        and segment not in manifest.segments
        and segment < manifest.checkpoint_segment
    )


class ShardFollower:
    """The per-shard pull/persist/apply cursor (see module docstring).

    Wraps one replica :class:`LabelService` whose backend is the local
    mirror of the shard's page file.  Not thread-safe; the owning
    :class:`Follower` drives every shard from one thread.
    """

    def __init__(self, client: NetClient, shard: int, service: LabelService) -> None:
        self.client = client
        self.shard = shard
        self.service = service
        self.scheme = service.scheme
        self.backend = service.scheme.store.backend
        #: Cursor: the segment being mirrored (local manifest's next id —
        #: local sealing keeps it aligned with the primary's numbering).
        self.segment: int = self.backend.wal_manifest["next_segment"]
        try:
            size = os.path.getsize(self.backend.wal_path)
        except OSError:
            size = 0
        #: Bytes of the current segment persisted locally (== local live
        #: log size; the fetch offset).
        self.offset: int = size
        #: Bytes of the current segment applied (local recovery already
        #: replayed everything persisted-and-committed, and trimmed any
        #: torn suffix, so both cursors start at the file size).
        self.applied: int = size
        self._pending = b""  # persisted-but-not-yet-committed window
        self.txns_applied = 0
        self.segments_sealed = 0
        #: The primary epoch the last applied transaction was committed
        #: at (the stamp its DELTA carried; None until one is seen).
        self.position_epoch: int | None = None
        self.primary_epoch = 0
        labels = {"shard": f"shard{shard}"}
        registry = get_registry()
        self._lag_bytes = registry.gauge(
            "repro_repl_lag_bytes", labels=labels,
            help="WAL bytes the primary has committed but this follower has not applied",
        )
        self._lag_epochs = registry.gauge(
            "repro_repl_lag_epochs", labels=labels,
            help="primary epochs ahead of this follower's applied position",
        )
        self._txns_total = registry.counter(
            "repro_repl_txns_applied_total", labels=labels,
            help="shipped WAL transactions applied by the follower",
        )
        self._bytes_total = registry.counter(
            "repro_repl_bytes_applied_total", labels=labels,
            help="shipped WAL bytes applied by the follower",
        )
        self._segments_total = registry.counter(
            "repro_repl_segments_applied_total", labels=labels,
            help="sealed segments fully mirrored and sealed locally",
        )

    # -- one round ------------------------------------------------------

    def step(self) -> bool:
        """Pull and apply whatever the primary has beyond the cursor.

        Returns True when any progress was made (bytes applied or a
        segment sealed).  Loops internally until the shard is fully
        caught up with the primary's current position.
        """
        manifest = self.client.repl_state(self.shard)
        self.primary_epoch = manifest.epoch
        if self.segment > manifest.next_segment:
            raise ReplicationError(
                f"shard {self.shard}: follower cursor at segment "
                f"{self.segment} but primary's next is {manifest.next_segment} "
                "(primary history was reset?)"
            )
        if _behind_horizon(self.segment, manifest):
            raise ReplicationError(
                f"shard {self.shard}: follower cursor at segment {self.segment} "
                "is below the primary's retention horizon (its newest image is "
                f"at segment {manifest.checkpoint_segment}); restart the "
                "follower to re-bootstrap from the newest checkpoint image"
            )
        progressed = False
        while True:
            chunk = self.client.repl_fetch(
                self.shard, proto.REPL_FETCH_WAL, self.segment, offset=self.offset
            )
            if chunk.total < self.offset:
                # The primary restarted and its recovery trimmed a torn
                # suffix we had already mirrored.  Those bytes were never
                # committed (we apply only committed prefixes), so cut
                # the local log back to the applied position and refetch.
                self.trim_to_applied()
                continue
            if chunk.data:
                self.backend._wal.append_raw(chunk.data)
                self.offset += len(chunk.data)
                self._pending += chunk.data
                self._apply_pending()
                progressed = True
            if chunk.sealed and self.offset >= chunk.total:
                self._seal_local()
                progressed = True
                continue
            if not chunk.data:
                break
        self._update_lag(manifest)
        return progressed

    # -- the local log ---------------------------------------------------

    def trim_to_applied(self) -> None:
        """Cut the local live log back to the applied (committed) prefix.

        Run after any event that may mean the primary restarted: its
        recovery trims the torn tail this follower may have mirrored, and
        if the primary then commits past the stale cursor before the next
        fetch, ``chunk.total < offset`` would never fire — the stream
        would resume misaligned.  Applied bytes are always safe to keep:
        only committed bytes get applied, and recovery never trims those.
        """
        self.backend._wal.trim(self.applied)
        self.offset = self.applied
        self._pending = b""

    def _seal_local(self) -> None:
        """Seal the fully mirrored current segment and advance the cursor."""
        if self._pending:
            raise ReplicationError(
                f"shard {self.shard}: segment {self.segment} reported sealed "
                f"with {len(self._pending)} unapplied byte(s) pending"
            )
        with self.service._latch.exclusive():
            sealed = self.backend.seal_wal_segment()
        if sealed != self.segment:
            raise ReplicationError(
                f"shard {self.shard}: local seal produced segment {sealed}, "
                f"expected {self.segment} (manifests diverged)"
            )
        self.segment += 1
        self.offset = 0
        self.applied = 0
        self.segments_sealed += 1
        self._segments_total.inc()

    # -- apply ----------------------------------------------------------

    def _apply_pending(self) -> None:
        """Parse and apply every committed transaction in the pending
        window; the remainder (a transaction still being shipped) waits
        for more bytes."""
        expect_magic = self.applied == 0
        if expect_magic and len(self._pending) < len(WAL_MAGIC):
            return
        scan = scan_wal_bytes(
            self._pending,
            expect_magic=expect_magic,
            source=f"shard {self.shard} segment {self.segment}",
            count_tail=False,
        )
        for txn in scan.transactions:
            self._apply_txn(txn)
        if scan.committed_bytes:
            self._bytes_total.inc(scan.committed_bytes)
            self._pending = self._pending[scan.committed_bytes:]
            self.applied += scan.committed_bytes

    def _apply_txn(self, txn: Any) -> None:
        """Apply one committed transaction under the exclusive latch:
        :func:`~repro.persist.replay_transaction` re-runs its tape on the
        live scheme, whose effects reach the replica's log, then an epoch
        is published, so readers move to the new state exactly as they
        would on the primary.  A transaction the state already includes
        changes nothing readers can see.  A re-run that diverges, or a
        tape that does not follow the replica's LSN, degrades the replica
        (its readers keep their pinned epochs, no read reaches the
        diverged structure) and raises
        :class:`~repro.errors.ReplicationError`.
        """
        service = self.service
        with service._latch.exclusive():
            try:
                applied = replay_transaction(self.scheme, txn)
            except RecoveryError as error:
                service._enter_degraded(error)
                raise ReplicationError(
                    f"shard {self.shard}: replaying the primary's log diverged: {error}"
                ) from error
            if applied:
                service._publish()
                self.position_epoch = self.backend.owner.scalars[0] or self.position_epoch
                self.txns_applied += 1
                self._txns_total.inc()

    # -- lag ------------------------------------------------------------

    def _update_lag(self, manifest: Any) -> None:
        """Refresh the lag gauges against the primary position just seen.

        While still mirroring sealed segments their sizes are unknown
        without a fetch, so ``lag_bytes`` counts the live tail only —
        precise in the steady state (cursor on the tail segment), a
        lower bound while catching up through sealed history.
        """
        if self.segment == manifest.next_segment:
            lag_bytes = max(0, manifest.tail_bytes - self.applied)
        else:
            lag_bytes = manifest.tail_bytes + max(0, self.offset - self.applied)
        self._lag_bytes.set(lag_bytes)
        caught_up = (
            self.segment == manifest.next_segment
            and self.applied >= manifest.tail_bytes
        )
        if caught_up:
            self._lag_epochs.set(0)
        elif self.position_epoch is not None:
            self._lag_epochs.set(max(0, manifest.epoch - self.position_epoch))

    @property
    def lag_bytes(self) -> float:
        return self._lag_bytes.value

    @property
    def lag_epochs(self) -> float:
        return self._lag_epochs.value


class Follower:
    """A whole-service replication follower (all shards of one primary).

    Parameters
    ----------
    host, port:
        The primary's network front end.
    root:
        Local directory holding the mirrored store: one
        ``shard-NNN.pages`` file (plus live WAL, sealed segments and
        manifest) per shard — the same layout a sharded primary uses, so
        every existing tool opens a follower's files.
    poll_interval:
        Idle sleep between pull rounds when fully caught up.
    log_capacity:
        Modification-log capacity of the replica service (the reader
        write-window, exactly as on a primary).
    """

    def __init__(
        self,
        host: str,
        port: int,
        root: str,
        *,
        poll_interval: float = 0.05,
        log_capacity: int = 1024,
    ) -> None:
        self.host = host
        self.port = port
        self.root = root
        self.poll_interval = poll_interval
        self.log_capacity = log_capacity
        self.client: NetClient | None = None
        self.service: ShardedLabelService | None = None
        self.shards: list[ShardFollower] = []
        self.last_error: BaseException | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # Serializes pull rounds: catch_up() from a host thread and the
        # start()ed background run() both drive the same per-shard
        # cursors, and an unserialized interleaving would misalign the
        # mirrored-tail offsets.
        self._step_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    def connect(self) -> "Follower":
        """Dial the primary, bootstrap every shard's local files, open the
        store and build the replica service.  Idempotent once connected.
        A shard that fails to bootstrap or open closes the client (and
        :func:`~repro.persist.open_store` the shards it opened), then the
        error propagates."""
        if self.service is not None:
            return self
        self.client = NetClient(self.host, self.port)
        try:
            info = self.client.server_info
            assert info is not None
            write_manifest(self.root, info.n_shards)
            for shard in range(info.n_shards):
                self._bootstrap_shard(shard)
            self.service = ShardedLabelService(
                open_store(self.root), log_capacity=self.log_capacity, replica=True
            )
        except BaseException:
            self.client.close()
            self.client = None
            raise
        self.shards = [
            ShardFollower(self.client, shard, shard_service)
            for shard, shard_service in enumerate(self.service.shards)
        ]
        return self

    def _bootstrap_shard(self, shard: int) -> None:
        """Make sure one shard's local page file is present: keep it if it
        is, otherwise download the primary's newest checkpoint image and
        seed the local manifest at its segment.  Local files that resume
        below the primary's retention horizon are deleted first — only
        this shard's — so the shard bootstraps afresh."""
        assert self.client is not None
        path = shard_page_path(self.root, shard)
        manifest = self.client.repl_state(shard)
        if os.path.exists(path) and os.path.getsize(path) > 0:
            if not _behind_horizon(read_wal_manifest(path)["next_segment"], manifest):
                return
            directory, base = os.path.split(path)
            for name in os.listdir(directory):
                if name == base or name.startswith(base + "."):
                    Disk().remove(os.path.join(directory, name))
        if manifest.checkpoint_segment == 0:
            raise ReplicationError(
                f"primary shard {shard} has no checkpoint image; run a "
                "full checkpoint (repro.repl.checkpoint_service) before "
                "attaching a follower"
            )
        self._download_image(shard, manifest.checkpoint_segment, path)
        local = fresh_manifest()
        local["next_segment"] = manifest.checkpoint_segment
        write_json_atomic(manifest_path(path), local)

    def _download_image(self, shard: int, segment: int, dest: str) -> None:
        """One atomic replace: a short read leaves no ``dest``, no temp file."""
        assert self.client is not None

        def chunks() -> Iterator[bytes]:
            offset = 0
            while True:
                chunk = self.client.repl_fetch(
                    shard, proto.REPL_FETCH_IMAGE, segment, offset=offset
                )
                yield chunk.data
                offset += len(chunk.data)
                if offset >= chunk.total:
                    return
                if not chunk.data:
                    raise ReplicationError(
                        f"short image read: {offset} of {chunk.total} bytes"
                    )

        Disk().replace(dest, chunks())

    def _reconnect(self) -> None:
        with self._step_lock:
            old = self.client
            self.client = NetClient(self.host, self.port)
            for shard in self.shards:
                shard.client = self.client
                # The dropped connection may mean the primary restarted
                # and its recovery trimmed a torn tail we already
                # mirrored; fall back to the applied prefix (always
                # committed, never trimmed) and refetch from there.
                shard.trim_to_applied()
        if old is not None:
            try:
                old.close(timeout=0.5)
            except Exception:  # noqa: BLE001 — old socket is best-effort
                pass

    # -- driving --------------------------------------------------------

    def step(self) -> bool:
        """One pull round over every shard; True if any made progress.
        Safe to call concurrently with a :meth:`start`-ed background
        thread — rounds are serialized on a lock."""
        if self.service is None:
            self.connect()
        with self._step_lock:
            progressed = False
            for shard in self.shards:
                progressed = shard.step() or progressed
            return progressed

    def catch_up(self) -> "Follower":
        """Pull until no shard makes further progress (a quiesced primary
        is then fully mirrored and applied).  A dead connection — the
        primary restarted, or the background thread stopped mid-outage —
        is re-dialed up to :data:`RECONNECT_ATTEMPTS` times before the
        failure propagates; a :class:`ReplicationError` propagates at
        once."""
        attempts = 0
        while True:
            try:
                if not self.step():
                    return self
            except ReplicationError:
                raise
            except _RETRYABLE as error:
                attempts += 1
                if attempts > RECONNECT_ATTEMPTS:
                    raise
                self.last_error = error
                time.sleep(RECONNECT_BACKOFF)
                try:
                    self._reconnect()
                except OSError as dial_error:
                    self.last_error = dial_error

    def run(self, stop: threading.Event | None = None) -> None:
        """Follow until ``stop`` is set.  A vanished primary is retried
        (reconnect + resume); malformed history is fatal, and a
        :class:`ReplicationError` ends the run with ``last_error`` set."""
        if stop is not None:
            self._stop = stop
        self.connect()
        while not self._stop.is_set():
            try:
                progressed = self.step()
            except ReplicationError as error:
                self.last_error = error
                return
            except _RETRYABLE as error:
                self.last_error = error
                if self._stop.wait(RECONNECT_BACKOFF):
                    break
                try:
                    self._reconnect()
                except OSError as dial_error:
                    self.last_error = dial_error
                continue
            if not progressed:
                self._stop.wait(self.poll_interval)

    def start(self) -> "Follower":
        """Run :meth:`run` on a background daemon thread."""
        self.connect()
        if self._thread is None or not self._thread.is_alive():
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self.run, name="repl-follower", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def promote(self) -> ShardedLabelService:
        """Stop following and turn the replica into a writable service.

        Failover handoff: pulls whatever the (presumably dead) primary
        already shipped is NOT attempted — promotion serves exactly the
        applied state.  Returns the now-writable service."""
        self.stop()
        return self.service.promote()

    def close(self) -> None:
        self.stop()
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.service is not None:
            self.service.close()
            self.service = None

    def __enter__(self) -> "Follower":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
