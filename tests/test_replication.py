"""WAL-shipping replication, in-process and over real sockets.

A file-backed primary runs under a
:class:`~repro.service.ShardedLabelService` behind the network front end; a
:class:`~repro.repl.Follower` bootstraps from its newest checkpoint
image, mirrors the WAL — sealed segments and the live tail — through the
wire protocol's replication frames, and applies committed transactions
through the stock recovery machinery.  These tests pin the tier-1
contract: bootstrap requires a checkpoint, catch-up agrees with the
primary LID-for-LID, reader sessions on the follower stay pinned to
their epoch while new transactions apply, the replica rejects writes
(in-process and over the wire) until promoted, and the lag gauges read
zero exactly when the follower is caught up.
"""

from __future__ import annotations

import dataclasses
import os
import threading

import pytest

from repro import TINY_CONFIG, BatchOp, NaiveScheme, WBox
from repro.errors import ReplicationError, ServiceDegradedError
from repro.net import protocol as proto
from repro.net.client import NetClient
from repro import persist as persist_module
from repro.persist import checkpoint_scheme, create_store
from repro.repl import (
    Follower,
    annotate_commits_with_epoch,
    checkpoint_service,
    rotate_service_wal,
)
from repro.service import ShardedLabelService, bulk_load_sharded
from repro.storage import MANIFEST_NAME, BlockStore, FileBackend


class Primary:
    """A file-backed primary service behind a real server socket."""

    def __init__(self, tmp_path, n_shards=1, base=24, checkpoint=True, factory=WBox):
        from repro.net.server import run_server

        if n_shards == 1:
            backend = FileBackend(str(tmp_path / "primary.pages"))
            scheme = factory(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
            checkpoint_scheme(scheme)
            self.lids = scheme.bulk_load(base, [i ^ 1 for i in range(base)])
            self.service = ShardedLabelService([scheme]).start()
        else:
            schemes, self.lids = create_store(
                str(tmp_path / "primary-shards"),
                "wbox",
                n_shards,
                config=TINY_CONFIG,
                populate=lambda fresh: bulk_load_sharded(fresh, base),
            )
            self.service = ShardedLabelService(schemes).start()
        annotate_commits_with_epoch(self.service)
        if checkpoint:
            checkpoint_service(self.service)
        ready = threading.Event()
        self.holder: dict = {}
        self.thread = threading.Thread(
            target=run_server,
            args=(self.service,),
            kwargs={"ready": ready, "holder": self.holder},
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(10)
        self.port = self.holder["server"].port

    def insert(self, anchor):
        ticket = self.service.submit_ops([BatchOp("insert_before", (anchor,))])
        lid = ticket.wait(10).results[0]
        self.lids.append(lid)
        return lid

    def close(self):
        for cleanup in (self.holder["stop"], lambda: self.thread.join(10),
                        self.service.close):
            try:
                cleanup()
            except Exception:  # noqa: BLE001 — teardown
                pass


@pytest.fixture()
def primary(tmp_path):
    harness = Primary(tmp_path)
    yield harness
    harness.close()


def assert_twin(primary, follower):
    psess = primary.service.session()
    fsess = follower.service.session()
    for lid in primary.lids:
        assert fsess.lookup(lid) == psess.lookup(lid)


class TestBootstrap:
    def test_requires_a_checkpoint_image(self, tmp_path):
        harness = Primary(tmp_path, checkpoint=False)
        try:
            with pytest.raises(ReplicationError, match="no checkpoint image"):
                Follower("127.0.0.1", harness.port, str(tmp_path / "f")).connect()
        finally:
            harness.close()

    def test_bootstrap_matches_every_lid(self, primary, tmp_path):
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            assert_twin(primary, f)

    def test_streams_post_checkpoint_writes(self, primary, tmp_path):
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            for index in range(10):
                primary.insert(primary.lids[index])
                if index % 4 == 3:
                    rotate_service_wal(primary.service)
            f.catch_up()
            assert_twin(primary, f)
            shard = f.shards[0]
            assert shard.txns_applied > 0
            assert shard.segments_sealed >= 2  # mirrored rotations sealed locally

    def test_catch_up_is_safe_alongside_the_background_thread(self, primary, tmp_path):
        # Regression: catch_up() from the host thread and the start()ed
        # background run() drive the same per-shard cursors; without the
        # step lock the interleaving misaligned the mirrored-tail offset
        # and the follower died scanning magic bytes as a record header.
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.start()
            for index in range(12):
                primary.insert(primary.lids[index])
                if index % 3 == 2:
                    rotate_service_wal(primary.service)
                f.catch_up()
            f.catch_up()
            assert_twin(primary, f)

    def test_derived_order_scheme_applies_shipped_writes(self, tmp_path):
        """naive-k rebuilds its order list from the LIDF records when its
        scalars are restored, so a shipped commit's page images must be
        in place before the owner folds it."""
        harness = Primary(
            tmp_path, factory=lambda config, store: NaiveScheme(8, config, store=store)
        )
        try:
            with Follower("127.0.0.1", harness.port, str(tmp_path / "f")).connect() as f:
                f.catch_up()
                for index in range(12):
                    harness.insert(harness.lids[index])
                f.catch_up()
                assert f.shards[0].txns_applied >= 12
                assert_twin(harness, f)
        finally:
            harness.close()

    def test_follower_restart_resumes_from_local_state(self, primary, tmp_path):
        root = str(tmp_path / "f")
        with Follower("127.0.0.1", primary.port, root).connect() as f:
            f.catch_up()
            applied_before = f.shards[0].txns_applied
        for index in range(5):
            primary.insert(primary.lids[index])
        with Follower("127.0.0.1", primary.port, root).connect() as f:
            f.catch_up()
            assert_twin(primary, f)
            # Fresh instance over the same files: it resumed, not re-applied.
            assert f.shards[0].txns_applied <= applied_before + 6


class TestPinnedEpochReads:
    def test_session_stays_pinned_while_transactions_apply(self, primary, tmp_path):
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            pinned = f.service.session()
            before = {lid: pinned.lookup(lid) for lid in primary.lids[:12]}
            for index in range(6):
                primary.insert(primary.lids[index])
            f.catch_up()
            # The old session still answers at its pinned epoch...
            assert {lid: pinned.lookup(lid) for lid in before} == before
            # ...while a fresh session sees the applied transactions and
            # agrees with the primary on every label, new LIDs included.
            assert_twin(primary, f)

    def test_refresh_advances_to_applied_epoch(self, primary, tmp_path):
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            session = f.service.session()
            for index in range(4):
                primary.insert(primary.lids[index])
            f.catch_up()
            session.refresh()
            psess = primary.service.session()
            for lid in primary.lids:
                assert session.lookup(lid) == psess.lookup(lid)


class TestReplicaWritePath:
    def test_replica_rejects_writes_in_process(self, primary, tmp_path):
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            with pytest.raises(ServiceDegradedError, match="replica"):
                f.service.submit_ops([BatchOp("insert_before", (primary.lids[0],))])
            assert f.service.describe()["state"] == "replica"

    def test_replica_rejects_writes_over_the_wire(self, primary, tmp_path):
        from repro.net.server import run_server

        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            ready = threading.Event()
            holder: dict = {}
            thread = threading.Thread(
                target=run_server,
                args=(f.service,),
                kwargs={"ready": ready, "holder": holder},
                daemon=True,
            )
            thread.start()
            assert ready.wait(10)
            try:
                with NetClient("127.0.0.1", holder["server"].port) as client:
                    psess = primary.service.session()
                    got = client.lookup(primary.lids[:8])
                    assert got == [psess.lookup(lid) for lid in primary.lids[:8]]
                    with pytest.raises(ServiceDegradedError):
                        client.submit([BatchOp("insert_before", (primary.lids[0],))])
            finally:
                holder["stop"]()
                thread.join(10)

    def test_promote_enables_writes(self, primary, tmp_path):
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            promoted = f.promote()
            assert promoted.describe()["state"] != "replica"
            ticket = promoted.submit_ops(
                [BatchOp("insert_before", (primary.lids[0],))]
            )
            lid = ticket.wait(10).results[0]
            session = promoted.session()
            assert session.lookup(lid) is not None


class TestLag:
    def test_lag_is_zero_when_caught_up(self, primary, tmp_path):
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            shard = f.shards[0]
            assert shard.lag_bytes == 0
            assert shard.lag_epochs == 0

    def test_position_epoch_tracks_the_primary(self, primary, tmp_path):
        """The stamp rides in the owner's section of every DELTA; full
        checkpoints and rotations between the inserts put sealed (and
        empty) segments into the shipped stream too."""
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            for index in range(6):
                primary.insert(primary.lids[index])
                if index % 3 == 1:
                    checkpoint_service(primary.service)
                elif index % 3 == 2:
                    rotate_service_wal(primary.service)
                # Two full checkpoints unread would put the cursor below
                # the retention horizon; an attached follower keeps up.
                f.catch_up()
            shard = f.shards[0]
            assert shard.segments_sealed >= 4
            assert shard.position_epoch == primary.service.current_epoch_vector.numbers[0]
            assert shard.primary_epoch == primary.service.current_epoch_vector.numbers[0]
            assert shard.lag_epochs == 0


class TestSharded:
    def test_two_shard_replication(self, tmp_path):
        harness = Primary(tmp_path, n_shards=2, base=48)
        try:
            with Follower(
                "127.0.0.1", harness.port, str(tmp_path / "f")
            ).connect() as f:
                f.catch_up()
                assert len(f.shards) == 2
                assert_twin(harness, f)
                for index in range(8):
                    harness.insert(harness.lids[index])
                rotate_service_wal(harness.service)
                f.catch_up()
                assert_twin(harness, f)
                with pytest.raises(ServiceDegradedError, match="replica"):
                    f.service.submit_ops(
                        [BatchOp("insert_before", (harness.lids[0],))]
                    )
        finally:
            harness.close()

    def test_failed_shard_bootstrap_leaves_nothing_open(self, tmp_path, monkeypatch):
        """Shard 1 reports no checkpoint image: ``with Follower(...)``
        raises before ``__exit__`` could run.  Every shard's files are
        bootstrapped before the store opens, so no shard was opened, and
        the client is closed again all the same."""
        harness = Primary(tmp_path, n_shards=2)
        real_state, real_open = NetClient.repl_state, persist_module.open_file_scheme
        clients, opened = [], []

        def state(client, shard=0, timeout=30.0):
            clients.append(client)
            manifest = real_state(client, shard, timeout)
            return dataclasses.replace(manifest, checkpoint_segment=0) if shard else manifest

        def recording(path, **kwargs):
            opened.append(real_open(path, **kwargs))
            return opened[-1]

        monkeypatch.setattr(NetClient, "repl_state", state)
        monkeypatch.setattr(persist_module, "open_file_scheme", recording)
        follower = Follower("127.0.0.1", harness.port, str(tmp_path / "f"))
        try:
            with pytest.raises(ReplicationError, match="no checkpoint image"):
                with follower:
                    pass
        finally:
            harness.close()
        assert opened == []
        assert clients[0]._closed and follower.client is None and follower.service is None

    def test_failed_shard_open_leaves_nothing_open(self, tmp_path, monkeypatch):
        """Shard 1's page file fails to open after shard 0's opened: the
        store opener closes shard 0's backend, the follower its client."""
        harness = Primary(tmp_path, n_shards=2)
        real_open = persist_module.open_file_scheme
        opened = []

        def failing(path, **kwargs):
            if path.endswith("shard-001.pages"):
                raise OSError("shard 1 cannot open")
            opened.append(real_open(path, **kwargs))
            return opened[-1]

        monkeypatch.setattr(persist_module, "open_file_scheme", failing)
        follower = Follower("127.0.0.1", harness.port, str(tmp_path / "f"))
        try:
            with pytest.raises(OSError, match="shard 1 cannot open"):
                with follower:
                    pass
        finally:
            harness.close()
        (shard0,) = opened
        assert shard0.store.backend._handle.closed
        assert follower.client is None and follower.service is None


class TestFatalReplicationErrors:
    def test_replication_error_is_not_retried(self, primary, tmp_path):
        """A :class:`ReplicationError` the follower raises itself (here a
        cursor past the primary's next segment) is fatal: ``catch_up``
        raises it without re-dialing, and ``run`` returns with it as
        ``last_error`` instead of reconnecting forever."""
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            redials = []
            f._reconnect = lambda: redials.append(1)
            f.shards[0].segment += 5
            with pytest.raises(ReplicationError, match="history was reset"):
                f.catch_up()
            runner = threading.Thread(target=f.run, daemon=True)
            runner.start()
            runner.join(5)
            alive = runner.is_alive()
            f.stop()
            assert not alive
            assert isinstance(f.last_error, ReplicationError)
            assert redials == []

    def test_a_tape_that_does_not_follow_is_named(self, primary, tmp_path):
        """A tapeless primary commit — a direct scheme edit, outside every
        batch — is a checkpoint at a new LSN that the log carries nothing
        of.  The follower cannot re-create it: the next shipped tape names
        both LSNs, the follower stops with a :class:`ReplicationError`
        and never serves a state past the gap."""
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            f.catch_up()
            shard = primary.service.shards[0]
            backend = shard.scheme.store.backend
            with shard._latch.exclusive():
                gap = shard.scheme.insert_before(primary.lids[3])
            skipped = backend.lsn
            primary.insert(primary.lids[5])
            with pytest.raises(
                ReplicationError,
                match=f"log transaction {skipped + 1} cannot follow state {skipped - 1}",
            ):
                f.catch_up()
            assert f.service.shards[0].degraded
            assert f.shards[0].backend.lsn == skipped - 1
            with pytest.raises(ServiceDegradedError):
                f.service.session().lookup(gap)


class TestBootstrapDownload:
    def test_short_image_read_leaves_no_temp_file(self, primary, tmp_path, monkeypatch):
        """A primary that reports a longer image than it sends fails the
        bootstrap with a typed error, and the download is one atomic
        replace: no page file and no temp file are left behind, only the
        shard manifest ``connect`` wrote first."""
        real = NetClient.repl_fetch

        def short(self, shard, kind, segment, offset=0, **options):
            chunk = real(self, shard, kind, segment, offset=offset, **options)
            if kind != proto.REPL_FETCH_IMAGE:
                return chunk
            return dataclasses.replace(chunk, data=chunk.data[: max(0, chunk.total // 2 - offset)])

        monkeypatch.setattr(NetClient, "repl_fetch", short)
        root = tmp_path / "f"
        follower = Follower("127.0.0.1", primary.port, str(root))
        try:
            with pytest.raises(ReplicationError, match="short image read"):
                follower.connect()
        finally:
            follower.close()
        assert os.listdir(root) == [MANIFEST_NAME]
