"""Command-line interface.

Twelve subcommands, all built on the public API::

    python -m repro label    doc.xml --scheme bbox --save labels.box
    python -m repro query    doc.xml "//item[mailbox/mail]" --scheme wbox
    python -m repro workload concentrated --scheme bbox --base 2000 --inserts 500
    python -m repro inspect  labels.box
    python -m repro recover  store/
    python -m repro info     store/
    python -m repro stress   --scheme wbox --shards 2 --readers 4 --seconds 5
    python -m repro serve    doc.xml --scheme bbox
    python -m repro replicate --follow HOST:PORT --root DIR
    python -m repro metrics  --scheme wbox
    python -m repro trace    --op insert --scheme wbox
    python -m repro chaos    --seeds 20

``label`` parses and bulk-loads a document and reports structure statistics
(optionally persisting the labeled structure); ``query`` evaluates an
XPath-subset expression over a freshly labeled document and reports the
block I/O it cost; ``workload`` runs one of the paper's insertion sequences
and prints the cost summary; ``inspect`` reloads a saved structure.

Commands that build a scheme accept ``--storage file --storage-path DIR`` to
run on real page files with write-ahead logging instead of the default
in-memory backend — the counted I/Os are identical, the files survive the
process.  ``DIR`` is always a store root (``SHARDS.json`` plus one page
file per shard, one shard included), created through
:func:`~repro.persist.create_store`, which refuses a store that exists;
only ``serve --listen`` reopens one.  ``recover`` reopens a root or a bare
page file (replaying or discarding any interrupted commit, shard by
shard) and verifies the structure; ``info`` prints what a saved file or
root contains — snapshot or page files — without modifying it.

``stress`` spins up the concurrent :class:`~repro.service.ShardedLabelService`
over ``--shards N`` synthetic shards and hammers it with reader threads beside
one write client per shard, printing throughput and the service counters;
``serve`` labels a document and answers lookup/compare/insert commands on
stdin through a reader session and the bounded write queue;
``replicate`` runs a read replica that follows a ``serve --listen
--replicate`` primary's write-ahead log.

``chaos`` runs the seeded fault-injection sweep of :mod:`repro.faults`:
N seeds x fault plans x scheme variants, each trial crashing a live
file-backed service (a backend, a shard's writer, its follower, or the
primary under a follower) mid-tape, recovering it, and checking every LID
against a twin oracle on the memory backend.

``metrics`` runs a small sample workload through the service and prints the
process metrics registry (Prometheus text or JSON); ``trace`` enables the
tracer, runs one operation against an XMark document on a file-backed
store, and prints the resulting span tree — service through batch engine,
scheme, block store, backend, and WAL — verifying that the tree's counted
I/Os sum to the scheme's :class:`~repro.storage.stats.IOStats` delta.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing, contextmanager, nullcontext
from typing import Any, Callable, Iterator

from . import workloads
from .config import BoxConfig
from .errors import PersistError, RecoveryError, ReproError
from .persist import (
    MAGIC,
    checkpoint_scheme,
    create_store,
    load_document,
    load_scheme,
    open_store,
    read_snapshot_header,
    save_document,
)
from .service.sharded import ShardedLabelService, bulk_load_sharded
from .storage import (
    is_sharded_root,
    read_manifest,
    read_directory,
    scan_wal,
    shard_page_path,
)
from .storage.filebackend import logged_tapes


@contextmanager
def _store(
    args: argparse.Namespace,
    shards: int = 1,
    populate: Callable[[list[Any]], Any] | None = None,
    *,
    reopen: bool = False,
    fsync: bool = False,
) -> Iterator[list[Any]]:
    """The one way a verb gets its schemes (one per shard).

    ``--storage memory`` makes in-memory schemes; ``--storage file``
    creates a store root at ``--storage-path``
    (:func:`~repro.persist.create_store`, which refuses a store that
    exists and runs ``populate`` on a fresh store), or — with ``reopen`` —
    reopens the store there if there is one (:func:`~repro.persist.open_store`).
    On exit every file shard is checkpointed (the durability point) and
    closed.
    """
    root = args.storage_path if args.storage == "file" else None
    if args.storage == "file" and not root:
        raise ReproError("--storage file requires --storage-path")
    if reopen and root is not None and (os.path.isfile(root) or is_sharded_root(root)):
        schemes = open_store(root, fsync=fsync)
    else:
        schemes, _ = create_store(
            root,
            args.scheme,
            shards,
            config=BoxConfig(block_bytes=args.block_bytes),
            populate=populate,
            fsync=fsync,
        )
    try:
        yield schemes
    finally:
        if root is not None:
            for scheme in schemes:
                checkpoint_scheme(scheme).close()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme",
        default="bbox",
        help="wbox | wbox-ordinal | wboxo | bbox | bbox-o | ordpath | naive-<k> "
        "| ancestry | ancestry-dyn (default: bbox)",
    )
    parser.add_argument(
        "--block-bytes",
        type=int,
        default=1024,
        help="block size in bytes (default 1024)",
    )
    parser.add_argument(
        "--storage",
        choices=["memory", "file"],
        default="memory",
        help="block storage backend (default: memory; 'file' needs --storage-path)",
    )
    parser.add_argument(
        "--storage-path",
        metavar="DIR",
        help="store root for --storage file (SHARDS.json + one page file and WAL per shard)",
    )


def _is_saved_structure(path: str) -> bool:
    try:
        with open(path, "rb") as handle:
            # any version: an old one is refused by name when loaded
            return handle.read(len(MAGIC))[:4] == MAGIC[:4]
    except OSError:
        return False


def _parse_document(path: str) -> Any:
    """Parse an XML file — before a verb creates its store, so a bad
    document leaves no store behind."""
    from .xml.parser import parse

    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def cmd_label(args: argparse.Namespace) -> int:
    from .core.document import LabeledDocument
    from .xml.model import element_count, tree_depth

    root = _parse_document(args.document)
    with _store(args) as (scheme,):
        before = scheme.stats.snapshot()
        doc = LabeledDocument(scheme, root)
        load_io = (scheme.stats.snapshot() - before).total
        info = scheme.describe()
        print(f"document: {args.document}")
        print(f"  elements:     {element_count(doc.root)}")
        print(f"  depth:        {tree_depth(doc.root)}")
        print(f"  scheme:       {info['scheme']}")
        print(f"  labels:       {info['labels']}")
        print(f"  blocks:       {info['blocks']}")
        print(f"  label bits:   {info['label_bits']}")
        if hasattr(scheme, "height"):
            print(f"  tree height:  {scheme.height}")
        print(f"  bulk-load IO: {load_io} block I/Os")
        if args.save:
            save_document(doc, args.save)
            print(f"  saved to:     {args.save} (reload with 'query'/'inspect')")
    if args.storage == "file":
        print(f"  checkpointed: {args.storage_path} (reopen with 'recover'/'info')")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .core.document import LabeledDocument
    from .query.xpath import evaluate

    # A previously saved labeled document needs no store and no re-labeling.
    saved = _is_saved_structure(args.document)
    root = None if saved else _parse_document(args.document)
    with nullcontext((None,)) if saved else _store(args) as (scheme,):
        doc = load_document(args.document) if saved else LabeledDocument(scheme, root)
        before = doc.scheme.stats.snapshot()
        matches = evaluate(doc, args.expression)
        query_io = (doc.scheme.stats.snapshot() - before).total
        print(f"{args.expression}: {len(matches)} match(es), {query_io} block I/Os")
        limit = args.limit if args.limit > 0 else len(matches)
        for element in matches[:limit]:
            attributes = " ".join(f'{k}="{v}"' for k, v in element.attributes.items())
            start, end = doc.labels(element)
            text = f" {attributes}" if attributes else ""
            print(f"  <{element.name}{text}>  labels=({start}, {end})")
        if len(matches) > limit:
            print(f"  ... and {len(matches) - limit} more")
    return 0


#: ``workload`` sequence name -> its runner call on :mod:`repro.workloads`;
#: the one place the verb tells the sequences apart.
SEQUENCES = {
    "concentrated": lambda scheme, args: workloads.run_concentrated(
        scheme, args.base, args.inserts, group_size=args.batch
    ),
    "scattered": lambda scheme, args: workloads.run_scattered(
        scheme, args.base, args.inserts, group_size=args.batch
    ),
    # One by one, the build is measured after the paper's priming prefix; a
    # commit group straddles any priming index, so groups are measured whole.
    "xmark": lambda scheme, args: workloads.run_xmark_build(
        scheme,
        max(1, args.base // 30),
        prime_fraction=0.6 if args.batch == 1 else 0.0,
        group_size=args.batch,
    ),
}


def cmd_workload(args: argparse.Namespace) -> int:
    if args.batch < 1:
        raise ReproError(f"--batch must be >= 1, got {args.batch}")
    with _store(args) as (scheme,):
        result = SEQUENCES[args.sequence](scheme, args)
    summary = workloads.summarize(result.costs)
    cost = result.batch.amortized_cost
    batched = " (batched)" if result.group_size > 1 else ""
    print(f"workload: {result.workload}{batched}, scheme: {result.scheme}")
    print(f"  ops / groups:     {result.op_count} / {result.group_count} "
          f"(group size {result.group_size})")
    print(f"  mean I/O:         {summary['mean']:.2f} per commit group")
    print(f"  amortized I/O:    {cost.total:.2f} per op "
          f"({cost.reads:.2f} reads, {cost.writes:.2f} writes)")
    print(f"  p50 / p90 / p99:  {summary['p50']} / {summary['p90']} / {summary['p99']}")
    print(f"  max:              {summary['max']}")
    print(f"  total I/O:        {summary['total']}")
    print(f"  wall seconds:     {result.wall_seconds:.3f}")
    if hasattr(scheme, "relabel_count"):
        print(f"  relabels:         {scheme.relabel_count}")
    return 0


def cmd_stress(args: argparse.Namespace) -> int:
    with _store(args, args.shards) as schemes:
        result = workloads.run_stress(
            schemes,
            base_labels=2 * args.base,
            readers=args.readers,
            duration=args.seconds,
            write_batch=args.write_batch,
            group_size=args.group_size,
            log_capacity=args.log_capacity,
            think_seconds=args.think_ms / 1000.0,
            write_pause=args.write_pause_ms / 1000.0,
            write_mode=args.write_mode,
            hot_labels=2 * args.hot or None,
        )
    totals = result.totals
    print(f"stress: scheme={result.scheme} shards={result.shards} "
          f"readers={result.readers} mode={args.write_mode} "
          f"seconds={result.wall_seconds:.2f}")
    print(f"  read ops:          {result.read_ops} "
          f"({result.reads_per_second:.0f}/s aggregate)")
    print(f"  write ops:         {sum(result.write_ops)} "
          f"({result.writes_per_second:.0f}/s aggregate)")
    print(f"  epoch vector:      {result.epoch_numbers}")
    print(f"  epochs published:  {totals.epochs_published}")
    print(f"  write merges:      {totals.write_merges}")
    print(f"  repair hit ratio:  {totals.repair_hit_ratio:.3f} "
          f"(fresh {totals.fresh_hits}, replayed {totals.replay_hits})")
    print(f"  fallthrough reads: {totals.fallthrough_reads}")
    print(f"  backpressure:      {totals.backpressure_waits} wait(s)")
    print(f"  epoch lag:         mean {totals.mean_epoch_lag:.2f}, "
          f"max {totals.max_epoch_lag}")
    print(f"  write errors:      {totals.write_errors}")
    for error in result.errors:
        print(f"error: stress thread failed: {error!r}", file=sys.stderr)
    return 1 if result.errors else 0


def _parse_listen(listen: str) -> tuple[str, int]:
    host, _, port_text = listen.rpartition(":")
    try:
        return host or "127.0.0.1", int(port_text)
    except ValueError:
        raise ReproError(f"--listen wants HOST:PORT, got {listen!r}")


@contextmanager
def _serving(args: argparse.Namespace) -> Iterator[tuple[Any, Any]]:
    """The started service behind ``serve`` → ``(service, doc)``.

    Two modes: an XML ``document`` positional, labeled on a fresh
    one-shard store; or — with ``--listen`` only — a synthetic store of
    ``--base`` labels over ``--shards`` shards (``doc`` is ``None``), in
    memory or a file root under ``--storage-path`` that is bulk-loaded on
    first start and reopened on every start after that.
    """
    from .core.document import LabeledDocument

    if args.document:
        root = _parse_document(args.document)
        store = _store(args)
    elif args.replicate and args.storage == "memory":
        raise ReproError("serve --replicate needs --storage file (WAL shipping)")
    else:
        root = None
        populate = lambda schemes: bulk_load_sharded(schemes, args.base)
        store = _store(args, args.shards, populate, reopen=True, fsync=args.fsync)
    with store as schemes:
        doc = None if root is None else LabeledDocument(schemes[0], root)
        with ShardedLabelService(schemes, log_capacity=args.log_capacity) as service:
            yield service, doc


def _cmd_serve_net(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .net.server import NetServer

    host, port = _parse_listen(args.listen)

    async def _run(service: Any) -> None:
        server = NetServer(
            service,
            host,
            port,
            max_inflight=args.max_inflight,
            submit_timeout=args.submit_timeout,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover — non-POSIX loop
                signal.signal(signum, lambda *_: stop.set())
        # Only now: a signal sent at the banner must find its handler in.
        print(f"listening on {server.host}:{server.port}", flush=True)
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        serving.cancel()
        try:
            await serving
        except asyncio.CancelledError:
            pass
        await server.stop()

    with _serving(args) as (service, _):
        checkpoint_stop = None
        if args.replicate:
            from .repl import (
                annotate_commits_with_epoch,
                checkpoint_service,
                start_checkpoint_thread,
            )

            annotate_commits_with_epoch(service)
            checkpoint_service(service)  # the image followers bootstrap from
            if args.checkpoint_interval > 0:
                _, checkpoint_stop = start_checkpoint_thread(service, args.checkpoint_interval)
            print("replication enabled: checkpoint recorded", flush=True)
        try:
            asyncio.run(_run(service))
        finally:
            if checkpoint_stop is not None:
                checkpoint_stop.set()
    print("server stopped", flush=True)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.listen:
        return _cmd_serve_net(args)
    if not args.document:
        raise ReproError("serve without --listen needs an XML document to label")
    from .core.batch import BatchOp
    from .xml.model import element_count

    with _serving(args) as (service, doc), (
        open(args.input, "r", encoding="utf-8") if args.input else nullcontext(sys.stdin)
    ) as stream:
        print(f"serving {args.document} ({element_count(doc.root)} elements) "
              f"on {doc.scheme.name}; commands: lookup LID | compare LID LID | "
              "insert LID | stats | epoch | quit")
        session = service.session()
        for line in stream:
            words = line.split()
            if not words:
                continue
            command, rest = words[0].lower(), words[1:]
            try:
                if command in ("quit", "exit"):
                    break
                elif command == "lookup":
                    session.refresh()
                    print(session.lookup(int(rest[0])))
                elif command == "compare":
                    session.refresh()
                    order = session.compare(int(rest[0]), int(rest[1]))
                    print({-1: "before", 0: "equal", 1: "after"}[order])
                elif command == "insert":
                    ticket = service.submit_ops(
                        [BatchOp("insert_element_before", (int(rest[0]),))],
                        timeout=30,
                    )
                    result = ticket.wait(timeout=30)
                    print(f"inserted lids {result.results[0]}")
                elif command == "epoch":
                    print(service.current_epoch_vector)
                elif command == "stats":
                    described = service.describe()
                    shards = described.pop("shards")
                    for key, value in described.items():
                        print(f"  {key}: {value}")
                    for index, shard in enumerate(shards):
                        for key, value in shard.items():
                            print(f"  shard{index} {key}: {value}")
                else:
                    print(f"unknown command: {command}", file=sys.stderr)
            except (IndexError, ValueError, KeyError) as error:
                print(f"bad arguments: {error}", file=sys.stderr)
    return 0


def cmd_replicate(args: argparse.Namespace) -> int:
    """``repro replicate --follow HOST:PORT --root DIR``: run a WAL-shipping
    read replica of a ``serve --listen --replicate`` primary."""
    import signal
    import threading

    from .repl import Follower

    host, port = _parse_listen(args.follow)
    follower = Follower(
        host,
        port,
        args.root,
        poll_interval=args.poll_interval,
        log_capacity=args.log_capacity,
    )
    follower.connect()
    n_shards = len(follower.shards)
    print(
        f"replicating {host}:{port} -> {args.root} ({n_shards} shard(s))",
        flush=True,
    )

    def report() -> None:
        for shard in follower.shards:
            print(
                f"  shard {shard.shard}: segment {shard.segment} "
                f"applied {shard.txns_applied} txn(s), "
                f"sealed {shard.segments_sealed} segment(s), "
                f"lag {shard.lag_bytes:.0f} byte(s) / "
                f"{shard.lag_epochs:.0f} epoch(s)"
            )

    if args.once:
        follower.catch_up()
        report()
        follower.close()
        return 0

    server_holder, server_thread = {}, None
    if args.listen:
        from .net.server import serve_in_thread

        server_holder, server_thread = serve_in_thread(
            follower.service, *_parse_listen(args.listen)
        )
        server = server_holder["server"]
        print(f"serving replica reads on {server.host}:{server.port}", flush=True)

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    try:
        follower.run(stop)
    finally:
        if server_thread is not None:
            server_holder["stop"]()
            server_thread.join(10)
        report()
        follower.close()
    print("replica stopped", flush=True)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    scheme = load_scheme(args.file)
    info = scheme.describe()
    print(f"file: {args.file}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    if hasattr(scheme, "height"):
        print(f"  height: {scheme.height}")
    if hasattr(scheme, "check_invariants"):
        scheme.check_invariants()
        print("  invariants: OK")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    # Reopening re-runs each log's tapes in memory; the checkpoint writes
    # them into the page file before closing.  A root reports once per shard.
    for scheme in open_store(args.file):
        backend = scheme.store.backend
        report = backend.recovery_report
        print(f"file: {backend.path}")
        print(f"  checkpoint LSN:   {report['checkpoint_lsn']}")
        print(f"  replayed tapes:   {report['replayed_transactions']} transaction(s), "
              f"to LSN {report['lsn']}")
        print(f"  discarded tail:   {report['discarded_tail_bytes']} bytes"
              + (f" ({report['discarded_tail_reason']})" if report["discarded_tail_bytes"] else ""))
        for key, value in scheme.describe().items():
            print(f"  {key}: {value}")
        if hasattr(scheme, "check_invariants"):
            scheme.check_invariants()
            print("  invariants: OK")
        checkpoint_scheme(scheme).close()
        print("  recovered: OK (WAL empty, directory current)")
    return 0


def _wal_status(path: str, directory: dict) -> str:
    """What reopening ``path`` would do with its log, given its durable
    ``directory``: how many logged tapes it would re-run past it."""
    wal_path = path + ".wal"
    if not os.path.exists(wal_path) or os.path.getsize(wal_path) == 0:
        return "empty (clean shutdown)"
    scan = scan_wal(wal_path)
    try:
        to_replay = f"{len(logged_tapes(directory['lsn'], scan.transactions, path))} to replay"
    except RecoveryError as error:
        to_replay = f"cannot be replayed ({error})"
    parts = [f"{scan.committed} transaction(s), {to_replay}"]
    if scan.torn_tail:
        parts.append(
            f"torn tail of {scan.tail_bytes} bytes to discard ({scan.tail_reason})"
        )
    return "; ".join(parts)


def _info_page_file(path: str, indent: str = "  ") -> None:
    """Describe one page file — a bare one, or a shard of a root — from
    its at-rest directory and log, without modifying either."""
    try:
        state = read_directory(path)
    except RecoveryError as error:
        print(f"{indent}directory:    UNRECOVERABLE — {error}")
        return
    meta = state["owner"].meta
    print(f"{indent}scheme:       {meta.get('scheme', '(none attached)')}")
    if "config" in meta:
        print(f"{indent}block bytes:  {meta['config']['block_bytes']}")
    table = state["table"]
    print(f"{indent}checkpoint:   LSN {state['lsn']} (what follows is as of it)")
    print(f"{indent}blocks:       {len(table.ids())}")
    print(f"{indent}image bytes:  {sum(table.lengths)} live, "
          f"{os.path.getsize(path)} in the file")
    print(f"{indent}live labels:  {state['owner'].lidf['live']}")
    print(f"{indent}WAL:          {_wal_status(path, state)}")


def cmd_info(args: argparse.Namespace) -> int:
    print(f"file: {args.file}")
    if os.path.isdir(args.file):
        manifest = read_manifest(args.file)
        n_shards = manifest["n_shards"]
        print("  format:       sharded page-file root (SHARDS.json manifest)")
        print(f"  shards:       {n_shards}")
        print(f"  glid codec:   {manifest['codec']} (shard = glid % {n_shards}, "
              f"local = glid // {n_shards})")
        for shard in range(n_shards):
            path = shard_page_path(args.file, shard)
            print(f"  shard {shard}:      {os.path.basename(path)}")
            _info_page_file(path, indent="    ")
        return 0
    with open(args.file, "rb") as handle:
        magic = handle.read(len(MAGIC))
        handle.seek(0)
        # any version: an old one is refused by name
        header = read_snapshot_header(handle, args.file) if magic[:4] == MAGIC[:4] else None
    if header is not None:
        print("  format:       snapshot (save_scheme/save_document)")
        print(f"  scheme:       {header['scheme']}")
        print(f"  block bytes:  {header['config']['block_bytes']}")
        print(f"  blocks:       {header['store']['next_id'] - 1 - len(header['store']['free_ids'])}")
        print(f"  live labels:  {header['lidf']['live']}")
        print("  WAL:          n/a (snapshots are atomic whole-file writes)")
        return 0
    if magic.startswith(b"BOXPAGE"):  # any version: an old one is refused by name
        print("  format:       page file (FileBackend, format version 4)")
        _info_page_file(args.file)
        return 0
    raise PersistError(f"{args.file} is neither a snapshot nor a page file")


def cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import SCHEME_NAMES, run_chaos_sweep, standard_plans

    def names(option: str | None) -> list[str] | None:
        if not option:
            return None
        return [name.strip() for name in option.split(",") if name.strip()]

    plans = standard_plans(names(args.plans))
    schemes = names(args.schemes) or list(SCHEME_NAMES)
    shown = 0

    def progress(trial: Any) -> None:
        nonlocal shown
        shown += 1
        if args.verbose:
            status = "ok" if trial.ok else "FAIL"
            outcome = "crashed" if trial.crashed else "clean"
            print(
                f"  [{shown}] {trial.scheme:12s} {trial.plan:18s} seed={trial.seed:<3d} "
                f"{outcome}, {trial.committed_ops} committed op(s), "
                f"{trial.checked_lids} LID(s) checked: {status}"
            )

    report = run_chaos_sweep(
        args.seeds,
        schemes=schemes,
        plans=plans,
        max_ops=args.max_ops,
        base_labels=args.base,
        progress=progress,
    )
    print(
        f"chaos: {report.total} trial(s) "
        f"({args.seeds} seed(s) x {len(plans)} plan(s) x {len(schemes)} scheme(s))"
    )
    print(f"  crashes injected:  {report.crashes}")
    print(f"  WAL replays:       {report.replays}")
    print(f"  LIDs checked:      {report.lids_checked}")
    print(f"  oracle mismatches: {sum(t.mismatches for t in report.trials)}")
    if report.failures:
        for trial in report.failures:
            detail = trial.error or f"{trial.mismatches} LID mismatch(es)"
            print(
                f"error: {trial.scheme}/{trial.plan}/seed={trial.seed}: {detail}",
                file=sys.stderr,
            )
        return 1
    print("  verdict:           OK (every recovered LID matches its twin oracle)")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .core.batch import BatchOp
    from .core.document import LabeledDocument
    from .obs.metrics import get_registry
    from .xml.xmark import xmark_document

    with _store(args) as schemes:
        doc = LabeledDocument(schemes[0], xmark_document(args.items, seed=args.seed))
        with ShardedLabelService(schemes, group_size=16) as service:
            elements = list(doc.elements())
            lid = doc.start_lid(elements[len(elements) // 2])
            session = service.session()
            session.lookup(lid)
            ticket = service.submit_ops(
                [BatchOp("insert_element_before", (lid,))], timeout=30
            )
            ticket.wait(timeout=30)
            session.refresh()
            session.lookup(lid)
    registry = get_registry()
    if args.format == "json":
        print(registry.to_json())
    else:
        print(registry.render_prometheus(), end="")
    return 0


@contextmanager
def _recording() -> Iterator[Any]:
    """Install a sample-everything tracer for the block; yields it."""
    from .obs import trace as trace_mod
    from .obs.trace import Tracer

    tracer = Tracer(enabled=True, sample_every=1)
    previous = trace_mod.set_tracer(tracer)
    try:
        yield tracer
    finally:
        trace_mod.set_tracer(previous)


def _trace_local(service: Any, ops: list[Any]) -> Any:
    """Trace ``ops`` (one per shard) in writer context on the calling
    thread, so the whole operation — service, batch engine, scheme, store,
    backend, WAL — lands in one span tree.  Returns the tracer."""
    from .obs import trace as trace_mod

    with _recording() as tracer:
        with trace_mod.span("service.apply_sharded", shards=service.n_shards):
            service.apply_ops_sync(ops)
    return tracer


def _trace_net(service: Any, ops: list[Any]) -> Any:
    """Trace ``ops`` as one request across the socket boundary: an
    in-process :class:`~repro.net.server.NetServer` over the service, one
    traced request through the :class:`~repro.net.client.NetClient` —
    client arrival through writer group commit.  Returns the tracer."""
    from .net.client import NetClient
    from .net.server import serve_in_thread

    service.start()
    holder, thread = serve_in_thread(service)
    try:
        # The handshake runs untraced; the one request after it is a span
        # tree of its own.
        with NetClient("127.0.0.1", holder["server"].port) as client, _recording() as tracer:
            if ops[0].kind == "lookup":
                client.lookup([op.args[0] for op in ops])
            else:
                client.submit(ops)
    finally:
        holder["stop"]()
        thread.join(10)
    return tracer


def cmd_trace(args: argparse.Namespace) -> int:
    import tempfile

    from .core.batch import BatchOp

    n = args.shards
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        if not args.storage_path:
            # A throwaway store: the point of defaulting to file storage is
            # that the trace then includes the backend-commit and WAL layers.
            args.storage_path = os.path.join(tmp, "trace")
        with _store(args, n) as schemes:
            glids = bulk_load_sharded(schemes, max(args.items * 30, 16 * n))
            with closing(ShardedLabelService(schemes)) as service:
                # One op per shard, anchored mid-chunk, so every shard's
                # writer contributes a span to the same tree.
                shard_of = service.router.shard_of
                chunks = [[g for g in glids if shard_of(g) == shard] for shard in range(n)]
                ops = [
                    BatchOp("lookup" if args.op == "lookup" else "insert_element_before", (a,))
                    for a in (chunk[len(chunk) // 2] for chunk in chunks)
                ]
                if args.op == "delete":
                    # Delete freshly inserted childless elements; the inserts
                    # themselves run before tracing starts.
                    pairs = service.apply_ops_sync(ops).results
                    ops = [BatchOp("delete_element", pair) for pair in pairs]
                before = [scheme.stats.snapshot() for scheme in schemes]
                tracer = (_trace_net if args.net else _trace_local)(service, ops)
                deltas = [scheme.stats.snapshot() - snap for scheme, snap in zip(schemes, before)]
    roots = tracer.finished
    if len(roots) != 1:
        print(f"error: expected one span tree, got {len(roots)}", file=sys.stderr)
        return 1
    root = roots[0]
    if args.net:
        # Reads are served on executor threads, writes on the writer
        # threads: only the whole request tree is comparable.
        checks = [("net request", root, sum(deltas[1:], deltas[0]))]
        consistent = True
    else:
        # apply_ops_sync visits shards in index order, one apply span each.
        applies = [span for span in root.walk() if span.name == "service.apply"]
        checks = [(f"shard{i}", *pair) for i, pair in enumerate(zip(applies, deltas))]
        consistent = len(applies) == n
    if args.json:
        print(json.dumps(root.to_dict(), indent=2))
    else:
        print(root.render())
    for label, span, delta in checks:
        span_reads = span.total("io.reads")
        span_writes = span.total("io.writes")
        ok = span_reads == delta.reads and span_writes == delta.writes
        consistent = consistent and ok
        print(
            f"{label} span I/O: {span_reads:g} reads, {span_writes:g} writes | "
            f"IOStats delta: {delta.reads} reads, {delta.writes} writes | "
            f"{'consistent' if ok else 'MISMATCH'}",
            # With --json, stdout must stay parseable JSON.
            file=sys.stderr if args.json else sys.stdout,
        )
    return 0 if consistent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BOXes: order-based labeling for dynamic XML data (ICDE 2005)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    label = subparsers.add_parser("label", help="label an XML document")
    label.add_argument("document", help="XML file to label")
    label.add_argument("--save", help="persist the labeled structure to this file")
    _add_common(label)
    label.set_defaults(handler=cmd_label)

    query = subparsers.add_parser("query", help="evaluate an XPath-subset expression")
    query.add_argument(
        "document", help="XML file to label and query, or a saved .box file"
    )
    query.add_argument("expression", help='e.g. "//item[mailbox/mail]/name"')
    query.add_argument("--limit", type=int, default=10, help="matches to print (0 = all)")
    _add_common(query)
    query.set_defaults(handler=cmd_query)

    workload = subparsers.add_parser("workload", help="run a paper workload")
    workload.add_argument("sequence", choices=list(SEQUENCES))
    workload.add_argument("--base", type=int, default=2000, help="base document elements")
    workload.add_argument("--inserts", type=int, default=500, help="elements to insert")
    workload.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="N",
        help="commit group size: ops per group commit (default 1 = one by one)",
    )
    _add_common(workload)
    workload.set_defaults(handler=cmd_workload)

    stress = subparsers.add_parser(
        "stress", help="hammer the concurrent label service and print counters"
    )
    stress.add_argument(
        "--base", type=int, default=2000, help="base elements (two labels each), all shards"
    )
    stress.add_argument("--readers", type=int, default=4, help="reader threads")
    stress.add_argument("--seconds", type=float, default=5.0, help="stress duration")
    stress.add_argument("--write-batch", type=int, default=8, help="elements per write batch")
    stress.add_argument("--group-size", type=int, default=16, help="commit group size")
    stress.add_argument(
        "--log-capacity", type=int, default=65536, help="modification log capacity"
    )
    stress.add_argument(
        "--think-ms", type=float, default=0.5, help="reader think time per op (ms)"
    )
    stress.add_argument(
        "--write-pause-ms", type=float, default=4.0, help="writer pause between batches (ms)"
    )
    stress.add_argument(
        "--write-mode",
        choices=["insert", "churn"],
        default="churn",
        help="writer stream: growing inserts, or steady-state churn (default)",
    )
    stress.add_argument(
        "--hot", type=int, default=64, help="hot working set (elements read) per shard; 0 = all"
    )
    stress.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="shards, each with its own writer and write client (default 1)",
    )
    _add_common(stress)
    stress.set_defaults(handler=cmd_stress)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "serve labels: stdin commands over a document, or the binary "
            "network protocol with --listen HOST:PORT"
        ),
    )
    serve.add_argument(
        "document",
        nargs="?",
        help=(
            "XML file to label and serve (optional with --listen: omitting "
            "it serves a synthetic --base/--shards store instead)"
        ),
    )
    serve.add_argument(
        "--log-capacity", type=int, default=4096, help="modification log capacity"
    )
    serve.add_argument(
        "--input", metavar="FILE", help="read commands from FILE instead of stdin"
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help=(
            "run the asyncio network front end instead of the stdin loop "
            "(port 0 picks a free port, printed on stdout)"
        ),
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="shards for the synthetic --listen store (default 1)",
    )
    serve.add_argument(
        "--base",
        type=int,
        default=512,
        metavar="N",
        help="bulk-loaded labels for the synthetic --listen store (default 512)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission cap before requests are shed with OVERLOADED frames",
    )
    serve.add_argument(
        "--submit-timeout",
        type=float,
        default=2.0,
        help="seconds a write may wait on the bounded queue before shedding",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync group commits on file-backed --listen stores",
    )
    serve.add_argument(
        "--replicate",
        action="store_true",
        help=(
            "record a checkpoint image so 'repro replicate' followers can "
            "attach (file storage only)"
        ),
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=float,
        default=0.0,
        metavar="SECS",
        help=(
            "with --replicate: take a full checkpoint (image + sealed "
            "segment) every SECS seconds in the background (0 = only the "
            "startup checkpoint; default 0)"
        ),
    )
    _add_common(serve)
    serve.set_defaults(handler=cmd_serve)

    replicate = subparsers.add_parser(
        "replicate",
        help=(
            "run a WAL-shipping read replica of a 'serve --listen "
            "--replicate' primary"
        ),
    )
    replicate.add_argument(
        "--follow",
        required=True,
        metavar="HOST:PORT",
        help="the primary's network front end",
    )
    replicate.add_argument(
        "--root",
        required=True,
        metavar="DIR",
        help="local directory for the mirrored page files + WAL segments",
    )
    replicate.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="also serve pinned-epoch reads from the replica on this address",
    )
    replicate.add_argument(
        "--once",
        action="store_true",
        help="catch up with the primary, print the cursor, and exit",
    )
    replicate.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECS",
        help="idle delay between pull rounds when caught up (default 0.05)",
    )
    replicate.add_argument(
        "--log-capacity", type=int, default=4096, help="modification log capacity"
    )
    replicate.set_defaults(handler=cmd_replicate)

    inspect = subparsers.add_parser("inspect", help="inspect a saved structure")
    inspect.add_argument("file", help="file written by 'label --save'")
    inspect.set_defaults(handler=cmd_inspect)

    recover = subparsers.add_parser(
        "recover", help="recover and verify a store written with --storage file"
    )
    recover.add_argument("file", help="store root, or a bare page file (its WAL is FILE.wal)")
    recover.set_defaults(handler=cmd_recover)

    info = subparsers.add_parser(
        "info", help="describe a saved file or store root without modifying it"
    )
    info.add_argument("file", help="snapshot from 'label --save', store root or page file")
    info.set_defaults(handler=cmd_info)

    chaos = subparsers.add_parser(
        "chaos",
        help="seeded fault-injection sweep: crash, recover, verify vs twin oracle",
    )
    chaos.add_argument(
        "--seeds", type=int, default=5, help="run seeds 0..N-1 (default 5)"
    )
    chaos.add_argument(
        "--schemes",
        metavar="LIST",
        help="comma-separated scheme names (default: all six variants)",
    )
    chaos.add_argument(
        "--plans",
        metavar="LIST",
        help="comma-separated plan names (default: the full standard set)",
    )
    chaos.add_argument(
        "--max-ops", type=int, default=300, help="tape length per trial (default 300)"
    )
    chaos.add_argument(
        "--base", type=int, default=24, help="bulk-loaded base labels (default 24)"
    )
    chaos.add_argument(
        "--verbose", action="store_true", help="print every trial as it finishes"
    )
    chaos.set_defaults(handler=cmd_chaos)

    metrics = subparsers.add_parser(
        "metrics", help="run a sample workload and print the metrics registry"
    )
    metrics.add_argument(
        "--items", type=int, default=25, help="XMark items in the sample document"
    )
    metrics.add_argument("--seed", type=int, default=1, help="document generator seed")
    metrics.add_argument(
        "--format",
        choices=["prom", "json"],
        default="prom",
        help="exposition format (default: Prometheus text)",
    )
    _add_common(metrics)
    metrics.set_defaults(handler=cmd_metrics)

    trace_cmd = subparsers.add_parser(
        "trace", help="trace one operation and print its span tree"
    )
    trace_cmd.add_argument(
        "--op",
        choices=["insert", "delete", "lookup"],
        default="insert",
        help="operation to trace (default: insert)",
    )
    trace_cmd.add_argument(
        "--items", type=int, default=25, help="XMark items in the sample document"
    )
    trace_cmd.add_argument("--seed", type=int, default=1, help="document generator seed")
    trace_cmd.add_argument(
        "--json", action="store_true", help="emit the span tree as JSON"
    )
    trace_cmd.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "trace one op per shard through the ShardedLabelService and "
            "verify each shard's span I/O against its own IOStats delta"
        ),
    )
    trace_cmd.add_argument(
        "--net",
        action="store_true",
        help=(
            "trace across the socket: in-process net server + client, one "
            "traced request, span tree verified against IOStats per request"
        ),
    )
    _add_common(trace_cmd)
    # Default to a (temporary) file backend so the trace reaches the WAL.
    trace_cmd.set_defaults(storage="file", handler=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The reader closed stdout early (``repro query ... | head``), which
        # is not a failure.  Point stdout at devnull so the interpreter's
        # final flush of what is still buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
