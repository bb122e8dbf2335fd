"""Group-commit batch execution engine.

The paper's bulk algorithms (Section 5) win by amortizing structural work
over many labels at once; this module brings the same lever to *mixed*
update/query streams.  A :class:`BatchExecutor` takes a sequence of
:class:`BatchOp` items (lookups, inserts, deletes, element and subtree
operations), partitions it into groups, and runs each group inside one
shared :meth:`~repro.storage.blockstore.BlockStore.operation` scope.  The
store's per-operation buffering then coalesces a group's I/O: within a
group, every block is read at most once and every dirtied block is counted
as one write when the group ends, so ops that touch the same blocks — the
common case for label-local edit bursts — share their I/O.

Durability is paid once per run, not once per group: the whole run sits in
one :meth:`~repro.storage.blockstore.BlockStore.durable` scope, so on a
file backend an ``execute`` is at most one WAL transaction and one sync.
What that transaction logs is the run itself — its ops and how it ended,
one *tape row* (:func:`encode_batch`, the op row a ``Submit`` frame
carries) — not the blocks it dirtied: recovery re-runs the row.  Inside
an enclosing durable scope (the label service's writer wake-up) the run
joins that scope's one commit and tape instead.

Correctness: submission order is preserved unconditionally.  Grouping only
chooses where to cut measured scopes in the sequence, never reorders ops,
so the final structure state is identical to one-by-one execution (the
equivalence-oracle tests pin this for every scheme).  Later ops may
reference results of earlier ones through :class:`BatchRef` — necessary
for chained edits whose anchors are LIDs created earlier in the batch.

Grouping policy: a group closes when it reaches ``group_size`` ops, or
when the next op's anchor LID falls in a different LIDF block than the
previous anchor.  Locality cuts keep each group on a tight block
set (coalescing works best when the group shares blocks); an op whose
anchor is a :class:`BatchRef` extends the current group, since its anchor
was created there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import LabelingError, ProtocolError
from ..obs import trace
from ..storage.stats import OperationCost
from .interface import LABEL_CHANNEL, ORDINAL_CHANNEL

if TYPE_CHECKING:  # pragma: no cover
    from .interface import LabelingScheme

#: Operation kinds a batch may contain, in their op-row code order (index
#: == code; append only); each one's anchor LID — the key of locality
#: grouping — is its first argument.
WIRE_KINDS = (
    "lookup",
    "ordinal_lookup",
    "lookup_pair",
    "compare",
    "insert_before",
    "insert_element_before",
    "delete",
    "delete_element",
    "insert_subtree_before",
    "delete_range",
)
SUPPORTED_KINDS = frozenset(WIRE_KINDS)
_KIND_CODE = {kind: code for code, kind in enumerate(WIRE_KINDS)}

#: Read kinds and the channel each reads: a run of one of them with
#: plain-int anchors is one :meth:`~LabelingScheme.lookup_many` call.
_READ_CHANNELS = {"lookup": LABEL_CHANNEL, "ordinal_lookup": ORDINAL_CHANNEL}


@dataclass(frozen=True)
class BatchRef:
    """Placeholder argument resolving to an earlier op's result.

    ``index`` is the position of the referenced op in the batch; ``item``,
    when given, selects one component of a tuple result (e.g. ``item=1``
    for the end LID of an ``insert_element_before``).
    """

    index: int
    item: int | None = None


@dataclass(frozen=True)
class BatchOp:
    """One operation in a batch: a scheme method name plus its arguments.

    Arguments may be concrete values or :class:`BatchRef` placeholders.
    """

    kind: str
    args: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in SUPPORTED_KINDS:
            raise LabelingError(
                f"unsupported batch op kind {self.kind!r}; "
                f"expected one of {sorted(SUPPORTED_KINDS)}"
            )


@dataclass(frozen=True)
class AmortizedCost:
    """Per-op shares of a batch's I/O cost."""

    reads: float
    writes: float

    @property
    def total(self) -> float:
        return self.reads + self.writes


@dataclass
class BatchResult:
    """Everything a batch run produced.

    ``results[i]`` is op ``i``'s return value; ``group_costs`` /
    ``group_sizes`` describe each measured group in order.
    """

    results: list = field(default_factory=list)
    group_costs: list[OperationCost] = field(default_factory=list)
    group_sizes: list[int] = field(default_factory=list)
    #: Durable transactions on the store's backend: on a file backend one
    #: WAL commit for the whole run however many groups it has (none for a
    #: read-only run); 0 on the memory backend, whose commit counts
    #: nothing.  A run inside the label service's writer wake-up reports
    #: the one commit every batch of that wake-up shares.
    backend_commits: int = 0

    @property
    def op_count(self) -> int:
        return len(self.results)

    @property
    def group_count(self) -> int:
        return len(self.group_costs)

    @property
    def total_cost(self) -> OperationCost:
        total = OperationCost(0, 0)
        for cost in self.group_costs:
            total = total + cost
        return total

    @property
    def amortized_cost(self) -> AmortizedCost:
        """The batch's I/O cost spread evenly over its ops."""
        count = self.op_count
        if count == 0:
            return AmortizedCost(0.0, 0.0)
        total = self.total_cost
        return AmortizedCost(total.reads / count, total.writes / count)


class BatchExecutor:
    """Executes op batches against one scheme with group commit.

    Parameters
    ----------
    scheme:
        The labeling scheme the ops run against.
    group_size:
        Maximum ops per measured group (>= 1).  ``1`` degenerates to
        one-by-one execution.  A group also closes when the anchor LID
        moves to a different LIDF block (see module docstring).

    Each maximal run of same-kind read ops (``lookup`` / ``ordinal_lookup``
    with plain-int anchors) is one :meth:`~LabelingScheme.lookup_many`
    call, so label reconstruction is amortized over the run (B-BOX shares
    ancestor walks across it).  Results and I/O counts are identical to
    one-by-one execution: the run stays inside the group's measured scope,
    where each block is counted once.  A recorded trace shows the run as
    one ``scheme.lookup_many`` span and every other op as one
    ``scheme.<kind>`` span; tracing never changes what runs.
    """

    def __init__(
        self,
        scheme: "LabelingScheme",
        group_size: int = 64,
    ) -> None:
        if group_size < 1:
            raise LabelingError(f"group_size must be >= 1, got {group_size}")
        self.scheme = scheme
        self.group_size = group_size
        self._lids_per_block = max(1, scheme.config.lidf_records_per_block)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def _locality_key(self, op: BatchOp) -> int | None:
        """LIDF block of the op's anchor LID; None when the anchor is a
        :class:`BatchRef` (or not a plain int), meaning "stay local"."""
        if not op.args:
            return None
        anchor = op.args[0]
        if isinstance(anchor, bool) or not isinstance(anchor, int):
            return None
        return anchor // self._lids_per_block

    def plan(self, ops: Sequence[BatchOp]) -> list[list[int]]:
        """Partition op positions into consecutive measured groups."""
        groups: list[list[int]] = []
        current: list[int] = []
        current_key: int | None = None
        for position, op in enumerate(ops):
            key = self._locality_key(op)
            cut = len(current) >= self.group_size or (
                key is not None and current_key is not None and key != current_key
            )
            if cut:
                groups.append(current)
                current = []
                current_key = None
            current.append(position)
            if key is not None:
                current_key = key
        if current:
            groups.append(current)
        return groups

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, ops: Sequence[BatchOp]) -> BatchResult:
        """Run ``ops`` in order, one measured scope per group, inside one
        durable scope: the run is at most one backend commit."""
        result = BatchResult(results=[None] * len(ops))
        store = self.scheme.store
        backend = store.backend
        commits_before = backend.commits
        logged = tuple(ops)  # the tape row is encoded at commit, after the run
        with trace.span("batch.execute") as batch_span, store.durable(), store.taped(
            lambda outcome: encode_batch(logged, outcome)
        ):
            if batch_span.recording:
                batch_span.set("scheme", self.scheme.name)
                batch_span.add("batch.ops", len(ops))
            for group in self.plan(ops):
                with trace.span("batch.group") as group_span:
                    recording = group_span.recording
                    if recording:
                        group_span.add("group.ops", len(group))
                    with store.measured() as measured:
                        index = 0
                        while index < len(group):
                            position = group[index]
                            op = ops[position]
                            channel = _READ_CHANNELS.get(op.kind)
                            if channel is not None:
                                positions, lids = self._collect_run(
                                    ops, group, index, result.results
                                )
                                if positions:
                                    values = self._call(
                                        recording, "lookup_many", lids, channel
                                    )
                                    for pos, value in zip(positions, values):
                                        result.results[pos] = value
                                    index += len(positions)
                                    continue
                            args = self._resolve(op, position, result.results)
                            result.results[position] = self._call(
                                recording, op.kind, *args
                            )
                            index += 1
                result.group_costs.append(measured.cost)
                result.group_sizes.append(len(group))
        result.backend_commits = backend.commits - commits_before
        return result

    def _call(self, recording: bool, name: str, *args: Any) -> Any:
        """``scheme.<name>(*args)``; under a recorded group, inside one
        ``scheme.<name>`` span.  Per-op spans exist only there: the per-op
        call site must cost nothing when unsampled."""
        method = getattr(self.scheme, name)
        if not recording:
            return method(*args)
        # Lock-free counter reads are safe here: the group runs
        # single-writer under its scope.
        stats = self.scheme.store.stats
        with trace.span("scheme." + name) as span:
            before_reads = stats.reads
            value = method(*args)
            # Informational (op.* not io.*): reads this call added to the
            # group's scope.
            span.add("op.reads", stats.reads - before_reads)
        return value

    def _collect_run(
        self, ops: Sequence[BatchOp], group: list[int], start: int, results: list
    ) -> tuple[list[int], list[int]]:
        """Maximal read run at ``group[start:]``: consecutive ops of the
        same read kind whose single argument resolves to a plain int LID.

        Any irregularity — different kind, extra arguments, an anchor that
        is not an int, or a :class:`BatchRef` whose target has not produced
        a value yet (e.g. it points into this very run) — ends the run
        *before* the offending op, which then executes through the scalar
        path with its exact one-by-one semantics (including errors).
        """
        kind = ops[group[start]].kind
        positions: list[int] = []
        anchors: list[int] = []
        for offset in range(start, len(group)):
            position = group[offset]
            op = ops[position]
            if op.kind != kind or len(op.args) != 1:
                break
            anchor = op.args[0]
            if isinstance(anchor, BatchRef):
                ref = anchor
                if not 0 <= ref.index < position or results[ref.index] is None:
                    break
                anchor = results[ref.index]
                if ref.item is not None:
                    try:
                        anchor = anchor[ref.item]
                    except (TypeError, IndexError, KeyError):
                        break
            if isinstance(anchor, bool) or not isinstance(anchor, int):
                break
            positions.append(position)
            anchors.append(anchor)
        return positions, anchors

    def _resolve(self, op: BatchOp, position: int, results: list) -> tuple:
        resolved = []
        for arg in op.args:
            if isinstance(arg, BatchRef):
                if not 0 <= arg.index < position:
                    raise LabelingError(
                        f"op {position} references op {arg.index}, which has "
                        "not executed yet (refs must point backwards)"
                    )
                value: Any = results[arg.index]
                if arg.item is not None:
                    value = value[arg.item]
                resolved.append(value)
            else:
                resolved.append(arg)
        return tuple(resolved)


# ----------------------------------------------------------------------
# the op row: one BatchOp as bytes (a Submit frame's tape, a log's OPS)
# ----------------------------------------------------------------------

#: A structural uvarint (length, count, id, LID) longer than this many
#: bytes is malformed — 10 bytes already cover 70 bits.
MAX_VARINT_BYTES = 10

_A_INT = 0
_A_REF = 1
_A_INTS = 2


def put_uvarint(out: bytearray, value: int, max_bytes: int = MAX_VARINT_BYTES) -> None:
    if 0 <= value < 0x80:
        out.append(value)
        return
    if value >> (7 * max_bytes):  # negative, or wider than the decoder reads
        raise ProtocolError(
            f"cannot encode {value} as a uvarint of at most {max_bytes} bytes"
        )
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


# Field readers: ``get(buf, pos, end) -> (value, next_pos)`` over
# ``buf[pos:end]``, raising ProtocolError where it falls short.


def get_uvarint(
    buf: Any, pos: int, end: int, max_bytes: int = MAX_VARINT_BYTES
) -> tuple[int, int]:
    value = shift = 0
    stop = pos + max_bytes
    while pos < end:
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            return value | byte << shift, pos
        if pos == stop:
            raise ProtocolError(f"varint longer than {max_bytes} bytes")
        value |= (byte & 0x7F) << shift
        shift += 7
    raise ProtocolError("truncated varint")


def get_count(buf: Any, pos: int, end: int) -> tuple[int, int]:
    """An element count; each element costs >= 1 byte, so any count
    exceeding the remaining bytes is an encoding bomb, not data."""
    n, pos = get_uvarint(buf, pos, end)
    if n > end - pos:
        raise ProtocolError(
            f"element count {n} exceeds {end - pos} remaining payload bytes"
        )
    return n, pos


def get_byte(buf: Any, pos: int, end: int) -> tuple[int, int]:
    if pos >= end:
        raise ProtocolError("truncated payload")
    return buf[pos], pos + 1


def encode_op(out: bytearray, op: BatchOp) -> None:
    """Append one op: kind code, argument count, each argument tagged as
    a plain int, a :class:`BatchRef` or a sequence of ints (a subtree's
    tag pairing: its count, then each int)."""
    code = _KIND_CODE.get(op.kind)
    if code is None:
        raise ProtocolError(f"batch op kind {op.kind!r} has no wire code")
    put_uvarint(out, code)
    put_uvarint(out, len(op.args))
    for arg in op.args:
        if isinstance(arg, BatchRef):
            out.append(_A_REF)
            put_uvarint(out, arg.index)
            put_uvarint(out, 0 if arg.item is None else arg.item + 1)
        elif isinstance(arg, int):
            out.append(_A_INT)
            put_uvarint(out, arg)
        elif isinstance(arg, (list, tuple)) and all(isinstance(item, int) for item in arg):
            out.append(_A_INTS)
            put_uvarint(out, len(arg))
            for item in arg:
                put_uvarint(out, item)
        else:
            raise ProtocolError(
                f"batch op argument of type {type(arg).__name__} is not encodable"
            )


def decode_op(buf: Any, pos: int, end: int) -> tuple[BatchOp, int]:
    code, pos = get_uvarint(buf, pos, end)
    if code >= len(WIRE_KINDS):
        raise ProtocolError(f"unknown batch op code {code}")
    n, pos = get_count(buf, pos, end)
    args: list[Any] = []
    for _ in range(n):
        tag, pos = get_byte(buf, pos, end)
        if tag == _A_INT:
            arg, pos = get_uvarint(buf, pos, end)
            args.append(arg)
        elif tag == _A_REF:
            index, pos = get_uvarint(buf, pos, end)
            item, pos = get_uvarint(buf, pos, end)
            args.append(BatchRef(index, None if item == 0 else item - 1))
        elif tag == _A_INTS:
            count, pos = get_count(buf, pos, end)
            items = []
            for _ in range(count):
                item, pos = get_uvarint(buf, pos, end)
                items.append(item)
            args.append(tuple(items))
        else:
            raise ProtocolError(f"unknown batch op argument tag {tag}")
    return BatchOp(WIRE_KINDS[code], tuple(args)), pos


def encode_batch(ops: Sequence[BatchOp], outcome: str) -> bytes:
    """One batch as a tape row: how it ended (``""``: ok, else the class
    name of the exception it raised), its op count, its ops; a
    :class:`~repro.errors.ProtocolError` for an op the row cannot carry."""
    out = bytearray()
    name = outcome.encode("ascii")
    put_uvarint(out, len(name))
    out += name
    put_uvarint(out, len(ops))
    for op in ops:
        encode_op(out, op)
    return bytes(out)


def decode_tape(body: bytes) -> list[tuple[tuple[BatchOp, ...], str]]:
    """Rows of :func:`encode_batch`, back to back, as ``(ops, outcome)``
    pairs; raises :class:`~repro.errors.ProtocolError` on malformed bytes."""
    batches = []
    pos, end = 0, len(body)
    while pos < end:
        n, pos = get_count(body, pos, end)
        outcome = bytes(body[pos:pos + n]).decode("ascii", "replace")
        count, pos = get_count(body, pos + n, end)
        ops = []
        for _ in range(count):
            op, pos = decode_op(body, pos, end)
            ops.append(op)
        batches.append((tuple(ops), outcome))
    return batches


__all__ = [
    "SUPPORTED_KINDS",
    "AmortizedCost",
    "BatchOp",
    "BatchRef",
    "BatchResult",
    "BatchExecutor",
    "WIRE_KINDS",
    "decode_op",
    "decode_tape",
    "encode_batch",
    "encode_op",
]
