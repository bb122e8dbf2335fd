"""Metrics registry: counters, gauges, and fixed-bucket histograms.

One process-wide :class:`MetricsRegistry` (reachable through
:func:`get_registry`) is the single export point for every number the
stack produces.  Two publication styles coexist:

* **Owned instruments** — :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` — created through ``registry.counter(...)`` etc.
  Increments are one lock acquisition; this is the always-on cheap path
  used by cold-ish code (WAL commits, recovery, service lifecycle).
* **Counter sets** — the hot-path counters
  (:class:`~repro.storage.stats.IOStats`,
  :class:`~repro.service.stats.ServiceStats`) subclass
  :class:`CounterSet` and declare only their fields and derived gauges.
  ``add()`` is one lock and plain-int increments with no registry
  traffic; the one collector, :func:`collect_counter_sets`, pulls every
  live instance's values, grouped by shard, only when scraped.  This
  keeps the golden-I/O and contention suites — and the <3 % overhead
  budget — intact while still making every counter visible in one place.

Exposition is Prometheus-style text (:meth:`render_prometheus`) or a
JSON dump (:meth:`to_json`).  Zero dependencies; everything is stdlib.
"""

from __future__ import annotations

import json
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field, fields, make_dataclass
from operator import attrgetter
from typing import Any, Callable, ClassVar, Iterable

#: Default latency buckets (seconds): 0.1 ms .. 10 s, roughly 1-2-5.
DEFAULT_BUCKETS = (
    0.0001, 0.0002, 0.0005,
    0.001, 0.002, 0.005,
    0.01, 0.02, 0.05,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0,
)


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


@dataclass(frozen=True)
class Sample:
    """One exported time-series point: name, labels, value."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float
    kind: str = "counter"  # counter | gauge | histogram-part

    def render(self) -> str:
        return f"{self.name}{_format_labels(self.labels)} {self.value:g}"


class Counter:
    """Monotone counter.  ``inc`` is one lock acquisition."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = _label_key(labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[Sample]:
        return [Sample(self.name, self.labels, self._value, "counter")]


class Gauge:
    """Point-in-time value; settable, or driven by a callback."""

    __slots__ = ("name", "labels", "_value", "_fn", "_lock")

    def __init__(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        fn: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.labels = _label_key(labels)
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def samples(self) -> list[Sample]:
        return [Sample(self.name, self.labels, self.value, "gauge")]


class Histogram:
    """Fixed-bucket histogram (cumulative buckets, Prometheus-style).

    ``observe`` is one lock acquisition plus a binary search over the
    bucket bounds — cheap enough for per-operation latencies, not meant
    for per-block-I/O call sites (those stay plain counters).
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = _label_key(labels)
        self.bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self.bounds) + 1)  # +1: +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def samples(self) -> list[Sample]:
        with self._lock:
            counts = list(self._counts)
            total, running = self._sum, 0
        out: list[Sample] = []
        for bound, bucket_count in zip(self.bounds, counts):
            running += bucket_count
            out.append(
                Sample(
                    self.name + "_bucket",
                    self.labels + (("le", f"{bound:g}"),),
                    running,
                    "histogram-part",
                )
            )
        running += counts[-1]
        out.append(
            Sample(self.name + "_bucket", self.labels + (("le", "+Inf"),), running,
                   "histogram-part")
        )
        out.append(Sample(self.name + "_sum", self.labels, total, "histogram-part"))
        out.append(Sample(self.name + "_count", self.labels, running, "histogram-part"))
        return out


class CounterSet:
    """One layer's named integer counters, bumped atomically under one lock.

    A subclass declares its field names, the derived values on its
    :attr:`Counts` and the gauges ``gauges(counts, instances)`` exports;
    this base owns zeroing, :meth:`add`, :meth:`reset`, consistent copies,
    the ``shard`` tag and publication through :func:`collect_counter_sets`.
    Increments go through :meth:`add`: a Python ``+=`` on an attribute is a
    read-modify-write that can lose updates between threads.  Reading one
    attribute (``stats.reads``) stays lock-free, since a stale read of a
    monotone counter is harmless; every copy takes the lock, so the values
    in it are mutually consistent.
    """

    __slots__ = ("shard", "_lock", "__weakref__")

    #: Sample-name prefix: counter ``x`` is exported as ``{PREFIX}_x_total``.
    PREFIX: ClassVar[str]
    #: The counters :meth:`add` bumps; a group of instances sums them.
    COUNTERS: ClassVar[tuple[str, ...]]
    #: Running maxima the subclass raises under ``_lock``; a group keeps the largest.
    MAXIMA: ClassVar[tuple[str, ...]] = ()
    #: Counters kept for a derived gauge but exported under no own name.
    UNEXPORTED: ClassVar[tuple[str, ...]] = ()
    #: What :meth:`snapshot` builds from the fields it names (default :attr:`Counts`).
    SNAPSHOT: ClassVar[type]

    class Counts:
        """Derived values over one consistent copy of every field; the base
        makes a subclass's ``Counts`` a frozen dataclass of those fields."""

    def __init_subclass__(cls) -> None:
        names = cls.COUNTERS + cls.MAXIMA
        counts = make_dataclass(
            f"{cls.__name__}Counts", [(name, int) for name in names],
            bases=(cls.Counts,), frozen=True,
        )
        counts.__module__, counts.__qualname__ = cls.__module__, f"{cls.__qualname__}.Counts"
        cls.Counts = counts
        cls.SNAPSHOT = cls.__dict__.get("SNAPSHOT", counts)
        cls._zeros = dict.fromkeys(names, 0)
        cls._addable = frozenset(cls.COUNTERS)
        cls._take_all = attrgetter(*names)
        cls._take = attrgetter(*(f.name for f in fields(cls.SNAPSHOT)))

    def __init__(self, shard: str | None = None) -> None:
        self.shard = shard
        self._lock = threading.Lock()
        self.__dict__.update(self._zeros)
        _LIVE_COUNTER_SETS.add(self)

    def add(self, **deltas: int) -> None:
        """Atomically bump any subset of ``COUNTERS``; an undeclared name
        raises :class:`TypeError` before anything is counted."""
        if not self._addable.issuperset(deltas):
            raise TypeError(f"undeclared counters: {sorted(set(deltas) - self._addable)}")
        values = self.__dict__
        with self._lock:
            for name, delta in deltas.items():
                values[name] += delta

    def reset(self) -> None:
        """Zero every counter and maximum (e.g. between benchmark phases)."""
        with self._lock:
            self.__dict__.update(self._zeros)

    def counts(self) -> Any:
        """Every field as an immutable :attr:`Counts`, from one state."""
        with self._lock:
            return self.Counts(*self._take_all(self))

    def snapshot(self) -> Any:
        """The fields ``SNAPSHOT`` names, as one, from one state."""
        with self._lock:
            return self.SNAPSHOT(*self._take(self))

    @classmethod
    def combine(cls, parts: list[Any]) -> Any:
        """Several instances' :attr:`Counts` as one: counters summed,
        maxima the largest."""
        return cls.Counts(
            *(sum(getattr(part, name) for part in parts) for name in cls.COUNTERS),
            *(max((getattr(part, name) for part in parts), default=0) for name in cls.MAXIMA),
        )


#: Every live instance; scraped by :func:`collect_counter_sets`, so the
#: hot-path ``add`` never touches the registry.
_LIVE_COUNTER_SETS: "weakref.WeakSet[CounterSet]" = weakref.WeakSet()


def collect_counter_sets() -> list[Sample]:
    """Registry collector: every live :class:`CounterSet`, per kind and shard.

    Unsharded instances (``shard is None``) are combined into unlabeled
    samples, exported even when none is live so a fresh registry scrapes a
    complete (zeroed) surface; each shard tag gets its own ``shard``-labelled
    group, so skew across shards is observable rather than summed away.
    """
    groups: dict[type[CounterSet], dict[str | None, list[Any]]] = {
        kind: {None: []} for kind in CounterSet.__subclasses__()
    }
    for stats in list(_LIVE_COUNTER_SETS):
        groups[type(stats)].setdefault(stats.shard, []).append(stats.counts())
    samples: list[Sample] = []
    for kind, by_shard in groups.items():
        for shard in sorted(by_shard, key=lambda s: (s is not None, s)):
            parts = by_shard[shard]
            counts = kind.combine(parts)
            labels = () if shard is None else (("shard", shard),)
            samples.extend(
                Sample(f"{kind.PREFIX}_{name}_total", labels, float(getattr(counts, name)))
                for name in kind.COUNTERS
                if name not in kind.UNEXPORTED
            )
            samples.extend(
                Sample(f"{kind.PREFIX}_{name}", labels, float(value), "gauge")
                for name, value in kind.gauges(counts, len(parts)).items()
            )
    return samples


#: A collector: zero-arg callable yielding samples when the registry is scraped.
Collector = Callable[[], Iterable[Sample]]


@dataclass
class _Family:
    """All instruments sharing one metric name (distinct label sets)."""

    kind: str
    help: str
    instruments: dict[tuple[tuple[str, str], ...], Any] = field(default_factory=dict)


class MetricsRegistry:
    """Thread-safe home for every instrument and collector in a process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Collector] = [collect_counter_sets]

    # -- instrument factories (get-or-create; idempotent by name+labels) --

    def counter(
        self, name: str, labels: dict[str, str] | None = None, help: str = ""
    ) -> Counter:
        return self._instrument(name, labels, help, "counter", Counter)

    def gauge(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        help: str = "",
        fn: Callable[[], float] | None = None,
    ) -> Gauge:
        gauge = self._instrument(name, labels, help, "gauge", Gauge)
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = _label_key(labels)
        with self._lock:
            family = self._families.setdefault(name, _Family("histogram", help))
            if family.kind != "histogram":
                raise ValueError(f"metric {name!r} already registered as {family.kind}")
            instrument = family.instruments.get(key)
            if instrument is None:
                instrument = Histogram(name, labels, buckets)
                family.instruments[key] = instrument
            return instrument

    def _instrument(self, name, labels, help, kind, cls):
        key = _label_key(labels)
        with self._lock:
            family = self._families.setdefault(name, _Family(kind, help))
            if family.kind != kind:
                raise ValueError(f"metric {name!r} already registered as {family.kind}")
            instrument = family.instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels)
                family.instruments[key] = instrument
            return instrument

    # -- collectors ----------------------------------------------------

    def register_collector(self, collector: Collector) -> Collector:
        """Add a pull-style sample source (scraped on every collect)."""
        with self._lock:
            self._collectors.append(collector)
        return collector

    # -- export --------------------------------------------------------

    def collect(self) -> list[Sample]:
        """Every current sample: owned instruments first, then collectors."""
        with self._lock:
            families = [
                (name, family.kind, list(family.instruments.values()))
                for name, family in sorted(self._families.items())
            ]
            collectors = list(self._collectors)
        out: list[Sample] = []
        for _name, _kind, instruments in families:
            for instrument in instruments:
                out.extend(instrument.samples())
        for collector in collectors:
            out.extend(collector())
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4 subset)."""
        with self._lock:
            families = sorted(self._families.items())
            collectors = list(self._collectors)
        lines: list[str] = []
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for instrument in family.instruments.values():
                for sample in instrument.samples():
                    lines.append(sample.render())
        collected: dict[str, list[Sample]] = {}
        for collector in collectors:
            for sample in collector():
                collected.setdefault(sample.name, []).append(sample)
        for name in sorted(collected):
            kind = collected[name][0].kind
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(sample.render() for sample in collected[name])
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict[str, Any]:
        """Flat ``{"name{labels}": value}`` mapping of every sample."""
        return {
            sample.name + _format_labels(sample.labels): sample.value
            for sample in self.collect()
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def value(self, name: str, labels: dict[str, str] | None = None) -> float:
        """Current value of one sample (0.0 when absent) — test helper."""
        wanted = name + _format_labels(_label_key(labels))
        return self.to_dict().get(wanted, 0.0)

    def reset(self) -> None:
        """Drop every instrument and ad-hoc collector (tests and CLI
        runs); the counter-set collector stays installed."""
        with self._lock:
            self._families.clear()
            self._collectors = [collect_counter_sets]


#: Process-default registry.  Library code grabs it lazily at call sites,
#: so tests (and the CLI) can swap a fresh one in with :func:`set_registry`.
_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry (returns the previous one)."""
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
