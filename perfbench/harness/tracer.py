"""In-memory spans and counters recorded by wrappers around public calls.

The benchmark never edits the program: :func:`install` replaces attributes
on the program's classes and modules with thin wrappers and returns an
:class:`Installed` handle whose :meth:`Installed.restore` puts every
original back.  Batch-level calls get a timed :class:`Span`; per-packet
scalar calls are only counted, so the wrappers' own cost stays bounded.
Spans stay in memory until :func:`export` writes them out.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

perf_counter = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    batch: Optional[int]      # batch or frame id shared by one request's spans
    keys: int = 0             # work items the call handled (packets, keys)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self.batch: Optional[int] = None
        self.missing: List[str] = []   # wrap targets the program lacks

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, keys: int = 0) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), 0.0, parent,
                    self.batch, keys)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def span(self, name: str, keys: int = 0) -> "_SpanContext":
        return _SpanContext(self, name, keys)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- summaries -----------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed wall time of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def keys(self, name: str) -> int:
        return sum(s.keys for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        """Summed self time (span minus its children) of spans ``name``."""
        own = self_times(self.spans)
        return sum(own[s.id] for s in self.spans if s.name == name)

    def as_dict(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "counts": self.counts}


def export(path, **tracers: Tracer) -> None:
    """Write each named tracer's spans and counters to one JSON file."""
    with open(path, "w") as handle:
        json.dump({name: t.as_dict() for name, t in tracers.items()}, handle)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_keys", "_span")

    def __init__(self, tracer: Tracer, name: str, keys: int) -> None:
        self._tracer, self._name, self._keys = tracer, name, keys

    def __enter__(self) -> Span:
        self._span = self._tracer.begin(self._name, self._keys)
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._span)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its child spans."""
    spans = list(spans)
    result = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            result[s.parent] -= s.duration
    return result


# -- wrappers ------------------------------------------------------------------


def timed(tracer: Tracer, name: str, fn: Callable,
          keys_of: Optional[Callable] = None,
          on_result: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so each call records a span ``name``.

    ``keys_of(args)`` sizes the call's work; ``on_result(result)`` sees the
    return value after the span closes (for counters derived from it).
    """

    def wrapper(*args, **kwargs):
        span = tracer.begin(name, keys_of(args) if keys_of else 0)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if on_result is not None:
            on_result(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def counted(tracer: Tracer, name: str, fn: Callable,
            result_count: Optional[str] = None) -> Callable:
    """Wrap ``fn`` so each call bumps counter ``name`` (no timing).

    With ``result_count``, a truthy return value also bumps that counter
    (e.g. the admits among bitmap lookups).
    """
    counts = tracer.counts
    counts.setdefault(name, 0)
    if result_count is None:
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
    else:
        counts.setdefault(result_count, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if result:
                counts[result_count] += 1
            return result

    wrapper.__wrapped__ = fn
    return wrapper


class Installed:
    """Handle over installed wrappers; :meth:`restore` undoes them all."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]):
        """Swap ``owner.attr`` for ``make(original)``.

        ``attr`` is a function or classmethod defined on the module or
        class ``owner`` itself.  A target the program no longer defines
        there is skipped and listed in :attr:`missing`, so its metrics
        read 0.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _rows(args) -> int:
    """Keys handled by a vectorized call: the length of its first array."""
    return len(args[1])


def _columns(args) -> int:
    """Keys in an ``(m, N)`` index matrix argument."""
    return args[1].shape[-1]


def install(tracer: Tracer) -> Installed:
    """Wrap the public functions of every layer the workloads reach."""
    from repro.core import bitmap, bitmap_filter, cuckoo, hashing, hybrid
    from repro.net import packet
    from repro.serve import protocol
    from repro.sim import metrics, pipeline

    handle = Installed()
    try:
        t = lambda name, keys_of=None, on_result=None: (  # noqa: E731
            lambda fn: timed(tracer, name, fn, keys_of, on_result))
        c = lambda name, result=None: (  # noqa: E731
            lambda fn: counted(tracer, name, fn, result))

        handle.replace(packet.PacketArray, "directions", t("net.directions"))
        handle.replace(packet.PacketArray, "concatenate",
                       t("net.concatenate"))
        handle.replace(hashing.HashFamily, "indices_vec",
                       t("hashing.indices_vec", _rows))
        handle.replace(bitmap.Bitmap, "mark", c("bitmap.mark.calls"))
        handle.replace(bitmap.Bitmap, "test_current",
                       c("bitmap.test_current.calls", "bitmap.admits"))
        handle.replace(bitmap.Bitmap, "mark_vec",
                       t("bitmap.mark_vec", _columns))
        handle.replace(bitmap.Bitmap, "test_current_vec",
                       t("bitmap.test_current_vec", _columns,
                         lambda hits: tracer.count("bitmap.admits",
                                                   int(hits.sum()))))
        handle.replace(bitmap.Bitmap, "rotate", t("bitmap.rotate"))
        handle.replace(bitmap_filter.BitmapFilter, "process_batch",
                       t("bitmap_filter.process_batch",
                         lambda args: len(args[1])))
        handle.replace(cuckoo.CuckooFlowTable, "insert",
                       c("cuckoo.insert.calls"))
        handle.replace(cuckoo.CuckooFlowTable, "contains",
                       c("cuckoo.contains.calls"))
        handle.replace(cuckoo.CuckooFlowTable, "insert_batch",
                       t("cuckoo.insert_batch", _rows))
        handle.replace(cuckoo.CuckooFlowTable, "contains_batch",
                       t("cuckoo.contains_batch", _rows))
        handle.replace(hybrid.HybridVerifiedFilter, "process_batch",
                       t("hybrid.process_batch", lambda args: len(args[1])))
        # The pipeline calls score_run through its own module binding.
        handle.replace(pipeline, "score_run", t("metrics.score_run"))
        handle.replace(metrics, "score_run", t("metrics.score_run"))
        handle.replace(pipeline, "run_filter_on_trace",
                       t("pipeline.run_filter_on_trace"))
        handle.replace(protocol, "encode_packets",
                       t("client.encode_packets", None,
                         lambda frame: tracer.count("client.bytes_sent",
                                                    len(frame))))
        handle.replace(protocol, "decode_verdicts",
                       t("client.decode_verdicts"))
    except BaseException:
        handle.restore()
        raise
    return handle
