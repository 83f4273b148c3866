"""Spans around the public calls into each layer, recorded from outside.

The benchmark never edits the program: :class:`Tracer` replaces the
public functions listed in :data:`TRACED` with wrappers for the length
of a traced run and puts the originals back afterwards. Each call
becomes a :class:`Span` with its name, start, end, the span that
caused it and the phase of the run (set-up or a timed iteration). All
spans of one run share the tracer's run id, stay in memory, and are
written out once the run ends.

Parents follow the calling thread. A span opened on a service thread
with nothing open on that thread was caused by the client's request,
so its parent is the innermost open span of the client thread
(``ServiceClient.submit`` or ``ServiceClient.stream``), or the client's
latest span when the service thread runs between two requests.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
import time
from typing import Any, Callable

import repro.api
import repro.corpus
import repro.service.store
from repro.corpus import CorpusStore
from repro.service import Campaign, ReportStore, ServiceClient


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    phase: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _report_attrs(args: tuple, kwargs: dict, report: Any) -> dict[str, Any]:
    """What an ``api.run`` span keeps of its RunReport."""
    prov = report.provenance
    delivery = prov.get("delivery") or {}
    faults = prov.get("faults") or {}
    return {
        "wall_time_s": report.wall_time_s,
        "steps": report.steps,
        "trace": dict(report.trace),
        "timing": dict(prov.get("timing") or {}),
        "kernel": delivery.get("kernel"),
        "kernel_use": dict(delivery.get("kernel_use") or {}),
        "residual": dict(prov.get("residual") or {}),
        "faults": dict(faults.get("realized") or {}),
    }


def _put_attrs(args: tuple, kwargs: dict, path: Any) -> dict[str, Any]:
    return {"bytes": path.stat().st_size}


def _get_attrs(args: tuple, kwargs: dict, report: Any) -> dict[str, Any]:
    store, key = args
    return {"bytes": store.path_for(key).stat().st_size if report else 0}


#: ``(owner, attribute, span name, attrs from (args, kwargs, result))``
#: for every traced entry point. ``encode_value``/``decode_value`` are
#: the names bound in ``repro.service.store``. Besides the store's
#: documents they encode the policy and config digests of a campaign's
#: keys, so :func:`layer_metrics` counts only the codec spans opened
#: inside ``ReportStore.put``/``get``.
TRACED: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (repro.corpus, "random_udg_csr", "corpus.generate", None),
    (CorpusStore, "add", "corpus.add", None),
    (CorpusStore, "load", "corpus.load", None),
    (repro.api, "run", "api.run", _report_attrs),
    (ReportStore, "put", "store.put", _put_attrs),
    (ReportStore, "get", "store.get", _get_attrs),
    (repro.service.store, "encode_value", "wire.encode", None),
    (repro.service.store, "decode_value", "wire.decode", None),
    (Campaign, "run", "campaign.run", None),
    (ServiceClient, "submit", "http.submit", None),
)

#: Generator entry points: the span covers the whole iteration.
TRACED_STREAMS = ((ServiceClient, "stream", "http.stream"),)


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list[Span] = []
        self.client_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack: list[Span] = self._stack()
        self._last_client: int | None = None
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        on_client = stack is self._client_stack
        if stack:
            parent = stack[-1].id
        elif on_client:
            parent = None
        else:
            # A slice, because the client thread may pop meanwhile.
            client = self._client_stack[-1:]
            parent = client[0].id if client else self._last_client
        with self._lock:
            span = Span(
                len(self.spans), name, parent, threading.get_ident(),
                self.phase, 0.0,
            )
            self.spans.append(span)
        if on_client:
            self._last_client = span.id
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None):
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def _wrap_stream(self, name: str, fn: Callable):
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            lines = 0
            try:
                for item in fn(*args, **kwargs):
                    lines += 1
                    yield item
            finally:
                self._close(span)
                span.attrs = {"lines": lines}

        return traced

    # -- installing ---------------------------------------------------

    def install(self) -> None:
        """Replace every traced entry point with its wrapper."""
        if self._originals:
            return
        for owner, attr, name, attrs in TRACED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, attrs))
        for owner, attr, name in TRACED_STREAMS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap_stream(name, original))

    def uninstall(self) -> None:
        """Put the original entry points back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------

    def phase_spans(self, phase: str, timeout: float = 10.0) -> list[Span]:
        """The spans of one phase, once every one of them has closed.

        A service thread can close its ``campaign.run`` span just
        after the client read the settled stream line, so wait for it.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                spans = [s for s in self.spans if s.phase == phase]
            if all(s.end is not None for s in spans):
                break
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"spans of phase {phase!r} still open after "
                    f"{timeout}s"
                )
            time.sleep(0.01)
        return spans

    def dump(self, path: Any, extra: dict[str, Any]) -> None:
        """Write every span, with the run id and ``extra``, as JSON."""
        with self._lock:
            spans = list(self.spans)
        record = dict(extra)
        record["run_id"] = self.run_id
        record["spans"] = [dataclasses.asdict(s) for s in spans]
        with open(path, "w") as handle:
            json.dump(record, handle)


ENGINE_BUCKETS = ("plan", "coins", "faults", "deliver", "commit")
KERNELS = (
    "pipeline-numpy", "coo-spmm", "coo-gather", "coo-dense",
    "coo-sparse-mixed", "skip-empty",
)
RESIDUAL = ("rebuilds", "restricted_steps", "full_steps")
RADIO = ("steps", "transmissions", "receptions")
FAULTS = ("steps_faulted", "suppressed_transmissions", "silenced_receptions")


def _percentile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank] * 1e3


def layer_metrics(
    spans: list[Span],
    wall: float,
    client_thread: int,
    store_counts: dict[str, int],
) -> dict[str, float]:
    """Per-layer numbers of one timed iteration, from its spans.

    ``wall`` is the client's wall time of the iteration and
    ``store_counts`` the change of the report store's ``hits``,
    ``misses`` and ``writes`` counters over it.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def bytes_of(name: str) -> int:
        return sum(s.attrs.get("bytes", 0) for s in named(name))

    out: dict[str, float] = {}

    runs = named("api.run")
    api_s = total("api.run")
    engine_wall = sum(s.attrs["wall_time_s"] for s in runs)
    out["api.calls"] = len(runs)
    out["api.run_s"] = api_s
    out["api.overhead_s"] = api_s - engine_wall
    run_times = [s.duration for s in runs]
    out["api.run_p50_ms"] = _percentile_ms(run_times, 0.5)
    out["api.run_p95_ms"] = _percentile_ms(run_times, 0.95)

    buckets = {
        b: sum(s.attrs["timing"].get(b, 0.0) for s in runs)
        for b in ENGINE_BUCKETS
    }
    for bucket, seconds in buckets.items():
        out[f"engine.{bucket}_s"] = seconds
    out["engine.unattributed_s"] = engine_wall - sum(buckets.values())
    out["engine.coins_share"] = (
        buckets["coins"] / engine_wall if engine_wall > 0 else 0.0
    )

    def counter(field: str, key: str) -> int:
        return sum(int(s.attrs[field].get(key, 0)) for s in runs)

    for kernel in KERNELS:
        out[f"kernels.{kernel}"] = counter("kernel_use", kernel)
    for key in RESIDUAL:
        out[f"residual.{key}"] = counter("residual", key)
    residual_steps = out["residual.restricted_steps"] + out["residual.full_steps"]
    out["residual.restricted_frac"] = (
        out["residual.restricted_steps"] / residual_steps
        if residual_steps else 0.0
    )
    for key in RADIO:
        out[f"radio.{key}"] = counter("trace", key)
    out["radio.receptions_per_tx"] = (
        out["radio.receptions"] / out["radio.transmissions"]
        if out["radio.transmissions"] else 0.0
    )
    for key in FAULTS:
        out[f"faults.{key}"] = counter("faults", key)

    def inside(name: str, parents: str) -> float:
        ids = {s.id for s in named(parents)}
        return sum(s.duration for s in named(name) if s.parent in ids)

    # The store's documents: its codec calls inside put and get, and
    # the bytes they produced or consumed.
    out["wire.encode_s"] = inside("wire.encode", "store.put")
    out["wire.decode_s"] = inside("wire.decode", "store.get")
    out["wire.bytes"] = bytes_of("store.put") + bytes_of("store.get")

    puts = [s.duration for s in named("store.put")]
    gets = [s.duration for s in named("store.get")]
    out["store.put_s"] = sum(puts)
    out["store.put_p95_ms"] = _percentile_ms(puts, 0.95)
    out["store.writes"] = store_counts["writes"]
    out["store.bytes_written"] = bytes_of("store.put")
    out["store.get_s"] = sum(gets)
    out["store.get_p95_ms"] = _percentile_ms(gets, 0.95)
    out["store.hits"] = store_counts["hits"]
    out["store.misses"] = store_counts["misses"]
    lookups = store_counts["hits"] + store_counts["misses"]
    out["store.hit_ratio"] = store_counts["hits"] / lookups if lookups else 0.0

    # Self time of a layer: its spans minus the api and store spans
    # inside a campaign, or the campaign run a request caused.
    out["campaign.run_s"] = total("campaign.run")
    out["campaign.self_s"] = out["campaign.run_s"] - sum(
        inside(name, "campaign.run")
        for name in ("api.run", "store.put", "store.get")
    )
    client = [
        s for s in spans
        if s.thread == client_thread and s.parent is None
    ]
    http_s = total("http.submit") + total("http.stream")
    out["http.self_s"] = http_s - (
        inside("campaign.run", "http.submit")
        + inside("campaign.run", "http.stream")
    )
    out["http.requests"] = len(named("http.submit") + named("http.stream"))
    out["http.stream_lines"] = sum(
        s.attrs.get("lines", 0) for s in named("http.stream")
    )
    out["unattributed_s"] = wall - sum(s.duration for s in client)
    return out
