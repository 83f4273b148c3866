"""The unified windowed protocol engine (the scheduler layer).

Packet-level protocols in this package no longer drive
:meth:`repro.radio.network.RadioNetwork.deliver` one step at a time.
Instead each protocol is a *schedule emitter*: a generator that yields a
stream of :mod:`segments <repro.engine.segments>` —

* :class:`~repro.engine.segments.ObliviousWindow` — a block of radio
  steps whose transmit masks are all fixed before the first of them
  executes (Decay sweeps, EstimateEffectiveDegree levels, round-robin
  rotations, background blocks);
* :class:`~repro.engine.segments.DecisionStep` — a single step whose
  mask may depend on everything heard so far (slot-schedule passes,
  marking decisions);
* :class:`~repro.engine.segments.TracePhase` — a trace-attribution
  switch (no radio step).

and the :class:`~repro.engine.runner.WindowedRunner` executes the
stream: oblivious windows through the batched, density-routed
:meth:`~repro.radio.network.RadioNetwork.deliver_window` product,
decision points through the fused single-step
:meth:`~repro.radio.network.RadioNetwork.deliver` path. The runner
preserves the exact rng stream, ``steps_elapsed`` count, and trace
totals of the step-wise loops it replaces — the contract every
``*_reference`` implementation, ``tests/test_engine_windowed.py``, and
the :mod:`repro.engine.validate` harness pin down (see DESIGN.md, "The
engine layer").

On top of the generator form sits the *plan/commit* form
(:class:`~repro.engine.segments.SegmentProtocol`): planning the next
segment and committing the previous segment's receptions are separate
calls, which is what lets the :func:`~repro.engine.mux.multiplex`
combinator zip protocols' planned windows into joint oblivious
windows — how ICP's time-multiplexed Decay background runs fused
instead of step-at-a-time.

Orthogonal to both forms is *streaming* execution
(:mod:`repro.engine.streaming`): a window too wide to materialize is
carried as a :class:`~repro.engine.segments.StreamedWindow` — a lazy
:class:`~repro.radio.network.TransmitPlan` plus a per-chunk fold — and
the runner executes it through
:meth:`~repro.radio.network.RadioNetwork.deliver_window_chunks` in
``(chunk_steps, n)`` slabs, with the slab height derived from a peak-
memory budget. Bit-identical to the monolithic path on shared seeds;
peak memory becomes a tunable instead of a function of ``w * n``, which
is what makes ``n >= 10^5`` runs practical (DESIGN.md, "Streaming
windows").
"""

from .kernels import (
    DeliveryKernels,
    available_delivery_modes,
    require_delivery_mode,
)
from .mux import multiplex
from .pcg import CoinField
from .policy import (
    ENGINE_MODES,
    ExecutionPolicy,
    TRACE_MODES,
    legacy_policy,
    parse_mem_budget,
)
from .residual import RESTRICT_MODES, ResidualContext
from .runner import (
    DELIVERY_MODES,
    ProtocolSegmentSource,
    WindowedRunner,
    protocol_schedule,
    run_schedule,
    segment_schedule,
)
from .segments import (
    COIN_BUDGET,
    DecisionStep,
    ObliviousWindow,
    PlanSection,
    ProtocolSchedule,
    ScheduleSegmentAdapter,
    Segment,
    SegmentProtocol,
    StreamedWindow,
    TracePhase,
    coin_chunk,
)
from .streaming import (
    STREAM_CELL_BYTES,
    StreamedCommitAdapter,
    StreamingSegmentProtocol,
    chunk_steps_for_budget,
    memory_budget,
    resolve_chunk_steps,
    set_memory_budget,
)
from .validate import ObliviousnessViolationError, ValidatingRunner

__all__ = [
    "COIN_BUDGET",
    "CoinField",
    "DELIVERY_MODES",
    "DeliveryKernels",
    "ENGINE_MODES",
    "DecisionStep",
    "ExecutionPolicy",
    "PlanSection",
    "RESTRICT_MODES",
    "ResidualContext",
    "TRACE_MODES",
    "ObliviousnessViolationError",
    "ObliviousWindow",
    "ProtocolSchedule",
    "ProtocolSegmentSource",
    "STREAM_CELL_BYTES",
    "ScheduleSegmentAdapter",
    "Segment",
    "SegmentProtocol",
    "StreamedCommitAdapter",
    "StreamedWindow",
    "StreamingSegmentProtocol",
    "TracePhase",
    "ValidatingRunner",
    "WindowedRunner",
    "available_delivery_modes",
    "chunk_steps_for_budget",
    "coin_chunk",
    "legacy_policy",
    "memory_budget",
    "multiplex",
    "parse_mem_budget",
    "protocol_schedule",
    "require_delivery_mode",
    "resolve_chunk_steps",
    "run_schedule",
    "segment_schedule",
    "set_memory_budget",
]
