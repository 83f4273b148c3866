"""The ``ProtocolSchedule`` intermediate representation.

A *schedule emitter* is a generator that describes a packet-level
protocol as a stream of segments instead of imperative ``deliver``
calls::

    def my_schedule(network, rng):
        hear = yield DecisionStep(mask)          # one adaptive step
        window = yield ObliviousWindow(masks)    # a batch of fixed steps
        ...
        return result                            # via StopIteration

The generator receives, through ``send``, exactly what the network
delivered for the segment it yielded: a length-``n`` ``hear_from``
vector for a :class:`DecisionStep`, a ``(w, n)`` matrix for an
:class:`ObliviousWindow`, ``None`` for a :class:`TracePhase`. Emitters
never touch the network themselves — execution strategy (batched sparse
products vs. fused single steps) is entirely the runner's business,
which is what lets one protocol description run bit-identically on
either path.

The obliviousness contract
--------------------------
Yielding an :class:`ObliviousWindow` is a *promise*: none of the
window's masks depends on anything heard inside the window. Every mask
may (and usually does) depend on receptions from segments already
completed, and on randomness drawn while building the window. Emitters
that draw coins for a window must draw them in the same order the
step-wise reference implementation draws them (numpy's row-major
``rng.random((w, L))`` equals ``w`` consecutive ``rng.random(L)``
calls — under rng contract v2, DESIGN.md §4.3, ``L`` is the number of
nodes eligible to transmit), which is what keeps engine and reference
runs on one seed bit-identical.

Plan/commit form
----------------
The generator form above conflates two distinct events: *folding* the
receptions of the segment just executed (``send`` delivers them) and
*planning* the next segment (the generator body computes it before the
next ``yield``). A single-stream runner never notices, but a combinator
that interleaves two protocols' windows — :func:`repro.engine.mux
.multiplex` — needs to see both streams' upcoming masks while earlier
receptions are still in flight. :class:`SegmentProtocol` is the split
form: ``plan(rng)`` produces the next segment, ``commit(reply)`` folds
its delivery result, and the two may be separated by other streams'
radio steps. The causal contract mirrors the step-wise drivers: a
runner calls ``plan`` only when every previously planned row has been
executed and every completed segment committed, so a source observes
exactly the world state the reference loop's ``transmit_mask`` would.
:class:`ScheduleSegmentAdapter` lifts the generator form onto this
interface (with the documented caveat that a generator can only fold
and plan in one motion, so its fold runs at the *next* ``plan`` call).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Callable, Generator, Union

import numpy as np

from ..radio.errors import ProtocolError
from ..radio.network import TransmitPlan

#: Cap on the number of boolean coin-matrix entries an emitter should
#: materialize per window: windows larger than this are chunked. Chunked
#: ``rng.random`` draws are stream-identical to one big draw, so the
#: chunk size is a memory knob, never a semantics knob.
COIN_BUDGET = 1 << 22


def coin_chunk(n: int, budget: int = COIN_BUDGET) -> int:
    """Window rows to draw per chunk for an ``n``-node coin matrix."""
    return max(1, budget // max(1, n))


@dataclasses.dataclass
class ObliviousWindow:
    """A block of radio steps with masks fixed before the block starts.

    ``masks`` has shape ``(w, n)``; row ``t`` is the transmit mask of
    window step ``t``. The runner answers with the ``(w, n)``
    ``hear_from`` matrix of
    :meth:`repro.radio.network.RadioNetwork.deliver_window`.
    """

    masks: np.ndarray


@dataclasses.dataclass
class DecisionStep:
    """A single radio step whose mask may depend on prior receptions.

    The runner answers with the length-``n`` ``hear_from`` vector of
    :meth:`repro.radio.network.RadioNetwork.deliver`.
    """

    mask: np.ndarray


#: A chunk's reception fold: ``fold(k, steps, nodes, senders)`` receives
#: the chunk height and its clean receptions as parallel int64 arrays —
#: ``steps`` chunk-relative, ``nodes`` and ``senders`` **global** ids,
#: arbitrary order.
ReceptionFold = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


@dataclasses.dataclass
class PlanSection:
    """One phase-labeled span of a fused :class:`StreamedWindow`.

    A fused plan concatenates what used to be several back-to-back
    streamed windows (the two Decay blocks of a Radio MIS round) into
    one :class:`~repro.radio.network.TransmitPlan`, so chunk dispatch,
    fault masking, and density routing run once per round. Sections
    keep the pieces' identities: ``width`` rows of the plan, an
    optional trace ``phase`` the runner enters when the section starts,
    and the section's own fold.

    ``consume_coo`` (a :data:`ReceptionFold`) folds each chunk's
    reception triple; a section without one gives ``consume(hear_chunk)``
    instead, and the runner scatters the triple into a ``(k, n)`` hear
    slab for it. Both see full-width, global-id receptions whether the
    chunk ran full width or restricted.

    The runner never lets an executed chunk straddle a section
    boundary, so a section's callbacks see exactly the rows of its own
    span — which is what lets a fused emitter switch per-section state
    (the second Decay block's membership depends on the first's
    outcome) inside one plan.
    """

    width: int
    phase: str | None = None
    consume: Callable[[np.ndarray], None] | None = None
    consume_coo: ReceptionFold | None = None


@dataclasses.dataclass
class StreamedWindow:
    """An oblivious window executed as a stream of bounded chunks.

    The out-of-core form of :class:`ObliviousWindow`: instead of
    materializing ``(w, n)`` masks and receiving a ``(w, n)``
    ``hear_from`` reply, the segment carries a lazy
    :class:`~repro.radio.network.TransmitPlan` and the runner executes
    it chunk by chunk, folding each chunk's receptions as they are
    produced. The runner's reply to the segment is ``None`` — by the
    time the generator resumes, every chunk has already been folded.

    ``consume_coo`` is the per-chunk reception-triple fold (see
    :class:`PlanSection`); ``consume(hear_chunk)`` is the slab form,
    fed a ``(w_chunk, n)`` hear slab. Generator-form emitters bind one
    to their own state (e.g. ``Decay._absorb_coo``); a plan/commit
    source in streaming form
    (:class:`~repro.engine.streaming.StreamingSegmentProtocol`) leaves
    both ``None`` and the driving :func:`~repro.engine.runner
    .segment_schedule` routes chunks to the source's
    ``commit(hear_chunk)`` instead. Chunks arrive in step order, so an
    order-dependent fold (first-hear semantics) is exactly the fold of
    the monolithic reply.

    The obliviousness promise of :class:`ObliviousWindow` applies
    unchanged: no mask row may depend on anything heard inside the
    window. The chunk size is the *runner's* choice (its
    ``chunk_steps`` / ``mem_budget`` knobs) — a memory knob, never a
    semantics knob, because plans draw randomness lazily in row order
    (see :class:`~repro.radio.network.TransmitPlan`).
    """

    plan: TransmitPlan
    consume: Callable[[np.ndarray], None] | None = None
    consume_coo: ReceptionFold | None = None
    #: Fused multi-phase form: when set, a tuple of
    #: :class:`PlanSection` whose widths sum to ``plan.total_steps``;
    #: the sections' callbacks replace ``consume``/``consume_coo``.
    sections: tuple[PlanSection, ...] | None = None


@dataclasses.dataclass
class TracePhase:
    """Switch the network trace's current phase (costs no radio step).

    The runner answers with ``None``. Not allowed inside multiplexed
    sub-schedules (phase attribution is ambiguous when two protocols
    interleave; set the phase around the whole multiplexed run instead).
    """

    name: str


Segment = Union[ObliviousWindow, StreamedWindow, DecisionStep, TracePhase]
"""A single element of a protocol schedule."""

ProtocolSchedule = Generator[Segment, Any, Any]
"""The emitter type: yields segments, receives delivery results, and
returns the protocol's result via ``StopIteration.value``."""


class SegmentProtocol(abc.ABC):
    """A schedule emitter in plan/commit form.

    Unlike the generator form, planning the next segment and committing
    the previous segment's receptions are separate calls, which lets a
    combinator interleave this source's planned rows with another
    stream's before any of them execute (see module docstring, "Plan/
    commit form").

    The call contract, enforced by the runners in this package:

    * ``plan(rng)`` is called only at a *clean frontier*: every row this
      source has planned so far has been executed, and every fully
      executed segment has been committed. Randomness must be drawn
      inside ``plan`` (never ``commit``), in the same order the
      step-wise reference draws it.
    * ``commit(reply)`` is called exactly once per planned segment, in
      planning order, with the segment's full delivery result (a
      ``(w, n)`` ``hear_from`` matrix for a window, ``None`` for a
      :class:`TracePhase`). A run may end with the final segment's
      commit never arriving (budget exhaustion, a multiplexed main
      stream finishing first); sources must not rely on a trailing
      commit for correctness of *prior* state.
    """

    def __init__(self, n: int) -> None:
        self.n = n

    @abc.abstractmethod
    def plan(self, rng: np.random.Generator) -> Segment | None:
        """Produce the next segment, or ``None`` when the stream ends."""

    @abc.abstractmethod
    def commit(self, reply: Any) -> None:
        """Fold the delivery result of the oldest uncommitted segment."""

    def steps_remaining(self) -> int | None:
        """Exact number of radio-step rows still to be planned.

        ``None`` means data-dependent (unknown until the stream actually
        ends). Deterministic-length sources should override this: a
        multiplexed *main* stream must know its remaining step count
        exactly, because the reference drivers re-check termination
        between every pair of steps and the combinator can only skip
        those checks when the answer is predetermined.
        """
        return None

    def result(self) -> Any:
        """Protocol output; meaningful once ``plan`` returned ``None``."""
        raise ProtocolError(
            f"{type(self).__name__} does not define a result"
        )


class ScheduleSegmentAdapter(SegmentProtocol):
    """Lift a generator-form emitter onto :class:`SegmentProtocol`.

    The generator protocol cannot separate folding from planning —
    ``send(reply)`` does both in one motion — so this adapter stores the
    committed reply and feeds it to the generator at the *next*
    ``plan`` call. For single-stream execution that is exactly the
    :class:`~repro.engine.runner.WindowedRunner` loop. Inside a
    multiplexed run it means the emitter's fold runs at its own next
    planning slot rather than at the segment boundary; emitters that
    mutate state shared with the other stream (the ICP Decay
    background's ``knowledge`` commits) therefore need a native
    :class:`SegmentProtocol` implementation instead — the adapter only
    guarantees bit-identity for self-contained emitters.
    """

    def __init__(self, schedule: ProtocolSchedule, n: int) -> None:
        super().__init__(n)
        self._gen = schedule
        self._started = False
        self._awaiting_commit = False
        self._reply: Any = None
        self._done = False
        self._result: Any = None

    def plan(self, rng: np.random.Generator) -> Segment | None:
        if self._done:
            return None
        if self._awaiting_commit:
            raise ProtocolError(
                "ScheduleSegmentAdapter.plan() before the previous "
                "segment was committed: the generator form folds and "
                "plans in one motion, so plan/commit must alternate"
            )
        try:
            if self._started:
                segment = self._gen.send(self._reply)
            else:
                segment = next(self._gen)
        except StopIteration as stop:
            self._done = True
            self._result = stop.value
            return None
        self._started = True
        # A StreamedWindow's receptions are folded in-stream through its
        # consume callback and its reply is None, so there is nothing
        # left to commit: the generator just resumes with None at the
        # next plan() call.
        self._awaiting_commit = not isinstance(segment, StreamedWindow)
        self._reply = None
        return segment

    def commit(self, reply: Any) -> None:
        if not self._awaiting_commit:
            raise ProtocolError(
                "ScheduleSegmentAdapter.commit() without a planned "
                "segment awaiting one"
            )
        self._reply = reply
        self._awaiting_commit = False

    def steps_remaining(self) -> int | None:
        return 0 if self._done else None

    def result(self) -> Any:
        if not self._done:
            raise ProtocolError(
                "ScheduleSegmentAdapter.result() before the schedule "
                "finished"
            )
        return self._result


__all__ = [
    "COIN_BUDGET",
    "DecisionStep",
    "ObliviousWindow",
    "PlanSection",
    "ProtocolSchedule",
    "ReceptionFold",
    "ScheduleSegmentAdapter",
    "Segment",
    "SegmentProtocol",
    "StreamedWindow",
    "TracePhase",
    "coin_chunk",
]
