"""Execution of protocol schedules on a radio network.

:class:`WindowedRunner` is the single place where protocol schedules
meet the simulator: :class:`~repro.engine.segments.ObliviousWindow`
segments execute through the batched
:meth:`~repro.radio.network.RadioNetwork.deliver_window` product,
:class:`~repro.engine.segments.DecisionStep` segments through the fused
single-step :meth:`~repro.radio.network.RadioNetwork.deliver` path.
Because both network entry points are bit-identical per step, a schedule
executed here produces exactly the receptions, trace totals and
``steps_elapsed`` of the step-wise loop it replaced — only faster.

Delivery routing: ``deliver_window`` has two internally equivalent
execution strategies — the sparse product and, for windows whose masks
light up most (listener, step) pairs, an exact dense matmul. The
runner's ``delivery`` knob (``"auto"`` by default) selects between them
per window from the masks' popcounts; both are exact small-integer
sums, so the choice can never change a single ``hear_from`` bit (the
contract ``tests/test_schedule_contract.py`` re-verifies on every
window of every in-tree emitter).

Two adapters bridge the older protocol forms onto the engine:

* :func:`protocol_schedule` lifts a legacy
  :class:`~repro.radio.protocol.Protocol` object into a stream of
  decision steps — one adaptive step per protocol step.
* :class:`ProtocolSegmentSource` lifts the same objects onto the
  plan/commit :class:`~repro.engine.segments.SegmentProtocol` interface
  as width-1 windows, which is what lets a deterministic-length
  protocol (ICP's slot passes) ride the
  :func:`~repro.engine.mux.multiplex` combinator.

:func:`segment_schedule` closes the loop in the other direction: it
drives any :class:`~repro.engine.segments.SegmentProtocol` as an
ordinary generator-form schedule, so plan/commit sources run on the
same runner (and the same budget accounting) as everything else.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Any

import numpy as np

from ..radio.errors import BudgetExceededError, ProtocolError
from ..radio.network import (
    DELIVERY_MODES,
    NO_SENDER,
    PipelineForm,
    RadioNetwork,
    TransmitPlan,
    as_transmit_plan,
)
from . import kernels
from .kernels import require_delivery_mode
from .pcg import scatter_rows
from .residual import (
    REBUILD_FACTOR,
    RESIDUAL_MAX_FRACTION,
    RESTRICT_LIVE_FRACTION,
    ResidualContext,
    validate_restrict,
)
from .segments import (
    DecisionStep,
    ObliviousWindow,
    PlanSection,
    ProtocolSchedule,
    SegmentProtocol,
    StreamedWindow,
    TracePhase,
)
from .streaming import default_stream_chunk, resolve_chunk_steps


class WindowedRunner:
    """Drives schedule emitters on one :class:`RadioNetwork`.

    Parameters
    ----------
    network:
        The radio network all schedules run on.
    max_steps:
        Optional radio-step budget across all :meth:`run` calls on this
        runner. A segment whose execution would exceed the budget raises
        :class:`~repro.radio.errors.BudgetExceededError` *before*
        executing, so a bounded run never overshoots — the engine
        counterpart of :func:`repro.radio.protocol.run_protocol`'s
        budget check. Budget charges are per radio step regardless of
        execution strategy: a ``w``-row window costs ``w`` whether it
        runs sparse, dense, or as a multiplexed joint window.
    delivery:
        Window execution strategy, forwarded to
        :meth:`~repro.radio.network.RadioNetwork.deliver_window`:
        ``"auto"`` (default) routes each window by its estimated
        density, ``"sparse"``/``"dense"`` force one path. All three are
        bit-identical; this is a performance knob only.
    chunk_steps, mem_budget:
        The streaming knobs — memory knobs only, never semantics knobs
        (streamed execution is bit-identical whatever the slab height).
        ``chunk_steps`` fixes the slab height directly; ``mem_budget``
        derives it from a target peak-bytes cap through
        :func:`~repro.engine.streaming.chunk_steps_for_budget`; with
        neither set, the process-wide default budget
        (:func:`~repro.engine.streaming.set_memory_budget`) applies, and
        absent that, :class:`~repro.engine.segments.StreamedWindow`
        plans stream at the legacy
        :func:`~repro.engine.segments.coin_chunk` granularity while
        materialized :class:`~repro.engine.segments.ObliviousWindow`
        segments execute unchunked (the pre-streaming behavior). When a
        bound *is* configured, materialized windows wider than it are
        executed slab-wise too, bounding the kernels' working set.
    """

    def __init__(
        self,
        network: RadioNetwork,
        max_steps: int | None = None,
        delivery: str = "auto",
        chunk_steps: int | None = None,
        mem_budget: int | None = None,
        restrict: str = "auto",
    ) -> None:
        # All delivery modes (including the compiled numba/cupy
        # backends) validate through the kernel registry: unknown names
        # and absent dependencies are refused here, before any run.
        require_delivery_mode(delivery)
        validate_restrict(restrict)
        # Validate the streaming knobs eagerly (resolution also consults
        # the process-wide default, so it happens per execution).
        resolve_chunk_steps(network.n, chunk_steps, mem_budget)
        self.network = network
        self.max_steps = max_steps
        self.delivery = delivery
        self.chunk_steps = chunk_steps
        self.mem_budget = mem_budget
        self.restrict = restrict
        self.steps_executed = 0
        # Residual-delivery cache: the current ResidualContext, plus
        # the live count at which auto last declined one (so the
        # closure test is only retried after the live set halves again).
        self._residual_cache: ResidualContext | None = None
        self._residual_declined_live: int | None = None

    def _resolved_chunk_steps(self, width: int | None = None) -> int | None:
        """The configured streaming bound, or ``None`` when unset.

        ``width`` re-resolves a ``mem_budget`` against a restricted
        column width: the same byte cap buys proportionally taller
        slabs on a residual world.
        """
        return resolve_chunk_steps(
            self.network.n if width is None else max(1, width),
            self.chunk_steps,
            self.mem_budget,
        )

    def _charge(self, steps: int) -> None:
        if (
            self.max_steps is not None
            and self.steps_executed + steps > self.max_steps
        ):
            raise BudgetExceededError(
                f"schedule would exceed the {self.max_steps}-step budget "
                f"({self.steps_executed} executed, next segment {steps})"
            )
        self.steps_executed += steps

    # The execution hooks exist so the contract-checking
    # ValidatingRunner (repro.engine.validate) can interpose replay
    # checks without duplicating the dispatch loop.
    def _execute_window(self, masks: np.ndarray) -> np.ndarray:
        """Execute one charged oblivious window.

        When a streaming bound is configured and the window is wider,
        the kernels run slab-wise through ``deliver_window_chunks`` into
        one preallocated reply — identical results, trace, and step
        accounting (the trace keeps aggregates), with the kernels'
        working set bounded by the slab height.
        """
        chunk = self._resolved_chunk_steps()
        w = masks.shape[0]
        if chunk is None or w <= chunk:
            return self.network.deliver_window(masks, mode=self.delivery)
        hear_from = np.full((w, self.network.n), NO_SENDER, dtype=np.int64)
        done = 0
        for slab in self.network.deliver_window_chunks(
            masks, chunk_steps=chunk, mode=self.delivery
        ):
            hear_from[done : done + slab.shape[0]] = slab
            done += slab.shape[0]
        return hear_from

    def _execute_step(self, mask: np.ndarray) -> np.ndarray:
        """Execute one charged decision step."""
        return self.network.deliver(mask)

    def _plan_sections(
        self, segment: StreamedWindow
    ) -> tuple[PlanSection, ...]:
        """The section list of a streamed window.

        Fused windows carry their own sections; a plain window becomes
        one anonymous section wrapping its ``consume``/``consume_at``
        callbacks, so there is exactly one streaming loop either way.
        """
        if segment.sections is not None:
            total = sum(s.width for s in segment.sections)
            if total != segment.plan.total_steps:
                raise ProtocolError(
                    f"fused StreamedWindow sections cover {total} steps "
                    f"but the plan has {segment.plan.total_steps}"
                )
            return tuple(segment.sections)
        return (
            PlanSection(
                segment.plan.total_steps,
                None,
                segment.consume,
                segment.consume_at,
                segment.consume_coo,
            ),
        )

    def _restriction_for(
        self, plan: TransmitPlan, sections: tuple[PlanSection, ...]
    ) -> ResidualContext | None:
        """Decide (and cache) the residual context for one plan.

        ``None`` means execute full-width. Restriction needs the plan's
        opt-in surface (``support`` + ``masks_at``) and every section's
        ``consume_at``. Under ``"auto"``, it also needs to be worth it:
        the live fraction at or below
        :data:`~repro.engine.residual.RESTRICT_LIVE_FRACTION` and the
        one-hop closure below
        :data:`~repro.engine.residual.RESIDUAL_MAX_FRACTION` of ``n``.
        Contexts are reused while the support stays inside the cached
        member set and the live count has not halved since the build
        (:data:`~repro.engine.residual.REBUILD_FACTOR`); ``"force"``
        restricts whenever the plan allows, which is how the
        equivalence suites pin the restricted path at any scale.
        """
        if self.restrict == "off":
            return None
        if plan.support is None or plan.masks_at is None:
            return None
        if any(s.consume_at is None for s in sections):
            return None
        network = self.network
        support = np.asarray(plan.support, dtype=bool)
        live = int(support.sum())
        if self.restrict == "auto":
            if live > RESTRICT_LIVE_FRACTION * network.n:
                return None
            declined = self._residual_declined_live
            if declined is not None and live > REBUILD_FACTOR * declined:
                return None
        cached = self._residual_cache
        if cached is not None and cached.covers(support):
            if (
                self.restrict == "force"
                or live >= REBUILD_FACTOR * cached.live_at_build
            ):
                return cached
        ctx = ResidualContext(network, support)
        if (
            self.restrict == "auto"
            and ctx.k > RESIDUAL_MAX_FRACTION * network.n
        ):
            self._residual_declined_live = live
            return None
        self._residual_declined_live = None
        self._residual_cache = ctx
        network.residual_stats["rebuilds"] += 1
        return ctx

    def _coo_fold_ok(self, sections: tuple[PlanSection, ...]) -> bool:
        """Whether the fused COO reception path may serve this plan.

        Needs every section's ``consume_coo`` fold and
        ``delivery="auto"`` (gated on the module toggle so benchmarks
        and the equivalence suites can pin the unfused baseline). The
        validating runner overrides this to ``False``: its replay
        machinery compares the *slab* paths, and the pipeline itself is
        pinned by its own equivalence suite.
        """
        if self.delivery != "auto" or not kernels.pipeline_enabled():
            return False
        return all(s.consume_coo is not None for s in sections)

    def _pipeline_for(
        self, plan: TransmitPlan, sections: tuple[PlanSection, ...]
    ) -> PipelineForm | None:
        """The plan's separable form when the fused pass may run."""
        if plan.pipeline is None or not self._coo_fold_ok(sections):
            return None
        return plan.pipeline

    def _execute_stream(self, segment: StreamedWindow) -> None:
        """Execute one streamed window, folding chunks as they arrive.

        Budget charges land per chunk, after its masks are produced and
        before it executes — the granularity (and rng consumption on an
        aborted run) of the pre-streaming emitters, which drew each
        chunk's coins before yielding it. Per-slab processing goes
        through :meth:`_consume_stream_slab`, the hook the validating
        runner interposes on — there is exactly one streaming loop.

        Fused windows execute section by section (chunks never straddle
        a section boundary; each section may enter its own trace
        phase), and plans that opt in may run column-restricted on a
        residual context (:meth:`_restriction_for`) — both reduce to
        the classic single-loop behavior when unused.
        """
        plan = segment.plan
        sections = self._plan_sections(segment)
        ctx = self._restriction_for(plan, sections)
        if ctx is not None:
            self._execute_stream_restricted(plan, sections, ctx)
            return
        form = self._pipeline_for(plan, sections)
        if form is not None:
            self._execute_stream_pipeline(plan, sections, form)
            return
        timing = self.network.phase_timing
        chunk = default_stream_chunk(
            self.network.n, self._resolved_chunk_steps()
        )
        inner = plan.masks
        # Plans are one-shot (lazy coin draws cannot be replayed), so
        # the charging wrapper also stashes each chunk's masks for the
        # per-slab hook; exactly one chunk is in flight at a time.
        current: list[np.ndarray] = []
        coin_spent = [0.0]
        base = 0
        for section in sections:
            if section.phase is not None:
                self.network.trace.enter_phase(section.phase)

            def charged(
                start: int, stop: int, _base: int = base
            ) -> np.ndarray:
                t0 = perf_counter()
                masks = np.asarray(inner(_base + start, _base + stop))
                coin_spent[0] += perf_counter() - t0
                self._charge(stop - start)
                current.append(masks)
                return masks

            stream = self.network.deliver_window_chunks(
                TransmitPlan(section.width, charged),
                chunk_steps=chunk,
                mode=self.delivery,
            )
            while True:
                # "deliver" is the chunk's wall time minus its mask
                # production (timed inside `charged`); with faults
                # installed the classic path's transform time lands in
                # "deliver" too — only the fused pass separates it.
                coin_spent[0] = 0.0
                t0 = perf_counter()
                slab = next(stream, None)
                if slab is None:
                    break
                timing["deliver"] += perf_counter() - t0 - coin_spent[0]
                timing["coins"] += coin_spent[0]
                t0 = perf_counter()
                self._consume_stream_slab(
                    slab, current.pop(), section.consume
                )
                timing["commit"] += perf_counter() - t0
            self.network.residual_stats["full_steps"] += section.width
            base += section.width

    def _pipeline_masks(
        self,
        form: PipelineForm,
        start: int,
        k: int,
        eligible: np.ndarray,
        col_thresh: np.ndarray | None,
    ) -> np.ndarray:
        """Produce chunk rows ``[start, start + k)`` of a pipeline plan.

        Contract v2 (DESIGN.md §4.3): the chunk's coins are one
        ``(k, L)`` block over the section's ``L`` eligible nodes — the
        columns whose ``col_probs`` factor is nonzero — drawn into the
        coin field's reused scratch and thresholded without a ``(k,
        n)`` float threshold matrix. When ``col_thresh`` is ``None``
        the eligible column factors are all 1 (the Decay/MIS case) and
        the whole block compares against the row probabilities alone;
        otherwise one reused ``(L,)`` threshold row per step. Both
        produce the emitter's mask bits exactly (see
        :class:`~repro.radio.network.PipelineForm`).
        """
        n = self.network.n
        rp = form.row_probs[start : start + k]
        block = form.coins.draw(k, eligible.size)
        bits = np.empty((k, eligible.size), dtype=bool)
        if col_thresh is None:
            np.less(block, rp[:, None], out=bits)
        else:
            thresh = np.empty(eligible.size, dtype=np.float64)
            for t in range(k):
                np.multiply(col_thresh, rp[t], out=thresh)
                np.less(block[t], thresh, out=bits[t])
        self.network._bump_kernel("pipeline-numpy", k)
        return scatter_rows(bits, eligible, n)

    def _execute_stream_pipeline(
        self,
        plan: TransmitPlan,
        sections: tuple[PlanSection, ...],
        form: PipelineForm,
    ) -> None:
        """The fused coin+fault+delivery twin of :meth:`_execute_stream`.

        Per chunk: produce the mask bits straight from the separable
        thresholds (:meth:`_pipeline_masks`), apply the fault transform
        **in place** on the one mask array
        (:meth:`~repro.faults.state.FaultState.transform_window_inplace`),
        deliver to a sparse ``(step, node, sender)`` reception triple
        (:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo` — no
        ``(k, n)`` hear slab), silence deaf receptions point-wise, and
        fold through the section's ``consume_coo``. Charging, trace
        accounting, fault counters, and rng consumption are identical
        to the classic path chunk for chunk — the pipeline equivalence
        suite pins all of it bit-for-bit. Each stage feeds its own
        ``phase_timing`` bucket.
        """
        network = self.network
        timing = network.phase_timing
        fault_state = network._fault_state
        delivery = network._delivery_kernels()
        chunk = default_stream_chunk(
            network.n, self._resolved_chunk_steps()
        )
        base = 0
        for section in sections:
            if section.phase is not None:
                network.trace.enter_phase(section.phase)
            t0 = perf_counter()
            col_probs = np.asarray(form.col_probs(base), dtype=np.float64)
            # Per-section column analysis: the nonzero column factors
            # are the section's eligible nodes (the coin draw's width);
            # an all-ones eligible factor lets the mask stage threshold
            # the whole block at once; and a compact eligible list lets
            # the delivery stage scan transmitters compact (faults only
            # clear bits, so the promise survives the transform).
            eligible = np.flatnonzero(col_probs)
            col_thresh = col_probs[eligible]
            if bool((col_thresh == 1.0).all()):
                col_thresh = None
            cols = eligible if 2 * eligible.size <= network.n else None
            timing["plan"] += perf_counter() - t0
            done = 0
            while done < section.width:
                k = min(chunk, section.width - done)
                start = base + done
                t0 = perf_counter()
                masks = self._pipeline_masks(
                    form, start, k, eligible, col_thresh
                )
                timing["coins"] += perf_counter() - t0
                self._charge(k)
                t1 = perf_counter()
                if fault_state is not None:
                    fault_state.transform_window_inplace(
                        masks, network.steps_elapsed
                    )
                t2 = perf_counter()
                timing["faults"] += t2 - t1
                steps, nodes, senders = delivery.execute_coo(
                    masks, self.delivery, counters=network.kernel_use,
                    cols=cols,
                )
                receptions = int(steps.size)
                if fault_state is not None and receptions:
                    deaf = fault_state.deaf_at(
                        steps + network.steps_elapsed, nodes
                    )
                    dropped = int(np.count_nonzero(deaf))
                    if dropped:
                        keep = ~deaf
                        steps = steps[keep]
                        nodes = nodes[keep]
                        senders = senders[keep]
                        receptions -= dropped
                        fault_state.note_silenced(dropped)
                t3 = perf_counter()
                timing["deliver"] += t3 - t2
                network._account_window(masks, receptions)
                section.consume_coo(k, steps, nodes, senders)
                timing["commit"] += perf_counter() - t3
                done += k
            network.residual_stats["full_steps"] += section.width
            base += section.width

    def _execute_stream_restricted(
        self,
        plan: TransmitPlan,
        sections: tuple[PlanSection, ...],
        ctx: ResidualContext,
    ) -> None:
        """The column-restricted twin of :meth:`_execute_stream`.

        Chunks are produced compact (``plan.masks_at`` over the member
        columns — same rng consumption as the full draw), fault-masked
        compact (global-id-keyed transforms), executed on the residual
        kernels, and folded compact through each section's
        ``consume_at`` — with senders translated back to global ids
        first, so protocol state never sees a local index. Accounting
        is identical to the full path: intended masks are False outside
        the members, so compact popcounts *are* the global popcounts.
        """
        network = self.network
        timing = network.phase_timing
        members = ctx.members
        k_r = ctx.k
        chunk = default_stream_chunk(
            max(1, k_r), self._resolved_chunk_steps(k_r)
        )
        stats = network.residual_stats
        use_coo = self._coo_fold_ok(sections)
        base = 0
        for section in sections:
            if section.phase is not None:
                network.trace.enter_phase(section.phase)
            done = 0
            while done < section.width:
                k = min(chunk, section.width - done)
                start = base + done
                t0 = perf_counter()
                intended = np.asarray(
                    plan.masks_at(start, start + k, members)
                )
                timing["coins"] += perf_counter() - t0
                if intended.shape != (k, k_r) or (
                    intended.dtype != np.bool_
                ):
                    raise ProtocolError(
                        f"masks_at produced shape {intended.shape} "
                        f"dtype {intended.dtype} for steps "
                        f"[{start}, {start + k}) over {k_r} members; "
                        f"expected bool ({k}, {k_r})"
                    )
                self._charge(k)
                if use_coo:
                    self._execute_restricted_chunk_coo(
                        intended, ctx, section
                    )
                    stats["restricted_steps"] += k
                    done += k
                    continue
                t0 = perf_counter()
                slab = self._execute_restricted_chunk(intended, ctx)
                timing["deliver"] += perf_counter() - t0
                stats["restricted_steps"] += k
                t0 = perf_counter()
                self._consume_restricted_slab(
                    slab, intended, ctx, section
                )
                timing["commit"] += perf_counter() - t0
                done += k
            base += section.width

    def _execute_restricted_chunk(
        self, intended: np.ndarray, ctx: ResidualContext
    ) -> np.ndarray:
        """Fault transform + kernels + deaf silencing + sender
        translation + accounting for one compact chunk; returns the
        compact hear slab with **global** sender ids."""
        network = self.network
        k = intended.shape[0]
        hear = np.full((k, ctx.k), NO_SENDER, dtype=np.int64)
        fault_state = network._fault_state
        if fault_state is None:
            effective = intended
            receptions = ctx.kernels.execute(
                intended, hear, self.delivery,
                counters=network.kernel_use,
            )
        else:
            effective, deaf = fault_state.transform_window(
                intended, network.steps_elapsed, cols=ctx.members
            )
            receptions = ctx.kernels.execute(
                effective, hear, self.delivery,
                counters=network.kernel_use,
            )
            silenced = deaf & (hear != NO_SENDER)
            n_silenced = int(np.count_nonzero(silenced))
            if n_silenced:
                hear[silenced] = NO_SENDER
                receptions -= n_silenced
                fault_state.note_silenced(n_silenced)
        got = hear != NO_SENDER
        if got.any():
            hear[got] = ctx.members[hear[got]]
        network._account_window(effective, receptions)
        return hear

    def _execute_restricted_chunk_coo(
        self,
        intended: np.ndarray,
        ctx: ResidualContext,
        section: PlanSection,
    ) -> None:
        """Fused (COO) twin of :meth:`_execute_restricted_chunk`.

        Same compact chunk, but: the fault transform mutates the
        intended masks in place, the residual kernels return the
        receptions as a ``(step, local, sender_local)`` triple instead
        of filling a compact hear slab, local ids translate to global
        through ``ctx.members`` (the restricted closure guarantees
        every hearer of a member transmission is itself a member, so
        the compact triple covers *all* receptions — trace totals
        match the full path), and the fold is the section's
        ``consume_coo``. Deaf silencing is point-wise on the global
        ``(step, node)`` pairs — identical drops, identical counters.
        """
        network = self.network
        timing = network.phase_timing
        fault_state = network._fault_state
        k = intended.shape[0]
        t0 = perf_counter()
        if fault_state is not None:
            fault_state.transform_window_inplace(
                intended, network.steps_elapsed, cols=ctx.members
            )
        t1 = perf_counter()
        timing["faults"] += t1 - t0
        steps, local, senders_local = ctx.kernels.execute_coo(
            intended, self.delivery, counters=network.kernel_use
        )
        nodes = ctx.members[local]
        senders = ctx.members[senders_local]
        receptions = int(steps.size)
        if fault_state is not None and receptions:
            deaf = fault_state.deaf_at(
                steps + network.steps_elapsed, nodes
            )
            dropped = int(np.count_nonzero(deaf))
            if dropped:
                keep = ~deaf
                steps = steps[keep]
                nodes = nodes[keep]
                senders = senders[keep]
                receptions -= dropped
                fault_state.note_silenced(dropped)
        t2 = perf_counter()
        timing["deliver"] += t2 - t1
        network._account_window(intended, receptions)
        section.consume_coo(k, steps, nodes, senders)
        timing["commit"] += perf_counter() - t2

    def _consume_restricted_slab(
        self,
        slab: np.ndarray,
        intended: np.ndarray,
        ctx: ResidualContext,
        section: PlanSection,
    ) -> None:
        """Fold one restricted slab (hook for the validator)."""
        section.consume_at(slab, ctx.members)

    def _consume_stream_slab(
        self,
        slab: np.ndarray,
        masks: np.ndarray,
        consume: Any,
    ) -> None:
        """Fold one executed stream slab (hook for the validator)."""
        consume(slab)

    def run(self, schedule: ProtocolSchedule) -> Any:
        """Execute ``schedule`` to completion and return its result.

        The emitter's ``StopIteration`` value is the protocol result —
        emitters ``return`` it like any generator.

        Wall time spent *inside* the emitter (mask construction,
        protocol state folds between segments) accrues to the
        network's ``phase_timing["plan"]`` bucket; segment execution
        fills the other buckets (streamed windows per stage, decision
        steps and materialized windows as ``"deliver"``).
        """
        timing = self.network.phase_timing
        reply: Any = None
        while True:
            t_plan = perf_counter()
            try:
                segment = schedule.send(reply)
            except StopIteration as stop:
                return stop.value
            finally:
                timing["plan"] += perf_counter() - t_plan
            if isinstance(segment, ObliviousWindow):
                self._charge(segment.masks.shape[0])
                t0 = perf_counter()
                reply = self._execute_window(segment.masks)
                timing["deliver"] += perf_counter() - t0
            elif isinstance(segment, StreamedWindow):
                if segment.consume is None and segment.sections is None:
                    raise ProtocolError(
                        "schedule yielded a StreamedWindow without a "
                        "consume callback; generator-form emitters must "
                        "bind one (plan/commit sources get theirs from "
                        "segment_schedule)"
                    )
                self._execute_stream(segment)
                reply = None
            elif isinstance(segment, DecisionStep):
                self._charge(1)
                t0 = perf_counter()
                reply = self._execute_step(segment.mask)
                timing["deliver"] += perf_counter() - t0
            elif isinstance(segment, TracePhase):
                self.network.trace.enter_phase(segment.name)
                reply = None
            else:
                raise ProtocolError(
                    f"schedule yielded a non-segment: {segment!r}"
                )

    def run_segments(
        self, source: SegmentProtocol, rng: np.random.Generator
    ) -> Any:
        """Drive a plan/commit source to completion on this runner."""
        return self.run(segment_schedule(source, rng))


def run_schedule(
    network: RadioNetwork,
    schedule: ProtocolSchedule,
    max_steps: int | None = None,
    delivery: str = "auto",
    chunk_steps: int | None = None,
    mem_budget: int | None = None,
    restrict: str = "auto",
) -> Any:
    """One-shot convenience: ``WindowedRunner(network, ...).run(...)``."""
    return WindowedRunner(
        network,
        max_steps=max_steps,
        delivery=delivery,
        chunk_steps=chunk_steps,
        mem_budget=mem_budget,
        restrict=restrict,
    ).run(schedule)


def segment_schedule(
    source: SegmentProtocol, rng: np.random.Generator
) -> ProtocolSchedule:
    """Drive a :class:`SegmentProtocol` as a generator-form schedule.

    ``plan`` and ``commit`` alternate with nothing in between — the
    degenerate (single-stream) interleaving, under which the plan/commit
    form is trivially equivalent to the generator form. Returns
    ``source.result()``.

    Streamed windows
    (:class:`~repro.engine.segments.StreamedWindow`) planned without a
    ``consume`` callback — the
    :class:`~repro.engine.streaming.StreamingSegmentProtocol` form —
    have their chunks routed to the source's ``commit(hear_chunk)``,
    one call per executed chunk in step order; no trailing whole-window
    commit follows (there is no materialized reply to deliver).
    """
    while True:
        segment = source.plan(rng)
        if segment is None:
            return source.result()
        if isinstance(segment, TracePhase):
            yield segment
            source.commit(None)
        elif isinstance(segment, StreamedWindow):
            if segment.consume is None and segment.sections is None:
                segment = dataclasses.replace(
                    segment, consume=source.commit
                )
            yield segment
        else:
            reply = yield segment
            source.commit(reply)


def protocol_schedule(
    protocol: Any,
    rng: np.random.Generator,
    steps: int | None = None,
) -> ProtocolSchedule:
    """Adapt a legacy :class:`~repro.radio.protocol.Protocol` object.

    Yields one :class:`DecisionStep` per protocol step (every legacy
    step is conservatively treated as adaptive) until the protocol
    finishes — or for exactly ``steps`` steps, whichever comes first,
    mirroring :func:`repro.radio.protocol.run_steps`. Because the
    adapter calls ``transmit_mask`` and ``observe`` in exactly the
    step-wise drivers' order, running it on a :class:`WindowedRunner`
    is bit-identical to :func:`~repro.radio.protocol.run_steps` on the
    same seed. Returns ``protocol.result()`` when the protocol
    finished, else ``None``.
    """
    if steps is not None and steps < 0:
        raise ProtocolError(f"steps must be >= 0, got {steps}")
    taken = 0
    while not protocol.finished and (steps is None or taken < steps):
        hear_from = yield DecisionStep(protocol.transmit_mask(rng))
        protocol.observe(hear_from)
        taken += 1
    return protocol.result() if protocol.finished else None


class ProtocolSegmentSource(SegmentProtocol):
    """Plan/commit lift of a legacy :class:`~repro.radio.protocol.Protocol`.

    Each ``plan`` call produces the protocol's next transmit mask as a
    width-1 :class:`~repro.engine.segments.ObliviousWindow`; ``commit``
    feeds the delivered ``hear_from`` row to ``observe``. Because plan
    is only ever called at a clean frontier, ``transmit_mask`` and
    ``observe`` run at exactly the causal points the step-wise drivers
    would call them — the same guarantee :func:`protocol_schedule`
    gives, now in the form the :func:`~repro.engine.mux.multiplex`
    combinator can zip.

    Parameters
    ----------
    protocol:
        The protocol to lift.
    steps:
        Optional step bound, mirroring :func:`protocol_schedule`'s
        ``steps``. For a *deterministic-length* protocol, pass its exact
        step count: :meth:`steps_remaining` then reports the exact
        remainder, which is what entitles the multiplexer to batch past
        the reference drivers' per-step termination checks. Passing a
        ``steps`` larger than the protocol's true length is safe only
        outside the multiplexer (the protocol's ``finished`` flag still
        ends the stream, but the remainder estimate goes stale).
    """

    def __init__(self, protocol: Any, steps: int | None = None) -> None:
        super().__init__(protocol.n)
        if steps is not None and steps < 0:
            raise ProtocolError(f"steps must be >= 0, got {steps}")
        self.protocol = protocol
        self.steps = steps
        self._planned = 0
        self._awaiting_commit = False

    def plan(self, rng: np.random.Generator) -> ObliviousWindow | None:
        if self._awaiting_commit:
            raise ProtocolError(
                "ProtocolSegmentSource.plan() before the previous step "
                "was committed"
            )
        if self.protocol.finished or (
            self.steps is not None and self._planned >= self.steps
        ):
            return None
        mask = self.protocol.transmit_mask(rng)
        self._planned += 1
        self._awaiting_commit = True
        return ObliviousWindow(np.asarray(mask)[None, :])

    def commit(self, reply: np.ndarray) -> None:
        if not self._awaiting_commit:
            raise ProtocolError(
                "ProtocolSegmentSource.commit() without a planned step"
            )
        self.protocol.observe(reply[0])
        self._awaiting_commit = False

    def steps_remaining(self) -> int | None:
        if self.protocol.finished:
            return 0
        if self.steps is not None:
            return self.steps - self._planned
        return None

    def result(self) -> Any:
        return self.protocol.result() if self.protocol.finished else None


__all__ = [
    "DELIVERY_MODES",
    "ProtocolSegmentSource",
    "WindowedRunner",
    "protocol_schedule",
    "run_schedule",
    "segment_schedule",
]
