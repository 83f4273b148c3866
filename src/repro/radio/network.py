"""The synchronous radio network simulator.

This is the substrate every packet-level algorithm in this package runs
on. It implements exactly the model of the paper (Section 1.1):

* time is divided into synchronous steps;
* in each step every node either **transmits** a message or **listens**;
* a listening node hears a message **iff exactly one of its neighbors
  transmits** in that step — otherwise (zero or several transmitting
  neighbors) it hears nothing;
* there is **no collision detection**: a listener cannot distinguish
  silence from a collision;
* a transmitting node hears nothing in that step (it is not listening).

The simulator is *ad-hoc faithful by convention*: it exposes global graph
knowledge (it must, to compute deliveries), but protocol implementations in
:mod:`repro.core` only consult per-node state plus what each node heard,
never the topology. Tests in ``tests/test_adhoc_discipline.py`` enforce
this for the core protocols.

Performance: the delivery engine is fully vectorized over an
int32-indexed CSR adjacency with preallocated step buffers. A single
step is **one** fused sparse product — the transmit indicator and the
id-weighted indicator are stacked into an ``(n, 2)`` right-hand side so
one pass over the adjacency yields both the per-listener transmitter
counts and the unique-sender identities. Oblivious step sequences
(masks that do not depend on intermediate receptions — Decay sweeps,
round-robin rotations, the Compete background process) go through
:meth:`RadioNetwork.deliver_window`, which executes a whole window of
steps at once on the one window-kernel set,
:class:`~repro.engine.kernels.DeliveryKernels` — density-adaptive
between an index gather / sparse product (sparse masks) and an exact
packed dense matmul (rows where a large fraction of nodes transmit,
the regime where the sparse output stops being sparse); packet-level
runs of hundreds of thousands of steps on graphs with thousands of
nodes are practical. The single-step matvec here and those kernels are
independent implementations of the one reception rule, which is what
lets each serve as the other's oracle. For windows too
wide to materialize (``n >= 10^5`` scaling runs),
:meth:`RadioNetwork.deliver_window_chunks` streams the same product as
bounded ``(chunk_steps, n)`` slabs from a lazy :class:`TransmitPlan` —
bit-identical, with peak memory a tunable instead of a function of
``w * n``. Pass a :class:`~repro.radio.trace.CheapTrace` to skip
per-step trace accounting (cheap-trace mode) in bulk workloads.

Protocols do not call these delivery entry points directly anymore:
they emit :mod:`repro.engine` schedules (oblivious windows + decision
points) and the :class:`~repro.engine.runner.WindowedRunner` routes
each segment to :meth:`RadioNetwork.deliver_window` or
:meth:`RadioNetwork.deliver` here. Both entry points are bit-identical
per step, which is what makes the engine's windowed execution exactly
equivalent to the step-wise reference loops.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

import networkx as nx
import numpy as np
import scipy.sparse as sp

from ..graphs.context import graph_context
from .errors import GraphContractError, InvalidActionError, ProtocolError
from .trace import StepTrace

#: Sentinel in ``hear_from`` arrays meaning "heard nothing this step".
NO_SENDER = -1

#: The window execution strategies :meth:`RadioNetwork.deliver_window`
#: accepts — the single source of truth the runner and the CLI import.
DELIVERY_MODES = ("auto", "sparse", "dense")


@dataclasses.dataclass
class TransmitPlan:
    """A lazily produced window of oblivious transmit masks.

    ``masks(start, stop)`` returns the boolean ``(stop - start, n)``
    mask rows for window steps ``start .. stop - 1``. The streaming
    executors (the :class:`~repro.engine.runner.WindowedRunner` chunk
    loop, :meth:`RadioNetwork.deliver_window_chunks`) call it for
    consecutive, non-overlapping intervals covering ``[0, total_steps)``
    in order, exactly once each — so a producer may draw its coins
    lazily inside ``masks`` and still consume the rng stream in the
    same order (and the same total amount) as its step-wise twin,
    whatever chunk size the executor picks: under rng contract v2 a
    chunk draws ``rng.random((stop - start, L))`` over the ``L`` nodes
    eligible to transmit (DESIGN.md §4.3). The chunk size is therefore
    a memory knob, never a semantics knob.

    **The runner owns what** ``masks`` **and** ``masks_at`` **return.**
    It applies the fault transform to each chunk in place, so a
    producer must hand out a fresh array (or one it never reads
    again), never a view of state it still holds —
    :func:`as_transmit_plan` copies its slices for exactly this reason.

    Two optional fields opt a plan into **active-set-restricted
    delivery** (:mod:`repro.engine.residual`):

    * ``support`` — a global length-``n`` bool mask covering every node
      that could transmit at *any* step of the plan (e.g. a protocol's
      live set when the plan was emitted). The runner may then execute
      the plan on the residual graph induced by ``support`` and its
      neighborhood instead of all of ``n``.
    * ``masks_at(start, stop, cols)`` — the ``cols`` columns of
      ``masks(start, stop)``, drawing exactly the coins the full call
      would (the eligible nodes are a subset of ``cols``; see
      :func:`~repro.engine.pcg.scatter_rows`). The same
      consecutive-intervals contract applies; per plan the runner
      commits to one of the two producers and never mixes them within
      an interval.

    ``eligible(start)`` is an optional column hint for full-width
    execution: the sorted global ids of every node that can transmit
    in the section starting at plan row ``start`` (read once, at the
    section start). When that set is far smaller than ``n`` — the
    second Decay section of a Radio MIS round transmits from the
    nodes that joined, a sliver of the plan's support — the delivery
    kernels scan transmitters over a compact column gather.

    Plans without these fields (or runners with restriction off)
    execute exactly as before — all three are pure opt-in
    accelerators, bit-identical by construction.
    """

    total_steps: int
    masks: Callable[[int, int], np.ndarray]
    support: np.ndarray | None = None
    masks_at: Callable[[int, int, np.ndarray], np.ndarray] | None = None
    eligible: Callable[[int], np.ndarray] | None = None


def as_transmit_plan(plan: TransmitPlan | np.ndarray) -> TransmitPlan:
    """Coerce a materialized ``(w, n)`` mask matrix to a :class:`TransmitPlan`.

    A :class:`TransmitPlan` passes through unchanged; an array becomes a
    plan that hands out **copies** of its row slices — the runner
    transforms the masks it is given in place, and the caller still
    holds the matrix.
    """
    if isinstance(plan, TransmitPlan):
        return plan
    masks = np.asarray(plan)
    return TransmitPlan(
        masks.shape[0], lambda start, stop: masks[start:stop].copy()
    )


class RadioNetwork:
    """A radio network over an undirected :class:`networkx.Graph`.

    Parameters
    ----------
    graph:
        The communication topology. Must be a non-empty undirected graph.
        Self-loops are rejected (a node interfering with itself has no
        sensible semantics in the model). Connectivity is *not* required
        here — MIS is defined on disconnected graphs — but the broadcast
        and leader election entry points check it themselves.
    trace:
        Optional :class:`StepTrace` to record activity into. A fresh one
        is created if omitted; it is available as :attr:`trace`.

    Notes
    -----
    Nodes are internally indexed ``0..n-1`` in the iteration order of
    ``graph.nodes``. :meth:`index_of` / :meth:`label_of` convert between
    user labels and internal indices; vectorized protocols work with
    indices throughout.
    """

    def __init__(
        self,
        graph: nx.Graph,
        trace: StepTrace | None = None,
        *,
        faults=None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise GraphContractError("radio network requires a non-empty graph")
        if graph.is_directed():
            raise GraphContractError(
                "the paper's model (and this simulator) is undirected; "
                "got a directed graph"
            )

        self.graph = graph
        self.n = graph.number_of_nodes()
        # The binary float64 / int32-indexed CSR adjacency comes from the
        # per-graph GraphContext cache: repeated RadioNetwork
        # constructions over one graph (Monte-Carlo trials) share one
        # adjacency build instead of repeating it.
        self._context = graph_context(graph)
        if self._context.csr.diagonal().any():
            raise GraphContractError("self-loops are not allowed")
        self._labels: list[Hashable] = list(self._context.nodelist)
        self._index: dict[Hashable, int] = {
            label: i for i, label in enumerate(self._labels)
        }
        self._adj: sp.csr_array = self._context.csr
        self._ids = np.arange(self.n, dtype=np.float64)
        # 1-based ids so id-sums of transmitting neighbors never vanish:
        # for a clean reception, sender = round(idsum1) - count = idsum1 - 1.
        self._ids1 = self._ids + 1.0
        # Preallocated (n, 2) right-hand side for the fused per-step
        # product: column 0 the transmit indicator, column 1 id-weighted.
        self._rhs2 = np.empty((self.n, 2), dtype=np.float64)
        self.degrees = self._context.degrees.copy()
        self.trace = trace if trace is not None else StepTrace()
        self.steps_elapsed = 0
        # Delivery provenance: per-kernel executed-row counters and
        # residual-restriction statistics, filled by the window router
        # and the restricted runner, surfaced through RunReport.
        self.kernel_use: dict[str, int] = {}
        self.residual_stats: dict[str, int] = {
            "rebuilds": 0,
            "restricted_steps": 0,
            "full_steps": 0,
        }
        # Per-phase wall-clock buckets (seconds), filled by the
        # windowed runner: planning/emitter time, coin generation,
        # fault transforms, delivery kernels, and reception folds.
        # Surfaced as RunReport.provenance["timing"]; reset per run()
        # alongside the counters above.
        self.phase_timing: dict[str, float] = {
            "plan": 0.0,
            "coins": 0.0,
            "faults": 0.0,
            "deliver": 0.0,
            "commit": 0.0,
        }
        # Lazy DeliveryKernels over this network's own CSR: every
        # window block executes there (repro.engine.kernels).
        self._kernels = None
        # Fault layer (repro.faults): None until a non-empty schedule is
        # installed — the disabled path is a single attribute check per
        # delivery, which is what keeps it bit-identical and overhead-free.
        self.faults = None
        self._fault_state = None
        self._fault_step: tuple[np.ndarray, np.ndarray] | None = None
        self._fault_window: tuple[np.ndarray, np.ndarray] | None = None
        if faults is not None:
            self.install_faults(faults)

    # ------------------------------------------------------------------
    # fault & churn injection (repro.faults)
    # ------------------------------------------------------------------
    def install_faults(self, schedule) -> None:
        """Install a :class:`~repro.faults.FaultSchedule` on this network.

        The schedule's transmit-/hear-mask transforms are applied between
        plan and commit inside every delivery entry point
        (:meth:`deliver`, :meth:`deliver_detect`, :meth:`deliver_window`,
        :meth:`deliver_window_chunks`), keyed on the global
        :attr:`steps_elapsed` clock — so the windowed, streamed, fused,
        validating, and step-wise reference execution paths all realize
        exactly the same fault pattern.

        Installing an **empty** schedule is a no-op (runs stay
        bit-identical to a network without one). Installation is
        idempotent for an equal schedule; installing a *different*
        schedule on a network that already has one is refused — build a
        fresh network per fault environment.
        """
        if schedule is None:
            return
        from ..faults import FaultSchedule, FaultState

        if not isinstance(schedule, FaultSchedule):
            raise ProtocolError(
                f"install_faults needs a FaultSchedule (build one with "
                f"FaultSchedule(...) or FaultSchedule.sample(...)), got "
                f"{schedule!r}"
            )
        if self.faults is not None:
            if schedule == self.faults:
                return
            raise ProtocolError(
                "a different FaultSchedule is already installed on this "
                "network; build a fresh RadioNetwork per fault schedule"
            )
        self.faults = schedule
        if not schedule.is_empty:
            self._fault_state = FaultState(schedule, self.n)

    def _execute_committed_window(
        self, masks: np.ndarray, hear_from: np.ndarray, mode: str
    ) -> tuple[np.ndarray, int]:
        """Fault transform + kernel execution + hear transform for one
        committed block; returns ``(effective_masks, receptions)``.

        The shared commit path of :meth:`deliver_window` and each
        :meth:`deliver_window_chunks` chunk: intended masks become
        effective masks at the current global step, the routed kernels
        run on the effective masks, and receptions landing on deaf
        listeners are forced to silence. Without an active fault state
        this is exactly :meth:`_execute_window_rows`.
        """
        fault_state = self._fault_state
        if fault_state is None:
            return masks, self._execute_window_rows(masks, hear_from, mode)
        effective, deaf = fault_state.transform_window(
            masks, self.steps_elapsed
        )
        receptions = self._execute_window_rows(effective, hear_from, mode)
        silenced = deaf & (hear_from != NO_SENDER)
        n_silenced = int(np.count_nonzero(silenced))
        if n_silenced:
            hear_from[silenced] = NO_SENDER
            receptions -= n_silenced
            fault_state.note_silenced(n_silenced)
        self._fault_window = (effective, deaf)
        return effective, receptions

    # ------------------------------------------------------------------
    # label <-> index conversion
    # ------------------------------------------------------------------
    def index_of(self, label: Hashable) -> int:
        """Internal index of the node with this label."""
        return self._index[label]

    def label_of(self, index: int) -> Hashable:
        """User-facing label of the node with this internal index."""
        return self._labels[index]

    def labels(self) -> list[Hashable]:
        """All node labels in internal index order."""
        return list(self._labels)

    def indices_of(self, labels: Iterable[Hashable]) -> np.ndarray:
        """Vectorized :meth:`index_of`."""
        return np.array([self._index[label] for label in labels], dtype=np.int64)

    def neighbors_of(self, index: int) -> np.ndarray:
        """Indices of the neighbors of node ``index``."""
        start, end = self._adj.indptr[index], self._adj.indptr[index + 1]
        return self._adj.indices[start:end].astype(np.int64)

    # ------------------------------------------------------------------
    # the radio step
    # ------------------------------------------------------------------
    def _validate_mask(self, transmit: np.ndarray) -> np.ndarray:
        """Shared transmit-mask validation for all delivery entry points."""
        transmit = np.asarray(transmit)
        if transmit.shape != (self.n,):
            raise InvalidActionError(
                f"transmit mask has shape {transmit.shape}, expected ({self.n},)"
            )
        if transmit.dtype != np.bool_:
            raise InvalidActionError(
                f"transmit mask must be boolean, got dtype {transmit.dtype}"
            )
        return transmit

    def _deliver_core(
        self, transmit: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One fused delivery: ``(hear_from, counts, heard)``.

        The two classic matvecs (transmitter counts and id-sums) are
        stacked into one ``(n, 2)`` right-hand side so the adjacency is
        traversed once. Column 1 uses 1-based ids, hence for a listener
        with a unique transmitting neighbor ``idsum1 = sender + 1``.
        Records the step into the trace and advances ``steps_elapsed``.
        With an installed fault schedule the intended mask is first
        transformed to the effective one (dead/sleeping/suppressed
        transmitters cleared) and receptions on deaf listeners are
        silenced — the step-wise realization of exactly the transforms
        the window paths apply in bulk.
        """
        fault_state = self._fault_state
        deaf = None
        if fault_state is not None:
            transmit, deaf = fault_state.transform_step(
                transmit, self.steps_elapsed
            )
        rhs = self._rhs2
        np.copyto(rhs[:, 0], transmit)
        np.multiply(rhs[:, 0], self._ids1, out=rhs[:, 1])
        out = self._adj @ rhs
        counts = out[:, 0]

        hear_from = np.full(self.n, NO_SENDER, dtype=np.int64)
        heard = (~transmit) & (counts == 1.0)
        hear_from[heard] = np.rint(out[heard, 1]).astype(np.int64) - 1
        if deaf is not None:
            silenced = heard & deaf
            n_silenced = int(np.count_nonzero(silenced))
            if n_silenced:
                hear_from[silenced] = NO_SENDER
                heard = heard & ~deaf
                fault_state.note_silenced(n_silenced)
            self._fault_step = (transmit, deaf)

        self.steps_elapsed += 1
        if self.trace.wants_detail:
            self.trace.record_step(
                transmissions=int(transmit.sum()), receptions=int(heard.sum())
            )
        else:
            self.trace.record_step(transmissions=0, receptions=0)
        return hear_from, counts, heard

    def deliver(self, transmit: np.ndarray) -> np.ndarray:
        """Execute one radio step given a boolean transmit mask.

        Parameters
        ----------
        transmit:
            Boolean array of length ``n``; ``True`` where the node
            transmits this step, ``False`` where it listens.

        Returns
        -------
        numpy.ndarray
            Integer array ``hear_from`` of length ``n``. For each node
            ``v``, ``hear_from[v]`` is the index of the unique transmitting
            neighbor ``v`` heard, or :data:`NO_SENDER` if ``v`` transmitted
            itself, had no transmitting neighbor, or suffered a collision
            (two or more transmitting neighbors).
        """
        transmit = self._validate_mask(transmit)
        hear_from, _, _ = self._deliver_core(transmit)
        return hear_from

    def deliver_detect(
        self, transmit: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One radio step in the *with collision detection* model variant.

        The paper's model is explicitly without collision detection
        (Section 1.1); this entry point exists for the baselines from the
        literature that *require* CD (Schneider–Wattenhofer [29],
        Dessmark–Pelc [12]) so the E13 experiment can measure what CD
        buys. Algorithms in :mod:`repro.core` never call it.

        Validation and the fused delivery product are shared with
        :meth:`deliver` — the carrier-sense vector ``busy`` is derived
        from the same transmitter counts, so CD costs no extra matvec.

        Returns
        -------
        (hear_from, busy):
            ``hear_from`` as in :meth:`deliver`; ``busy`` is a boolean
            array marking listeners that sensed energy — at least one
            transmitting neighbor, whether or not the transmission was
            clean. A CD-capable listener distinguishes silence
            (``busy`` false), clean reception (``hear_from != NO_SENDER``)
            and collision (``busy`` true, nothing heard).
        """
        transmit = self._validate_mask(transmit)
        hear_from, counts, _ = self._deliver_core(transmit)
        if self._fault_state is not None:
            # Carrier sense follows the same fault semantics as
            # reception: suppressed (but awake) transmitters sense the
            # channel like any listener, while down or jammed nodes
            # sense nothing.
            effective, deaf = self._fault_step
            busy = (~effective) & (counts >= 1.0) & ~deaf
        else:
            busy = (~transmit) & (counts >= 1.0)
        return hear_from, busy

    # ------------------------------------------------------------------
    # the batched radio window
    # ------------------------------------------------------------------
    def dense_window_rows(self, masks: np.ndarray) -> np.ndarray:
        """Rows of a window the ``auto`` router sends to the dense path.

        A boolean vector over window rows, combining two criteria:

        * **popcount density** — rows whose transmit popcount density
          reaches :data:`~repro.engine.kernels.DENSE_ROW_DENSITY` (most
          (listener, step) pairs hear energy, so the sparse output
          stops being sparse);
        * **output-size pre-emption** — when the remaining
          popcount-sparse rows' transmitters have a degree sum whose
          estimated COO output would outweigh the dense kernel's packed
          cells by :data:`~repro.engine.kernels.SPARSE_PREEMPT_FACTOR`,
          the whole block routes dense. This is what keeps a streamed
          chunk inside the
          :data:`~repro.engine.streaming.STREAM_CELL_BYTES` cost model
          on very dense graphs (few transmitters, huge degrees — the
          regime where popcount alone under-routes and the COO output
          would blow a ``mem_budget``).

        Both paths are exact small-integer sums, so routing is a
        performance/memory knob, never a semantics knob. The decision
        is the one :class:`~repro.engine.kernels.DeliveryKernels` makes
        when it executes the block; exposed for introspection
        (benchmarks, the contract suite, tests).
        """
        masks = self._validate_window_masks(np.asarray(masks))
        return self._delivery_kernels().dense_rows(masks)

    def deliver_window(
        self, masks: np.ndarray, mode: str = "auto"
    ) -> np.ndarray:
        """Execute a window of oblivious radio steps in one product.

        Semantically identical to calling :meth:`deliver` once per row of
        ``masks`` — same ``hear_from`` values, same trace totals, same
        ``steps_elapsed`` — but the whole window is computed as a single
        matrix product, which is what makes long oblivious schedules
        (Decay sweeps, round-robin rotations, background processes)
        fast. *Oblivious* means the caller could fix every mask before
        the first step executes: masks must not depend on what is heard
        inside the window.

        Two execution strategies implement the product, selected by
        ``mode``:

        * ``"sparse"`` — the index-gather kernel (narrow windows) or
          the sparse-sparse product; cost scales with the
          transmitters' degree sum plus the nonzeros of the output,
          ideal for the sparse masks of Decay ladders and slot
          schedules.
        * ``"dense"`` — an exact sparse-times-dense matmul; cost is
          ``O(nnz(A) w)`` regardless of density, which wins when most
          (listener, step) pairs hear energy and the sparse output
          stops being sparse (EstimateEffectiveDegree near ``p = 0.5``
          on dense graphs).
        * ``"auto"`` (default) — routes *per row* on mask popcounts
          (:meth:`dense_window_rows`): window steps are independent
          given their masks, so a mixed window (EstimateEffectiveDegree
          chunks straddle the whole density ladder) splits into a dense
          sub-window and a sparse sub-window, each on its better path.

        Both strategies compute exact small-integer sums in float64
        components, so the returned matrix is bit-identical whichever
        path runs — pinned per window by the contract suite.

        Parameters
        ----------
        masks:
            Boolean array of shape ``(w, n)``; row ``t`` is the transmit
            mask of window step ``t``.
        mode:
            ``"auto"``, ``"sparse"`` or ``"dense"``.

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(w, n)``: row ``t`` is exactly what
            :meth:`deliver` would have returned for ``masks[t]``.
        """
        self._check_delivery_mode(mode)
        masks = self._validate_window_masks(np.asarray(masks))
        w = masks.shape[0]
        hear_from = np.full((w, self.n), NO_SENDER, dtype=np.int64)
        if w == 0:
            return hear_from
        masks, receptions = self._execute_committed_window(
            masks, hear_from, mode
        )
        self._account_window(masks, receptions)
        return hear_from

    def _check_delivery_mode(self, mode: str) -> None:
        if mode not in DELIVERY_MODES:
            from ..engine.kernels import require_delivery_mode

            require_delivery_mode(mode)

    def _delivery_kernels(self):
        """Lazy delivery kernels bound to this network's own CSR."""
        if self._kernels is None:
            from ..engine.kernels import DeliveryKernels

            self._kernels = DeliveryKernels(
                self._adj.indptr, self._adj.indices, self.n
            )
            # Share the already-materialized adjacency (all-ones
            # float64 data over the same indptr/indices) instead of
            # letting the kernels lazily build a duplicate — at mean
            # degree n/2 that copy alone is nnz * 8 bytes, enough to
            # blow a tight streamed mem_budget.
            self._kernels._adj = self._adj
        return self._kernels

    def _validate_window_masks(self, masks: np.ndarray) -> np.ndarray:
        """Shared shape/dtype validation for window mask matrices."""
        if masks.ndim != 2 or masks.shape[1] != self.n:
            raise InvalidActionError(
                f"window masks have shape {masks.shape}, expected (w, {self.n})"
            )
        if masks.dtype != np.bool_:
            raise InvalidActionError(
                f"window masks must be boolean, got dtype {masks.dtype}"
            )
        return masks

    def _execute_window_rows(
        self, masks: np.ndarray, hear_from: np.ndarray, mode: str
    ) -> int:
        """The chunk kernel: execute one block of mask rows through the
        routed :class:`~repro.engine.kernels.DeliveryKernels`, writing
        into ``hear_from``; returns the reception count. No accounting
        — callers record the steps.
        """
        return self._delivery_kernels().execute(
            masks, hear_from, mode, counters=self.kernel_use
        )

    def _bump_kernel(self, name: str, rows: int) -> None:
        """Count executed rows per kernel leg (RunReport provenance)."""
        self.kernel_use[name] = self.kernel_use.get(name, 0) + int(rows)

    def _account_window(self, masks: np.ndarray, receptions: int) -> None:
        """Advance ``steps_elapsed`` and the trace for one executed block."""
        w = masks.shape[0]
        self.steps_elapsed += w
        if self.trace.wants_detail:
            # The exact popcount is only paid for when the trace keeps
            # it; cheap-trace bulk workloads skip the extra mask scan.
            self.trace.record_window(
                steps=w,
                transmissions=int(np.count_nonzero(masks)),
                receptions=receptions,
            )
        else:
            self.trace.record_window(steps=w, transmissions=0, receptions=0)

    def deliver_window_chunks(
        self,
        plan: TransmitPlan | np.ndarray,
        *,
        chunk_steps: int,
        mode: str = "auto",
    ) -> Iterator[np.ndarray]:
        """Execute an oblivious window as a stream of bounded chunks.

        The out-of-core form of :meth:`deliver_window`: instead of
        materializing the full ``(w, n)`` hear-window, the plan's mask
        rows are produced, executed, and yielded ``chunk_steps`` rows at
        a time — each yielded slab is the ``(w_chunk, n)`` ``hear_from``
        block of its steps, routed through the same density-adaptive
        kernels (:meth:`_execute_window_rows`) a monolithic call would
        use. Peak memory is therefore ``O(chunk_steps * n)`` plus kernel
        intermediates, independent of the window's total width.

        Bit-identity: window steps are independent given their masks and
        every kernel computes exact small-integer sums, so concatenating
        the yielded slabs reproduces ``deliver_window(masks)`` exactly —
        same ``hear_from`` values, same ``steps_elapsed``, and (because
        :class:`~repro.radio.trace.StepTrace` keeps aggregates) the same
        trace state, whatever ``chunk_steps`` is. Chunk size is a memory
        knob, never a semantics knob.

        Accounting is per chunk, as each is executed: a consumer that
        abandons the stream mid-way leaves ``steps_elapsed`` and the
        trace reflecting only the chunks actually executed (and the
        plan's remaining masks unproduced).

        Parameters
        ----------
        plan:
            A :class:`TransmitPlan` (lazy mask producer) or a
            materialized ``(w, n)`` boolean mask matrix.
        chunk_steps:
            Rows per yielded slab; at least 1. The final chunk may be
            shorter.
        mode:
            Window execution strategy per chunk, as in
            :meth:`deliver_window`.
        """
        self._check_delivery_mode(mode)
        if chunk_steps < 1:
            raise InvalidActionError(
                f"chunk_steps must be >= 1, got {chunk_steps}"
            )
        plan = as_transmit_plan(plan)
        total = plan.total_steps
        if total < 0:
            raise InvalidActionError(
                f"transmit plan has negative total_steps: {total}"
            )
        done = 0
        while done < total:
            k = min(chunk_steps, total - done)
            masks = self._validate_window_masks(
                np.asarray(plan.masks(done, done + k))
            )
            if masks.shape[0] != k:
                raise InvalidActionError(
                    f"transmit plan produced {masks.shape[0]} rows for "
                    f"steps [{done}, {done + k}), expected {k}"
                )
            hear_from = np.full((k, self.n), NO_SENDER, dtype=np.int64)
            masks, receptions = self._execute_committed_window(
                masks, hear_from, mode
            )
            self._account_window(masks, receptions)
            yield hear_from
            done += k

    def step(self, actions: Mapping[Hashable, Any]) -> dict[Hashable, Any]:
        """Label-based convenience wrapper around :meth:`deliver`.

        Parameters
        ----------
        actions:
            Mapping from node label to the message it transmits this step.
            Nodes absent from the mapping listen. Message values may be
            anything except ``None`` (``None`` would be indistinguishable
            from "heard nothing" in the return value).

        Returns
        -------
        dict
            Mapping from listener label to the message it heard; nodes
            that heard nothing are absent.
        """
        transmit = np.zeros(self.n, dtype=bool)
        messages: list[Any] = [None] * self.n
        for label, message in actions.items():
            if message is None:
                raise InvalidActionError(
                    f"node {label!r} tried to transmit None; use any other "
                    "sentinel for contentless transmissions"
                )
            i = self._index[label]
            transmit[i] = True
            messages[i] = message

        hear_from = self.deliver(transmit)
        received: dict[Hashable, Any] = {}
        for i in np.nonzero(hear_from != NO_SENDER)[0]:
            received[self._labels[i]] = messages[hear_from[i]]
        return received

    # ------------------------------------------------------------------
    # convenience graph facts (used by generators/tests, not protocols)
    # ------------------------------------------------------------------
    def neighbor_sum(self, values: np.ndarray) -> np.ndarray:
        """For each node, the sum of ``values`` over its neighbors.

        Global knowledge: this is *not* available to protocol logic in the
        ad-hoc model. It exists for instrumentation (golden-round
        tracking), oracle fidelity knobs that are explicitly documented as
        such (``oracle_degree`` in Radio MIS), and tests.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise InvalidActionError(
                f"values has shape {values.shape}, expected ({self.n},)"
            )
        return self._adj @ values

    def is_connected(self) -> bool:
        """Whether the underlying graph is connected (cached per graph)."""
        return self._context.is_connected()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RadioNetwork(n={self.n}, m={self.graph.number_of_edges()}, "
            f"steps={self.steps_elapsed})"
        )
