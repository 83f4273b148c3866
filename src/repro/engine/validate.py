"""The contract-checking harness for the windowed engine.

The engine's speed rests on one promise: executing an
:class:`~repro.engine.segments.ObliviousWindow` as a batched matrix
product — sparse, dense, or a per-row mix — returns exactly what ``w``
sequential :meth:`~repro.radio.network.RadioNetwork.deliver` calls
would have. :class:`ValidatingRunner` turns that promise into a runtime
assertion: it executes schedules normally on its primary network while
*replaying* every window step-by-step through ``deliver`` on a shadow
network over the same graph, and re-executing it on two more shadows
through the forced-sparse and forced-dense strategies — plus the raw
sparse matrix product directly, since the public sparse strategy
routes narrow windows to the gather kernel. Streamed windows are
checked chunk by chunk on the runner's production chunk loop — full
width or residual, COO fold and point-wise deaf silencing included —
against each chunk's intended (pre-fault) masks. Any disagreement — a
single ``hear_from`` bit anywhere in the cross-comparison — raises
:class:`ObliviousnessViolationError` naming the first divergent step.

``tests/test_schedule_contract.py`` drives every in-tree schedule
emitter through this runner across the pipeline's graph families, so
the windows being checked are the ones real protocols actually emit
(mask distributions from Decay ladders, slot schedules, density
guesses), not synthetic ones. The harness is shipped, not test-only:
wrap any run in it when debugging a suspected engine/emitter mismatch.
"""

from __future__ import annotations

import numpy as np

from ..radio.errors import ProtocolError
from ..radio.network import NO_SENDER, RadioNetwork
from ..radio.trace import CheapTrace
from .kernels import GATHER_WINDOW_WIDTH
from .runner import WindowedRunner


class ObliviousnessViolationError(ProtocolError):
    """A batched window diverged from its step-by-step replay."""


class ValidatingRunner(WindowedRunner):
    """A :class:`~repro.engine.runner.WindowedRunner` that re-executes
    every window step-by-step and asserts bit-identical delivery.

    Parameters are those of :class:`~repro.engine.runner.WindowedRunner`;
    three shadow networks over ``network.graph`` are constructed
    internally (cheap: the CSR adjacency is shared through the
    per-graph context cache): one replaying every window through
    sequential :meth:`~repro.radio.network.RadioNetwork.deliver` calls,
    and one each forcing the sparse and dense window strategies.
    Shadows carry :class:`~repro.radio.trace.CheapTrace`; the primary
    network's trace and step accounting are exactly those of an
    unvalidated run.

    Attributes
    ----------
    windows_checked, steps_checked:
        Running totals of validated window segments and radio steps,
        so tests can assert the harness actually exercised something.
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
        super().__init__(
            network,
            max_steps=max_steps,
            delivery=delivery,
            chunk_steps=chunk_steps,
            mem_budget=mem_budget,
            restrict=restrict,
        )
        self.shadow_step = RadioNetwork(network.graph, trace=CheapTrace())
        self.shadow_sparse = RadioNetwork(network.graph, trace=CheapTrace())
        self.shadow_dense = RadioNetwork(network.graph, trace=CheapTrace())
        if network._fault_state is not None:
            # Under an active fault schedule the shadows must realize
            # the identical fault pattern: each gets a clone of the
            # primary's current state (same energy ledger) and starts
            # on the primary's global step clock, then advances in
            # lockstep — every window the primary executes is replayed
            # on every shadow.
            for shadow in (
                self.shadow_step, self.shadow_sparse, self.shadow_dense
            ):
                shadow.faults = network.faults
                shadow._fault_state = network._fault_state.clone()
                shadow.steps_elapsed = network.steps_elapsed
        self.windows_checked = 0
        self.steps_checked = 0

    def _compare(
        self,
        primary: np.ndarray,
        masks: np.ndarray,
    ) -> None:
        """Cross-compare one window's delivery results: the primary
        against the step replay, both sparse kernels, and the dense
        matmul."""
        if masks.shape[0] == 0:
            replay = np.empty((0, self.network.n), dtype=np.int64)
        else:
            replay = np.stack(
                [self.shadow_step.deliver(m) for m in masks]
            )
        alternates = [
            ("step replay", replay),
            ("sparse", self.shadow_sparse.deliver_window(masks, "sparse")),
            ("dense", self.shadow_dense.deliver_window(masks, "dense")),
        ]
        if masks.shape[0] <= GATHER_WINDOW_WIDTH:
            # At these widths the public "sparse" strategy routed to
            # the gather kernel, so the sparse matrix product is run
            # directly too — otherwise the width-1/width-2 joint
            # windows the multiplexed paths emit would never
            # cross-check it. (Wider windows already executed it as
            # their "sparse" leg.)
            effective, deaf = masks, None
            if (
                self.shadow_sparse._fault_state is not None
                and masks.shape[0] > 0
            ):
                # The raw product bypasses the network-level fault
                # transforms, so feed it the effective masks the sparse
                # shadow just committed for this window and apply the
                # hear transform by hand — checking the kernel under
                # exactly the channel the faulted run saw.
                effective, deaf = self.shadow_sparse._fault_window
            kernels = self.shadow_sparse._delivery_kernels()
            step, node, sender = kernels._spmm_coo(effective)
            spmm = np.full(masks.shape, NO_SENDER, dtype=np.int64)
            spmm[step, node] = sender
            if deaf is not None:
                spmm[deaf] = NO_SENDER
            alternates.append(("sparse product", spmm))
        for name, other in alternates:
            if primary.shape != other.shape:
                raise ObliviousnessViolationError(
                    f"window delivery shape {primary.shape} != "
                    f"{name} shape {other.shape}"
                )
            if not (primary == other).all():
                step, node = (
                    int(i) for i in np.argwhere(primary != other)[0]
                )
                raise ObliviousnessViolationError(
                    f"window of {masks.shape[0]} steps diverged from "
                    f"its {name} at window step {step}, node {node}: "
                    f"hear_from {primary[step, node]} != "
                    f"{other[step, node]}"
                )

    def _execute_window(self, masks: np.ndarray) -> np.ndarray:
        batched = super()._execute_window(masks)
        self._compare(batched, masks)
        self.windows_checked += 1
        self.steps_checked += masks.shape[0]
        return batched

    def _chunk_fold(self, fold, masks, cols):
        """Cross-check one streamed chunk before folding it.

        Streamed windows run through the base runner's one chunk loop —
        the production path, its in-place fault transform, COO
        delivery and point-wise deaf silencing included; this hook
        keeps a copy of the chunk's *intended* (pre-fault) masks and
        wraps the fold so the chunk's receptions are scattered to a
        full-width slab and compared against the step replay and both
        forced strategies, which realize the faults on their own. A
        residual chunk is expanded back to full width first (intended
        masks are False and receptions absent outside the member
        columns by the residual support invariant) — the direct
        assertion that active-set restriction, and its interplay with
        an installed fault schedule, realizes exactly the unrestricted
        channel.
        """
        n = self.network.n
        if cols is None:
            intended = masks.copy()
        else:
            intended = np.zeros((masks.shape[0], n), dtype=bool)
            intended[:, cols] = masks

        def checked(k, steps, nodes, senders) -> None:
            slab = np.full((k, n), NO_SENDER, dtype=np.int64)
            slab[steps, nodes] = senders
            self._compare(slab, intended)
            self.windows_checked += 1
            self.steps_checked += k
            fold(k, steps, nodes, senders)

        return checked

    def _execute_step(self, mask: np.ndarray) -> np.ndarray:
        hear_from = super()._execute_step(mask)
        self._compare(hear_from[None, :], np.asarray(mask)[None, :])
        self.steps_checked += 1
        return hear_from


__all__ = ["ObliviousnessViolationError", "ValidatingRunner"]
