"""Active-set-restricted (residual-graph) delivery contexts.

Late rounds of Radio MIS run on a few percent of the graph — decided
nodes are inactive, crashed nodes are silent — yet the windowed engine
still pays O(n) per step: full-width coin draws, full-width fault
masks, kernels over the full adjacency. A :class:`ResidualContext`
is the compact world the runner switches into when a streamed plan
declares its **support** (the global mask of every possible
transmitter): the member set is the support plus its one-hop
neighborhood, the adjacency is the induced sub-CSR
(:meth:`~repro.graphs.context.GraphContext.induced_csr`), and delivery
runs through :class:`~repro.engine.kernels.DeliveryKernels` bound to
that sub-graph — with degree-dependent routing state recomputed from
the residual degrees, never inherited.

Exactness: with transmitters confined to the support, every reception
and every collision in the full graph happens between members —
a non-member has no transmitting neighbor, so it hears silence in both
worlds. Coins come from the plan's ``masks_at`` producer, which under
rng contract v2 draws the same compact eligible-node block as the full
producer (:mod:`repro.engine.pcg`) and only scatters it into member
columns instead of node ids; fault transforms run column-restricted
but keyed on global ids (:meth:`~repro.faults.state.FaultState
.transform_window`). Results, steps, per-phase trace totals, realized
fault counters, and the final rng state are therefore bit-identical to
the unrestricted path — the property ``tests/test_residual.py`` and
the differential-fuzz twins pin.

Amortization: contexts are rebuilt only when the live set shrinks
enough to matter (`the live fraction halves`, per ISSUE 7) and reused
while the current support stays inside the cached member set — a
cached context stays *correct* for any subset support, so reuse is a
pure performance choice.
"""

from __future__ import annotations

import numpy as np

from ..radio.errors import ProtocolError
from .kernels import DeliveryKernels

#: Restriction knob values accepted by :class:`ExecutionPolicy` and the
#: runners: ``"auto"`` restricts when profitable, ``"off"`` never
#: restricts, ``"force"`` restricts whenever a plan allows it
#: (equivalence tests use this to pin the restricted path at any scale).
RESTRICT_MODES = ("auto", "off", "force")

#: ``auto`` considers restriction once the live fraction is at or below
#: this — above it, the one-hop closure is essentially the whole graph.
RESTRICT_LIVE_FRACTION = 0.5

#: ``auto`` declines a context whose member set still exceeds this
#: fraction of ``n``. Above it, the compacted masks/kernels/buffers no
#: longer shrink enough to pay for the restriction bookkeeping.
RESIDUAL_MAX_FRACTION = 0.5

#: A cached context is rebuilt when the live count falls below this
#: fraction of the live count it was built at ("live fraction halves").
REBUILD_FACTOR = 0.5


def validate_restrict(restrict: str) -> None:
    """Refuse unknown restriction modes (policy validator)."""
    if restrict not in RESTRICT_MODES:
        raise ProtocolError(
            f"unknown restrict mode: {restrict!r} "
            f"(expected one of {RESTRICT_MODES})"
        )


class ResidualContext:
    """The compact execution world induced by one support mask.

    Parameters
    ----------
    network:
        The full :class:`~repro.radio.RadioNetwork`.
    support:
        Global length-``n`` bool mask of every node that may transmit
        under plans executed in this context.

    Attributes
    ----------
    members:
        Sorted global ids of the residual world: the support and its
        one-hop neighborhood. Every transmitter and every possible
        hearer of one is a member.
    k:
        Member count (the restricted column width).
    kernels:
        :class:`~repro.engine.kernels.DeliveryKernels` over the induced
        sub-CSR, degrees recomputed from it.
    support_mask:
        The support this context was built from; :meth:`covers` checks
        later supports against it.
    live_at_build:
        Support popcount at build time (rebuild amortization).
    """

    def __init__(self, network, support: np.ndarray) -> None:
        support = np.asarray(support, dtype=bool)
        if support.shape != (network.n,):
            raise ProtocolError(
                f"residual support has shape {support.shape}, "
                f"expected ({network.n},)"
            )
        # One-hop closure via a single spmv: reach > 0 exactly at nodes
        # with at least one supported neighbor.
        reach = network._adj @ support.astype(np.float64)
        member_mask = support | (reach > 0.0)
        self.members = np.nonzero(member_mask)[0].astype(np.int64)
        self.k = int(self.members.size)
        sub_indptr, sub_indices = network._context.induced_csr(
            self.members
        )
        self.kernels = DeliveryKernels(sub_indptr, sub_indices, self.k)
        self.support_mask = support.copy()
        self.live_at_build = int(support.sum())

    def covers(self, support: np.ndarray) -> bool:
        """Whether ``support`` is a subset of the build-time support —
        the condition under which this context is still exact for a
        newer plan (members already contain the new transmitters and
        all their neighbors)."""
        return not bool(np.any(support & ~self.support_mask))


__all__ = [
    "REBUILD_FACTOR",
    "RESIDUAL_MAX_FRACTION",
    "RESTRICT_LIVE_FRACTION",
    "RESTRICT_MODES",
    "ResidualContext",
    "validate_restrict",
]
