"""The window-delivery kernels: one exact kernel set over raw CSR.

:class:`DeliveryKernels` executes blocks of oblivious radio steps — a
boolean ``(w, n)`` transmit-mask block — against bare
``(indptr, indices)`` arrays, so the same density-adaptive routing and
the same exact integer arithmetic serve *any* CSR: the full adjacency
(every :class:`~repro.radio.RadioNetwork` window delegates here) or a
residual sub-graph built by
:meth:`~repro.graphs.context.GraphContext.induced_csr` when a
protocol's live set has collapsed (:mod:`repro.engine.residual`).

Every kernel returns clean receptions as ``(step, node, sender)`` int64
triples (:meth:`DeliveryKernels.execute_coo`); slab delivery into a
``(w, n)`` hear matrix (:meth:`DeliveryKernels.execute`) is that triple
plus one scatter. Each kernel computes exact small-integer sums in
float64, so every routing decision yields the same bits — the step-wise
:meth:`~repro.radio.RadioNetwork.deliver` matvec and the brute-force
reference in the tests are the independent oracles (DESIGN.md §7).

Degree-dependent routing state (max/min degree for the auto router's
output-size pre-emption, the dense packing bound) is **recomputed from
the CSR handed in**, never inherited from a parent graph: a residual
sub-graph's degrees are what its routing decisions must use (inherited
extremes would over-route shrunken graphs dense and can violate the
packing bound's premise in the other direction).

The runner's one streamed-chunk loop
(:meth:`~repro.engine.runner.WindowedRunner._execute_stream`) feeds
every chunk, under every ``delivery`` mode, to
:meth:`DeliveryKernels.execute_coo` directly — no ``(k, n)`` hear slab
unless a slab-only fold asks for one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..radio.errors import ProtocolError
from ..radio.network import DELIVERY_MODES

#: Rows whose transmit-mask popcount density (``popcount / n``) reaches
#: this fraction route through the dense matmul under ``mode="auto"``.
#: Rationale: the sparse product pays COO materialization and index
#: juggling per output entry, and its output stops being sparse as soon
#: as a few percent of nodes transmit on a non-trivial graph — the
#: measured crossover against the packed one-real-matmul dense path
#: sits near density 0.03-0.05 across UDG densities at ``n = 2000``
#: (calibrated in ``bench_p3_engine``; EstimateEffectiveDegree's
#: ``p ~ 0.5`` levels are the canonical dense-regime rows). Both paths
#: are exact small-integer sums, so the threshold is a performance
#: knob, never a semantics knob.
DENSE_ROW_DENSITY = 0.05

#: Estimated bytes per COO output entry of the sparse window product
#: (the product's value plus the coordinate arrays scipy materializes).
#: Used by the auto router's pre-emptive output-size estimate.
SPARSE_COO_ENTRY_BYTES = 32

#: Bytes per dense (listener, step) cell of the packed dense kernel at
#: peak (float64 right-hand side, output, and unpacked counts).
DENSE_WINDOW_CELL_BYTES = 24

#: The auto router pre-empts the sparse product only when its
#: estimated COO output would outweigh the packed dense cells by this
#: factor. Memory parity alone (factor 1) is the wrong flip point:
#: the sparse product's *time* scales with the transmitters' degree
#: sum while the dense kernel's scales with the full adjacency, so in
#: the band just past parity sparse is still several times faster at
#: comparable memory. At 8x the projected COO output is a genuine
#: blow-up — the regime the streaming cost model cannot absorb (p ~
#: 0.5 G(n, p): few transmitters, ~n/2 neighbors each) — and the
#: measured time gap has closed (calibrated against the
#: ``bench_p3_engine`` dense-block floor on mid-density graphs and
#: the ``tests/test_dense_routing.py`` budget regression on dense
#: ones). Routing is exact either way; this trades only speed for
#: bounded memory.
SPARSE_PREEMPT_FACTOR = 8.0

#: Blocks at most this wide skip the scipy sparse product and execute
#: on the index-gather kernel (:meth:`DeliveryKernels._gather_coo`):
#: for narrow windows — the width-1/width-2 joint windows the
#: multiplexed ICP path emits by the thousand — the sparse product's
#: cost is pure constructor overhead (csr/coo allocation and index-type
#: checks dwarf the actual flops), while the gather kernel is a handful
#: of numpy calls proportional to the transmitters' degree sum. Exact
#: integer sums either way; a routing knob, never a semantics knob.
GATHER_WINDOW_WIDTH = 32

def available_delivery_modes() -> tuple[str, ...]:
    """The delivery modes this process can execute: ``"auto"``,
    ``"sparse"`` and ``"dense"`` (:data:`~repro.radio.network
    .DELIVERY_MODES`)."""
    return DELIVERY_MODES


def require_delivery_mode(mode: str) -> None:
    """Refuse an unknown delivery mode, naming it and the accepted
    values — the one check the policy, the CLI, the runner and the
    network's window entry points share."""
    if mode not in DELIVERY_MODES:
        raise ProtocolError(
            f"unknown delivery mode: {mode!r} "
            f"(expected one of {DELIVERY_MODES})"
        )


def _row_popcounts(block: np.ndarray) -> np.ndarray:
    """Per-row transmitter counts of a boolean block.

    One ``count_nonzero`` per row: on rows of thousands of nodes the
    whole-row popcount is several times faster than the ``axis=1``
    reduction, which wins only on short rows, where the per-row call
    overhead dominates.
    """
    if block.shape[1] < 1024:
        return np.count_nonzero(block, axis=1)
    return np.fromiter(
        (np.count_nonzero(row) for row in block),
        dtype=np.int64,
        count=block.shape[0],
    )


class DeliveryKernels:
    """Window-delivery kernels bound to one CSR adjacency.

    Parameters
    ----------
    indptr, indices:
        The CSR row pointers and column indices of an undirected
        adjacency over ``n`` nodes (symmetric, no self-loops) — e.g.
        ``GraphContext.csr``'s arrays, or the output of
        :meth:`~repro.graphs.context.GraphContext.induced_csr`.
    n:
        Node count; ``indptr`` has ``n + 1`` entries.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, n: int
    ) -> None:
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr)
        self.indices = np.ascontiguousarray(indices)
        # Degree extremes are *recomputed* from this CSR. Residual
        # sub-graphs routed on a parent's cached extremes would
        # mis-route (stale max_degree over-triggers the spmm
        # pre-emption; a stale packing bound is unsound upward).
        self.degrees = np.diff(self.indptr).astype(np.int64)
        self.max_degree = int(self.degrees.max()) if self.n else 0
        self.min_degree = int(self.degrees.min()) if self.n else 0
        self._ids1 = np.arange(self.n, dtype=np.float64) + 1.0
        self.dense_pack_ok = (
            self.max_degree * (1.0 + self.n * (self.n + 1.0)) < 2.0**53
        )
        self._adj: sp.csr_array | None = None
        self._adj_complex: sp.csr_array | None = None
        # Scratch for the packed-modulus dense kernel: the value
        # vector is a pure function of n, the rhs slab is reused
        # across equal-width blocks (contents are fully rewritten
        # every call).
        self._packed_vals: np.ndarray | None = None
        self._dense_rhs: np.ndarray | None = None

    # -- lazy matrix forms --------------------------------------------

    def _matrix(self) -> sp.csr_array:
        if self._adj is None:
            data = np.ones(self.indices.shape[0], dtype=np.float64)
            self._adj = sp.csr_array(
                (data, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._adj

    def _complex_matrix(self) -> sp.csr_array:  # pragma: no cover
        # Only the complex fallbacks past the 2^53 packing bound use it.
        if self._adj_complex is None:
            self._adj_complex = self._matrix().astype(np.complex128)
        return self._adj_complex

    # -- routing ------------------------------------------------------

    @staticmethod
    def _transmitters(
        block: np.ndarray, cols: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The block's ``(tx_step, tx_node)`` transmitter pairs, in
        ``np.nonzero`` order: row-major, columns ascending within a
        row. ``cols`` maps a compact block's columns back to global
        node ids. One flat scan plus a divmod — several times faster
        than the two-array 2-D ``np.nonzero``."""
        tx_step, tx_node = np.divmod(np.flatnonzero(block), block.shape[1])
        if cols is not None:
            tx_node = cols[tx_node]
        return tx_step, tx_node

    def _preempts(self, n_sparse: int, tx_node: np.ndarray) -> bool:
        """The output-size pre-emption: whether the popcount-sparse
        rows' transmitters ``tx_node`` have a degree sum whose
        estimated COO output (:data:`SPARSE_COO_ENTRY_BYTES` per entry
        — the sparse product's output scales with that degree sum, not
        with ``w * n``) outweighs the dense kernel's
        :data:`DENSE_WINDOW_CELL_BYTES` packed cells by
        :data:`SPARSE_PREEMPT_FACTOR`.

        Cheapest-first: the transmitter count brackets the degree sum
        between ``count * min_degree`` and ``count * max_degree``, so
        the exact degree gather only runs in the band between the two
        bounds.
        """
        flip_entries = (
            SPARSE_PREEMPT_FACTOR
            * n_sparse
            * self.n
            * (DENSE_WINDOW_CELL_BYTES / SPARSE_COO_ENTRY_BYTES)
        )
        sparse_tx = tx_node.size
        if sparse_tx * self.max_degree < flip_entries:
            return False
        if sparse_tx * self.min_degree >= flip_entries:
            return True
        return float(self.degrees[tx_node].sum()) >= flip_entries

    def _route(
        self,
        block: np.ndarray,
        row_counts: np.ndarray,
        mode: str,
        cols: np.ndarray | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """Route one mask block: ``(dense_rows, sparse_tx)``.

        ``dense_rows`` marks the rows the dense matmul executes;
        ``sparse_tx`` holds the transmitter pairs of the remaining
        rows, numbered within that sub-block, or ``None`` when every
        row routes dense. ``block`` is the mask block (compact over
        ``cols`` when given) and ``row_counts`` its per-row popcounts.

        Under ``"auto"`` rows route on popcount density
        (:data:`DENSE_ROW_DENSITY`) first, so a block whose rows are
        all dense never materializes its transmitter list; the
        popcount-sparse rows are then scanned once, and that one list
        serves both the output-size pre-emption (:meth:`_preempts`,
        which routes the whole block dense) and the sparse kernels.
        """
        w = block.shape[0]
        if mode == "dense":
            return np.ones(w, dtype=bool), None
        if mode == "sparse":
            dense = np.zeros(w, dtype=bool)
        else:
            dense = row_counts >= DENSE_ROW_DENSITY * max(1, self.n)
        if dense.all():
            return dense, None
        sparse = ~dense
        tx = self._transmitters(
            block[sparse] if dense.any() else block, cols
        )
        if mode == "auto" and self._preempts(int(sparse.sum()), tx[1]):
            return np.ones(w, dtype=bool), None
        return dense, tx

    def dense_rows(self, masks: np.ndarray) -> np.ndarray:
        """Rows of a full-width ``(w, n)`` mask block the ``"auto"``
        router sends to the dense kernel (see :meth:`_route`)."""
        dense, _ = self._route(masks, _row_popcounts(masks), "auto")
        return dense

    # -- kernels ------------------------------------------------------
    #
    # Each kernel returns clean receptions as ``(step, node, sender)``
    # int64 triples. Triple order is unspecified; the slab scatter and
    # the ``consume_coo`` folds are order-independent.

    @staticmethod
    def _empty_coo() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty

    def _gather_coo(
        self,
        masks: np.ndarray,
        tx: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index-gather kernel for narrow blocks: every transmitter's
        CSR neighbor list is gathered in one ragged vectorized slice,
        and a (step, listener) key occurring exactly once is a clean
        reception, found by sorting the flattened keys."""
        tx_step, tx_node = (
            tx if tx is not None else self._transmitters(masks)
        )
        starts = self.indptr[tx_node].astype(np.int64)
        lens = self.indptr[tx_node + 1].astype(np.int64) - starts
        total = int(lens.sum())
        if total == 0:
            return self._empty_coo()
        offsets = np.repeat(np.cumsum(lens) - lens - starts, lens)
        neighbors = self.indices[
            np.arange(total, dtype=np.int64) - offsets
        ]
        flat = np.repeat(tx_step, lens) * self.n + neighbors
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        boundary = np.empty(flat.size, dtype=bool)
        boundary[0] = True
        np.not_equal(flat[1:], flat[:-1], out=boundary[1:])
        single = boundary.copy()
        single[:-1] &= boundary[1:]
        keys = flat[single]
        senders = np.repeat(tx_node, lens)[order[single]]
        step = keys // self.n
        node = keys - step * self.n
        keep = ~masks[step, node]
        return step[keep], node[keep], senders[keep]

    def _spmm_coo(
        self,
        masks: np.ndarray,
        tx: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse-product kernel: one product of the block's sparse
        transmitter matrix against the adjacency yields every
        (listener, step) pair's transmitter count and 1-based id sum
        at once; a count of exactly one unpacks the sender."""
        w = masks.shape[0]
        tx_step, tx_node = (
            tx if tx is not None else self._transmitters(masks)
        )
        if not tx_node.size:
            return self._empty_coo()
        if self.dense_pack_ok:
            # The dense kernel's packed-modulus trick on the sparse
            # product: one float64 spmm instead of a complex128 one
            # (half the data traffic, a quarter of the multiplies).
            # Every per-listener sum is ``count + modulus * idsum1``
            # with exact-integer float terms, and ``dense_pack_ok`` is
            # precisely the bound keeping the worst such sum below
            # 2^53 — same remainder/unpack arithmetic, same exactness
            # argument, as ``_dense_coo``.
            #
            # The product runs transposed — ``rhs_T @ A`` with the
            # adjacency's symmetry — because the transmitter pairs
            # arrive row-major (step ascending, node ascending within
            # a step), which IS the canonical CSR layout of the
            # ``(w, n)`` transmitter matrix: three array wraps replace
            # the COO sort-and-convert of the ``(n, w)`` orientation.
            modulus = float(self.n + 1)
            indptr = np.zeros(w + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(tx_step, minlength=w), out=indptr[1:]
            )
            rhs_t = sp.csr_array(
                (1.0 + self._ids1[tx_node] * modulus, tx_node, indptr),
                shape=(w, self.n),
            )
            out = (rhs_t @ self._matrix()).tocoo()
            step, node = out.coords
            counts = np.remainder(out.data, modulus)
            clean = (counts == 1.0) & ~masks[step, node]
            sender = (
                np.rint((out.data[clean] - 1.0) / modulus).astype(
                    np.int64
                )
                - 1
            )
        else:  # pragma: no cover - needs a graph beyond the 2^53 bound
            # Complex form: count in the real part, 1-based id sum in
            # the imaginary part — the same exactness, componentwise.
            data = np.empty(tx_node.size, dtype=np.complex128)
            data.real = 1.0
            data.imag = self._ids1[tx_node]
            rhs = sp.csr_array(
                (data, (tx_node, tx_step)), shape=(self.n, w)
            )
            out = (self._complex_matrix() @ rhs).tocoo()
            node, step = out.coords
            counts = out.data.real
            clean = (counts == 1.0) & ~masks[step, node]
            sender = np.rint(out.data.imag[clean]).astype(np.int64) - 1
        return (
            step[clean].astype(np.int64, copy=False),
            node[clean].astype(np.int64, copy=False),
            sender,
        )

    def _dense_coo(
        self, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense-matmul kernel: one sparse-times-dense product against
        an ``(n, w)`` right-hand side, cost ``O(nnz(A) w)`` whatever the
        density. When the packing bound allows (all realistic sizes), a
        transmitting node ``v`` contributes the *real* value
        ``1 + (v + 1) M`` with modulus ``M = n + 1``: a listener's sum
        unpacks as ``count = sum mod M`` and ``idsum1 = sum div M`` —
        one real product instead of a complex one. Every quantity is an
        exact integer below 2^53 in float64, so accumulation order
        cannot change a single value."""
        masks_t = masks.T
        if self.dense_pack_ok:
            modulus = float(self.n + 1)
            vals = self._packed_vals
            if vals is None:
                vals = 1.0 + self._ids1 * modulus
                self._packed_vals = vals
            view = self._dense_rhs
            if view is None or view.shape[1] != masks.shape[0]:
                # Exact width: a sliced column view would lose C
                # contiguity and the spmm would copy it right back.
                # The old slab is released first so it never coexists
                # with its replacement.
                self._dense_rhs = None
                view = np.empty(
                    (self.n, masks.shape[0]), dtype=np.float64
                )
                self._dense_rhs = view
            np.multiply(masks_t, vals[:, None], out=view)
            out = self._matrix() @ view
            # Peak trimming: the remainder lands back in the rhs slab.
            counts = np.remainder(out, modulus, out=view)
            heard = counts == 1.0
            heard &= ~masks_t
            node, step = np.nonzero(heard)
            idsum1 = (out[node, step] - 1.0) / modulus
        else:  # pragma: no cover - needs a graph beyond the 2^53 bound
            rhs = np.where(
                masks_t, (1.0 + 1j * self._ids1)[:, None], 0.0
            )
            out = self._complex_matrix() @ rhs
            heard = (~masks_t) & (out.real == 1.0)
            node, step = np.nonzero(heard)
            idsum1 = out.imag[node, step]
        sender = np.rint(idsum1).astype(np.int64) - 1
        return step, node, sender

    def _sparse_coo(
        self,
        masks: np.ndarray,
        tx: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if masks.shape[0] <= GATHER_WINDOW_WIDTH:
            return self._gather_coo(masks, tx)
        return self._spmm_coo(masks, tx)

    # -- the routed entry points --------------------------------------

    def execute_coo(
        self,
        masks: np.ndarray,
        mode: str,
        counters: dict[str, int] | None = None,
        cols: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Execute one ``(w, n)`` mask block to a reception triple.

        Returns clean receptions as ``(step, node, sender)`` int64
        arrays (arbitrary order). ``mode`` ``"auto"`` routes per row
        (:meth:`_route`): dense rows to the packed matmul, sparse rows
        to the gather kernel (blocks at most
        :data:`GATHER_WINDOW_WIDTH` rows) or the sparse product;
        ``"sparse"`` and ``"dense"`` force those kernels. ``cols``
        (optional, sorted global indices) promises every mask column
        outside it is False (a plan's ``eligible`` hint; fault
        transforms only ever *clear* bits, so the promise survives
        them), letting the popcount and transmitter scans run over a
        compact column gather when that is meaningfully narrower than
        the full width. ``counters`` (when given) is bumped per kernel
        leg with the number of rows it executed (``coo-gather``,
        ``coo-spmm``, ``coo-dense``, ``coo-sparse-mixed``,
        ``skip-empty``), feeding ``RunReport`` delivery provenance.
        """

        def bump(name: str, rows: int) -> None:
            if counters is not None:
                counters[name] = counters.get(name, 0) + rows

        w = masks.shape[0]
        if cols is not None and 2 * cols.size > self.n:
            cols = None
        block = masks if cols is None else masks[:, cols]
        row_counts = _row_popcounts(block)
        if not row_counts.any():
            bump("skip-empty", w)
            return self._empty_coo()
        dense, tx = self._route(block, row_counts, mode, cols)
        if tx is None:
            bump("coo-dense", w)
            return self._dense_coo(masks)
        if not dense.any():
            bump(
                "coo-gather" if w <= GATHER_WINDOW_WIDTH else "coo-spmm",
                w,
            )
            return self._sparse_coo(masks, tx)
        dense_idx = np.flatnonzero(dense)
        sparse_idx = np.flatnonzero(~dense)
        bump("coo-dense", dense_idx.size)
        bump("coo-sparse-mixed", sparse_idx.size)
        d_step, d_node, d_sender = self._dense_coo(masks[dense_idx])
        s_step, s_node, s_sender = self._sparse_coo(masks[sparse_idx], tx)
        return (
            np.concatenate([dense_idx[d_step], sparse_idx[s_step]]),
            np.concatenate([d_node, s_node]),
            np.concatenate([d_sender, s_sender]),
        )

    def execute(
        self,
        masks: np.ndarray,
        hear_from: np.ndarray,
        mode: str,
        counters: dict[str, int] | None = None,
    ) -> int:
        """Execute one ``(w, n)`` mask block into ``hear_from``.

        :meth:`execute_coo` plus a scatter: writes each clean reception
        into its ``hear_from[step, node]`` cell (other cells are left
        untouched — callers pass a :data:`~repro.radio.network
        .NO_SENDER`-filled slab) and returns the reception count. No
        step accounting.
        """
        step, node, sender = self.execute_coo(masks, mode, counters)
        hear_from[step, node] = sender
        return int(step.size)


__all__ = [
    "DENSE_ROW_DENSITY",
    "DENSE_WINDOW_CELL_BYTES",
    "DeliveryKernels",
    "GATHER_WINDOW_WIDTH",
    "SPARSE_COO_ENTRY_BYTES",
    "SPARSE_PREEMPT_FACTOR",
    "available_delivery_modes",
    "require_delivery_mode",
]
