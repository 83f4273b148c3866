"""Coin source of rng contract v2: one uniform per eligible node per step.

A step of a Decay block, an EstimateEffectiveDegree block, or a Radio
MIS Decay section decides only for the nodes whose transmit
probability at that step is nonzero — its **eligible** set. Contract v2
(DESIGN.md §4.3) draws one ``rng.random()`` double per eligible node,
in ascending node id, and nothing for anyone else. Within one block or
section the eligible set is fixed, so a ``k``-step chunk is exactly
``rng.random((k, L))`` for ``L`` eligible nodes, row-major — the same
stream the step-wise twins consume one ``rng.random(L)`` row at a time,
whatever chunk height the runner picks. A step on which all ``n`` nodes
are eligible draws exactly the full-width row.

:class:`CoinField` draws those compact blocks into a reused scratch
buffer; :func:`scatter_rows` places compact mask bits into full-width
or member-column masks.
"""

from __future__ import annotations

import numpy as np

from ..radio.errors import ProtocolError


class CoinField:
    """The coin source behind one streamed transmit plan.

    ``draw(rows, width)`` is ``rng.random((rows, width))`` written into
    one long-lived buffer instead of a fresh allocation per chunk: at
    streaming chunk sizes the fresh pages' first-touch faults are a
    measurable slice of the draw itself. The returned view is only
    valid until the next draw — every caller thresholds it into a bool
    mask immediately (and may mutate it in place: the values are dead
    once the mask exists).
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._scratch: np.ndarray | None = None

    def draw(self, rows: int, width: int) -> np.ndarray:
        """The next ``(rows, width)`` block of the plan's coin stream."""
        size = rows * width
        if self._scratch is None or self._scratch.size < size:
            self._scratch = np.empty(size, dtype=np.float64)
        view = self._scratch[:size].reshape(rows, width)
        self.rng.random(out=view)
        return view


def member_positions(
    members: np.ndarray, eligible: np.ndarray
) -> np.ndarray:
    """Positions of ``eligible`` inside the sorted ``members`` ids.

    Refuses by name when an eligible node is not a member: its coin
    would have nowhere to land, and the restricted execution would
    silently drop a transmitter.
    """
    pos = np.searchsorted(members, eligible)
    found = pos < members.size
    found[found] = members[pos[found]] == eligible[found]
    if not found.all():
        raise ProtocolError(
            f"masks_at: eligible transmitters "
            f"{eligible[~found][:8].tolist()} are not among the "
            f"{members.size} restricted member columns"
        )
    return pos


def scatter_rows(
    bits: np.ndarray,
    eligible: np.ndarray,
    n: int,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Place compact ``(k, L)`` eligible-node mask bits into a mask.

    With ``cols`` omitted the result is the full ``(k, n)`` mask over
    node ids; with ``cols`` (sorted member ids) it is the ``(k,
    len(cols))`` member-column mask. Every other column is False: an
    ineligible node never transmits.
    """
    if cols is None:
        pos, width = eligible, n
    else:
        pos, width = member_positions(cols, eligible), cols.size
    if pos.size == width:
        # Sorted distinct positions covering every column are the
        # identity: the compact bits already are the mask.
        return bits
    out = np.zeros((bits.shape[0], width), dtype=bool)
    out[:, pos] = bits
    return out


__all__ = ["CoinField", "member_positions", "scatter_rows"]
