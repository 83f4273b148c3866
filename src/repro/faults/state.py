"""Realized fault state: the mask transforms behind a schedule.

A :class:`FaultState` is built once per network from a non-empty
:class:`~repro.faults.schedule.FaultSchedule` and applied by the
delivery layer (:meth:`RadioNetwork._deliver_core`,
:meth:`RadioNetwork.deliver_window`,
:meth:`RadioNetwork.deliver_window_chunks`, and the runner's
streamed-chunk loop through :meth:`FaultState.transform_window_inplace`
and :meth:`FaultState.deaf_at`) between plan and commit:

* :meth:`transform_window` turns a window of **intended** transmit
  masks into the **effective** masks the channel sees (dead, sleeping,
  not-yet-joined, coin-suppressed, and energy-exhausted transmitters
  are cleared) and returns the matching **deaf** mask (listeners that
  hear silence this step: down nodes plus jammed regions);
* the delivery layer then forces ``hear_from`` to silence wherever a
  reception landed on a deaf listener.

Determinism contract
--------------------
Every transform is a pure function of ``(schedule, global step,
node)`` except energy depletion, which additionally carries the
per-node remaining budget forward — and the within-window depletion is
a prefix-sum, so splitting a window into chunks at *any* boundary
yields exactly the same effective masks. Transmit-probability coins
come from a stateless splitmix64-style hash of ``(schedule seed, step,
node)``, never from the protocol rng: installing a schedule cannot
perturb a protocol's own coin stream, and the monolithic, streamed,
fused, validating, and step-wise reference paths all realize the
identical fault pattern. ``clone()`` gives the validating runner's
shadow networks an in-sync copy mid-run.
"""

from __future__ import annotations

import numpy as np

from ..radio.errors import ProtocolError
from .schedule import NEVER, FaultSchedule

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)


def _splitmix(x: np.ndarray) -> np.ndarray:
    """Finalize a uint64 array splitmix64-style (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _hash_uniform(
    seed: int, steps: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Uniform [0, 1) floats keyed on (seed, step, node), stateless.

    ``steps`` is a (w, 1) and ``nodes`` a (1, k) uint64 array; the
    result broadcasts to (w, k). Counter-based, so any chunking of the
    step axis reproduces the same coins.
    """
    with np.errstate(over="ignore"):
        key = _splitmix(steps * _GOLDEN + nodes)
        key = _splitmix(key ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return (key >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _positions_in(
    cols: np.ndarray, nodes
) -> tuple[np.ndarray, np.ndarray]:
    """Local positions in sorted ``cols`` of the global ids in
    ``nodes`` that are present, paired with those global ids.

    The index translation behind every column-restricted fault
    transform: fault events stay keyed on **global** node ids (so
    coins, ledgers, and counters are identical however the runner
    restricts), and only events naming a member column touch the
    compact window.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if cols.size == 0 or nodes.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos = np.searchsorted(cols, nodes)
    ok = pos < cols.size
    ok &= cols[np.minimum(pos, cols.size - 1)] == nodes
    return pos[ok], nodes[ok]


class FaultState:
    """Mutable realization of a :class:`FaultSchedule` on ``n`` nodes.

    Holds the precomputed per-node lifetime bounds, capability
    vectors, the depleting energy ledger, and realized-event counters
    (reported in RunReport provenance). One instance per network; the
    validating runner clones it onto its shadow networks.
    """

    def __init__(self, schedule: FaultSchedule, n: int) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ProtocolError(
                f"FaultState needs a FaultSchedule, got {schedule!r}"
            )
        top = schedule.max_node()
        if top >= n:
            raise ProtocolError(
                f"fault schedule names node {top} but the network has "
                f"only {n} nodes (valid nodes are 0..{n - 1})"
            )
        self.schedule = schedule
        self.n = int(n)

        crash = np.full(n, NEVER, dtype=np.int64)
        for node, step in schedule.crashes:
            crash[node] = min(crash[node], step)
        self.crash_step = crash

        join = np.zeros(n, dtype=np.int64)
        for node, step in schedule.joins:
            join[node] = max(join[node], step)
        self.join_step = join

        self.sleeps = tuple(schedule.sleeps)
        self.jams = tuple(schedule.jams)

        tx_scale = np.ones(n, dtype=np.float64)
        for node, prob in schedule.tx_prob:
            tx_scale[node] = min(tx_scale[node], prob)
        self.tx_scale = tx_scale
        self._scaled = np.nonzero(tx_scale < 1.0)[0]

        energy = np.full(n, -1, dtype=np.int64)
        for node, budget in schedule.energy:
            energy[node] = budget if energy[node] < 0 else min(
                energy[node], budget
            )
        self._energy_init = energy
        self.energy_remaining = energy.copy()
        self._budgeted = np.nonzero(energy >= 0)[0]
        # Nodes with any lifetime bound — the only columns the fused
        # in-place transform must visit for the crash/join clears.
        self._bounded = np.nonzero((join > 0) | (crash < NEVER))[0]

        self.realized = {
            "steps_faulted": 0,
            "suppressed_transmissions": 0,
            "silenced_receptions": 0,
        }

    # ------------------------------------------------------------------
    def clone(self) -> "FaultState":
        """An independent copy carrying the current energy ledger.

        Used by the validating runner so shadow networks start from the
        primary's exact mid-run state and then advance in lockstep.
        """
        twin = FaultState(self.schedule, self.n)
        twin.energy_remaining = self.energy_remaining.copy()
        twin.realized = dict(self.realized)
        return twin

    # ------------------------------------------------------------------
    def alive_window(
        self, start: int, width: int, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """(width, k) bool: node up (joined, not crashed, not asleep)
        at each global step in ``[start, start + width)``.

        ``cols`` (sorted global node ids) restricts the columns to a
        member subset — same per-node values, compact layout.
        """
        steps = np.arange(start, start + width, dtype=np.int64)[:, None]
        join = self.join_step if cols is None else self.join_step[cols]
        crash = (
            self.crash_step if cols is None else self.crash_step[cols]
        )
        alive = (steps >= join[None, :]) & (steps < crash[None, :])
        stop_w = start + width
        for node, s0, s1 in self.sleeps:
            lo, hi = max(s0, start), min(s1, stop_w)
            if lo < hi:
                if cols is None:
                    alive[lo - start : hi - start, node] = False
                else:
                    loc, _ = _positions_in(cols, [node])
                    if loc.size:
                        alive[lo - start : hi - start, loc[0]] = False
        return alive

    def deaf_window(
        self,
        start: int,
        width: int,
        alive: np.ndarray,
        cols: np.ndarray | None = None,
    ) -> np.ndarray:
        """(width, k) bool: listeners forced to silence — down nodes
        plus jammed regions in ``[start, start + width)``; ``cols``
        restricts columns as in :meth:`alive_window`."""
        deaf = ~alive
        stop_w = start + width
        for jam in self.jams:
            lo, hi = max(jam.start, start), min(jam.stop, stop_w)
            if lo < hi:
                rows = slice(lo - start, hi - start)
                if jam.nodes is None:
                    deaf[rows, :] = True
                elif cols is None:
                    deaf[rows, list(jam.nodes)] = True
                else:
                    loc, _ = _positions_in(cols, list(jam.nodes))
                    if loc.size:
                        deaf[rows, loc] = True
        return deaf

    # ------------------------------------------------------------------
    def transform_window(
        self, masks: np.ndarray, start: int, cols: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intended (w, k) masks at global step ``start`` → effective
        masks + deaf mask; commits energy depletion and counters.

        Call exactly once per executed window/chunk, in execution
        order — energy carries across calls, everything else is
        stateless in the step index.

        ``cols`` (sorted global node ids) is the column-restricted
        form used by residual delivery: masks cover only the member
        columns, but every fault quantity stays keyed on **global**
        ids — suppression coins hash the global node id, the energy
        ledger debits global slots, jams and sleeps translate through
        member positions. A restricted window therefore realizes
        exactly the fault pattern of its full-width twin, provided the
        full-width intended masks are False outside ``cols`` (the
        residual support invariant — transmitters are always members).
        """
        width = masks.shape[0]
        alive = self.alive_window(start, width, cols)
        effective = masks & alive

        if self._scaled.size:
            if cols is None:
                loc = gids = self._scaled
            else:
                loc, gids = _positions_in(cols, self._scaled)
            sub = effective[:, loc]
            if sub.any():
                steps = np.arange(
                    start, start + width, dtype=np.uint64
                )[:, None]
                coins = _hash_uniform(
                    self.schedule.seed, steps, gids.astype(np.uint64)[None, :]
                )
                effective[:, loc] = sub & (
                    coins < self.tx_scale[gids][None, :]
                )

        if self._budgeted.size:
            if cols is None:
                loc = gids = self._budgeted
            else:
                loc, gids = _positions_in(cols, self._budgeted)
            sub = effective[:, loc]
            if sub.any():
                used = np.cumsum(sub, axis=0, dtype=np.int64)
                allowed = sub & (
                    used <= self.energy_remaining[gids][None, :]
                )
                effective[:, loc] = allowed
                self.energy_remaining[gids] -= allowed.sum(
                    axis=0, dtype=np.int64
                )

        deaf = self.deaf_window(start, width, alive, cols)
        self.realized["steps_faulted"] += int(width)
        self.realized["suppressed_transmissions"] += int(
            masks.sum() - effective.sum()
        )
        return effective, deaf

    def transform_step(
        self, transmit: np.ndarray, step: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-step form of :meth:`transform_window` (1-D in/out)."""
        effective, deaf = self.transform_window(transmit[None, :], step)
        return effective[0], deaf[0]

    # ------------------------------------------------------------------
    def transform_window_inplace(
        self, masks: np.ndarray, start: int, cols: np.ndarray | None = None
    ) -> None:
        """In-place twin of :meth:`transform_window`.

        Turns the intended ``(w, k)`` masks into the effective masks
        **in place**, visiting only fault-affected columns — no alive
        mask, no ``masks & alive`` temporary, no second ``(w, k)``
        array. Same global-id + global-clock keying, same transform
        order (lifetime/sleep clears, then suppression coins, then
        energy), same energy ledger debit, and byte-identical realized
        counters: each stage only ever *clears* bits, so summing the
        bits each stage clears equals ``masks.sum() - effective.sum()``
        of the out-of-place form. The deaf side has no window-shaped
        output here — the runner's chunk loop tests its (sparse)
        receptions point-wise with :meth:`deaf_at` instead. Call once per executed
        chunk, in execution order, exactly like
        :meth:`transform_window`.
        """
        width = masks.shape[0]
        suppressed = 0

        if self._bounded.size:
            if cols is None:
                loc = gids = self._bounded
            else:
                loc, gids = _positions_in(cols, self._bounded)
            for c, g in zip(loc, gids):
                lo = min(max(int(self.join_step[g]) - start, 0), width)
                hi = max(min(int(self.crash_step[g]) - start, width), 0)
                if lo > 0:
                    suppressed += int(masks[:lo, c].sum())
                    masks[:lo, c] = False
                if hi < width:
                    suppressed += int(masks[hi:, c].sum())
                    masks[hi:, c] = False

        stop_w = start + width
        for node, s0, s1 in self.sleeps:
            lo, hi = max(s0, start), min(s1, stop_w)
            if lo < hi:
                rows = slice(lo - start, hi - start)
                if cols is None:
                    c = node
                else:
                    pos, _ = _positions_in(cols, [node])
                    if not pos.size:
                        continue
                    c = pos[0]
                suppressed += int(masks[rows, c].sum())
                masks[rows, c] = False

        if self._scaled.size:
            if cols is None:
                loc = gids = self._scaled
            else:
                loc, gids = _positions_in(cols, self._scaled)
            sub = masks[:, loc]
            if sub.any():
                steps = np.arange(
                    start, start + width, dtype=np.uint64
                )[:, None]
                coins = _hash_uniform(
                    self.schedule.seed, steps, gids.astype(np.uint64)[None, :]
                )
                kept = sub & (coins < self.tx_scale[gids][None, :])
                suppressed += int(sub.sum() - kept.sum())
                masks[:, loc] = kept

        if self._budgeted.size:
            if cols is None:
                loc = gids = self._budgeted
            else:
                loc, gids = _positions_in(cols, self._budgeted)
            sub = masks[:, loc]
            if sub.any():
                used = np.cumsum(sub, axis=0, dtype=np.int64)
                allowed = sub & (
                    used <= self.energy_remaining[gids][None, :]
                )
                suppressed += int(sub.sum() - allowed.sum())
                masks[:, loc] = allowed
                self.energy_remaining[gids] -= allowed.sum(
                    axis=0, dtype=np.int64
                )

        self.realized["steps_faulted"] += int(width)
        self.realized["suppressed_transmissions"] += suppressed

    def deaf_at(
        self, steps: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """Point-wise deafness test: ``deaf_window`` semantics for a
        sparse set of ``(global step, global node)`` reception pairs.

        Returns the bool drop mask (True = listener hears silence).
        The runner's chunk loop filters its COO receptions with this and
        reports the drop count through :meth:`note_silenced`; the
        result matches indexing the window form —
        ``deaf_window(...)[steps - start, nodes]`` — entry for entry.
        """
        deaf = (steps < self.join_step[nodes]) | (
            steps >= self.crash_step[nodes]
        )
        for node, s0, s1 in self.sleeps:
            deaf |= (nodes == node) & (steps >= s0) & (steps < s1)
        for jam in self.jams:
            in_window = (steps >= jam.start) & (steps < jam.stop)
            if jam.nodes is None:
                deaf |= in_window
            elif in_window.any():
                deaf |= in_window & np.isin(
                    nodes, np.asarray(list(jam.nodes), dtype=np.int64)
                )
        return deaf

    def note_silenced(self, count: int) -> None:
        """Record receptions the hear transform masked to silence."""
        self.realized["silenced_receptions"] += int(count)

    # ------------------------------------------------------------------
    def uptime_fractions(self, horizon: int) -> np.ndarray:
        """Per-node fraction of ``[0, horizon)`` spent up.

        Each node knows its own uptime locally (its join/crash/sleep
        history is its own state); the vectorized form is simulator
        convenience, exactly like the protocols' batched coin flips.
        Jamming does not reduce uptime — a jammed node is up, just
        deafened.
        """
        if horizon < 1:
            raise ProtocolError(
                f"uptime horizon must be >= 1 step, got {horizon}"
            )
        up = np.clip(
            np.minimum(self.crash_step, horizon) - np.minimum(
                self.join_step, horizon
            ),
            0,
            horizon,
        ).astype(np.float64)
        for node, s0, s1 in self.sleeps:
            lo = max(s0, int(self.join_step[node]))
            hi = min(s1, int(min(self.crash_step[node], horizon)))
            if lo < hi:
                up[node] -= hi - lo
        return np.clip(up, 0.0, None) / float(horizon)


def node_uptime_fractions(network, horizon: int) -> np.ndarray:
    """Per-node uptime fractions over ``[0, horizon)`` for a network.

    All-ones when the network has no (or an empty) fault schedule —
    the fault-free limit in which every node is a perfect candidate.
    """
    state = getattr(network, "_fault_state", None)
    if state is None:
        if horizon < 1:
            raise ProtocolError(
                f"uptime horizon must be >= 1 step, got {horizon}"
            )
        return np.ones(network.n, dtype=np.float64)
    return state.uptime_fractions(horizon)


__all__ = ["FaultState", "node_uptime_fractions"]
