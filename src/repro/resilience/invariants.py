"""Online invariant checks over live solver state.

Cheap, vectorized host-side sweeps (like the artifact's end-of-run
verify, they are not charged to the modeled runtime) that catch
corrupted :class:`~repro.core.kernels.MstState` *during* the run:

* ``parent-range``      — every parent pointer lies in ``[0, |V|)``
* ``parent-acyclic``    — pointer-doubling reaches a fixed point, so
  every vertex is root-reachable (no cycles from flipped bits)
* ``mst-edge-count``    — Borůvka adds exactly one edge per union, so
  ``#MST edges == |V| - #roots`` at every round boundary; this also
  bounds edges per component at ``|C| - 1``
* ``minedge-reset``     — after kernel 3 every reservation slot is back
  at the +infinity sentinel (reserved keys only ever decrease within a
  round and are fully reset at its end)
* ``minedge-monotonic`` — from kernel 1 through kernel 2 no reservation
  key may *increase* (per-kernel mode)
* ``minedge-valid-key`` — every live reservation unpacks to a real edge
  whose weight matches the graph (per-kernel mode)
* ``worklist-live``     — worklist entries reference in-range vertices
  and live edge IDs whose weights match the graph

Each violation raises a typed
:class:`~repro.errors.InvariantViolation` carrying the invariant name,
round, and kernel where it was detected.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvariantViolation
from ..gpusim.atomics import KEY_INFINITY, unpack_edge_id, unpack_weight
from ..obs.events import NULL_EVENTS

__all__ = ["InvariantChecker", "ROUND_INVARIANTS", "KERNEL_INVARIANTS"]

ROUND_INVARIANTS = (
    "parent-range",
    "parent-acyclic",
    "mst-edge-count",
    "minedge-reset",
    "worklist-live",
)
KERNEL_INVARIANTS = ("minedge-monotonic", "minedge-valid-key")


def _violation(name: str, detail: str, round_index: int, kernel: str):
    return InvariantViolation(
        f"invariant {name!r} violated at round {round_index} "
        f"({kernel}): {detail}",
        invariant=name,
        round_index=round_index,
        kernel=kernel,
    )


class InvariantChecker:
    """Stateful checker bound to one solver state.

    ``weight_table`` maps edge ID → weight (the driver's per-edge
    table), used to validate packed keys and worklist entries.
    """

    def __init__(self) -> None:
        self._state = None
        self._weight_table: np.ndarray | None = None
        self._minedge_snapshot: np.ndarray | None = None
        self.checks_run = 0
        # Telemetry hook (set by the RoundGuard): violations emit an
        # ``invariant.violated`` event before the typed raise, carrying
        # the guard's run/query correlation IDs.
        self.events = NULL_EVENTS

    def bind(self, state, weight_table: np.ndarray) -> None:
        self._state = state
        self._weight_table = weight_table

    def resync(self) -> None:
        """Forget kernel-level snapshots (after a rollback)."""
        self._minedge_snapshot = None

    def _emit_violation(self, exc: InvariantViolation) -> None:
        if self.events.enabled:
            self.events.emit(
                "invariant.violated",
                level="error",
                invariant=exc.invariant,
                round=exc.round_index,
                kernel=exc.kernel,
            )

    # ------------------------------------------------------------------
    # Round-boundary sweep
    # ------------------------------------------------------------------
    def check_round(self, *, round_index: int, kernel: str = "round-end") -> None:
        """Run the full cheap sweep; raises on the first violation."""
        state = self._state
        self.checks_run += 1
        try:
            self._check_parent(state.parent, round_index, kernel)
            self._check_mst_count(state, round_index, kernel)
            self._check_minedge_reset(state.min_edge, round_index, kernel)
            self._check_worklist(state, round_index, kernel)
        except InvariantViolation as exc:
            self._emit_violation(exc)
            raise
        self._minedge_snapshot = None

    def _check_parent(self, parent, round_index, kernel) -> None:
        n = parent.size
        if n == 0:
            return
        if int(parent.min()) < 0 or int(parent.max()) >= n:
            bad = int(np.flatnonzero((parent < 0) | (parent >= n))[0])
            raise _violation(
                "parent-range",
                f"parent[{bad}] = {int(parent[bad])} outside [0, {n})",
                round_index,
                kernel,
            )
        # Pointer doubling: after ceil(log2 n)+1 squarings every chain
        # has reached its root unless a cycle exists.
        f = parent
        for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
            f = f[f]
        stuck = f != parent[f]
        if stuck.any():
            bad = int(np.flatnonzero(stuck)[0])
            raise _violation(
                "parent-acyclic",
                f"vertex {bad} never reaches a root (parent cycle)",
                round_index,
                kernel,
            )

    def _check_mst_count(self, state, round_index, kernel) -> None:
        n = state.parent.size
        roots = int(np.count_nonzero(state.parent == np.arange(n)))
        edges = int(np.count_nonzero(state.in_mst))
        if edges != n - roots:
            raise _violation(
                "mst-edge-count",
                f"{edges} MST edges but {n} vertices / {roots} roots "
                f"imply exactly {n - roots} (one union per edge)",
                round_index,
                kernel,
            )

    def _check_minedge_reset(self, min_edge, round_index, kernel) -> None:
        live = min_edge != KEY_INFINITY
        if live.any():
            bad = int(np.flatnonzero(live)[0])
            raise _violation(
                "minedge-reset",
                f"min_edge[{bad}] = {int(min_edge[bad]):#x} not reset to "
                "the +infinity sentinel after kernel 3",
                round_index,
                kernel,
            )

    def _check_worklist(self, state, round_index, kernel) -> None:
        wl = state.wl.front
        if len(wl) == 0:
            return
        n = state.parent.size
        m = self._weight_table.size
        for label, arr in (("source", wl.v), ("destination", wl.n)):
            if int(arr.min()) < 0 or int(arr.max()) >= n:
                raise _violation(
                    "worklist-live",
                    f"worklist {label} endpoint outside [0, {n})",
                    round_index,
                    kernel,
                )
        if int(wl.eid.min()) < 0 or int(wl.eid.max()) >= m:
            raise _violation(
                "worklist-live",
                f"worklist edge ID outside [0, {m})",
                round_index,
                kernel,
            )
        mismatch = wl.w != self._weight_table[wl.eid]
        if mismatch.any():
            bad = int(np.flatnonzero(mismatch)[0])
            raise _violation(
                "worklist-live",
                f"worklist entry {bad} weight {int(wl.w[bad])} does not "
                f"match edge {int(wl.eid[bad])}'s weight "
                f"{int(self._weight_table[wl.eid[bad]])}",
                round_index,
                kernel,
            )

    # ------------------------------------------------------------------
    # Per-kernel probes (forced-checking mode)
    # ------------------------------------------------------------------
    def on_kernel(self, kernel: str, round_index: int) -> None:
        """Device-launch hook: snapshot after k1, validate k2, drop at k3."""
        state = self._state
        if state is None:
            return
        try:
            self._on_kernel_checks(kernel, round_index, state)
        except InvariantViolation as exc:
            self._emit_violation(exc)
            raise

    def _on_kernel_checks(self, kernel: str, round_index: int, state) -> None:
        if kernel == "k1_reserve":
            self.checks_run += 1
            self._check_minedge_keys(state, round_index, kernel)
            self._minedge_snapshot = state.min_edge.copy()
        elif kernel == "k3_reset":
            # k3 launches after resetting its slots to +inf; the round
            # sweep's ``minedge-reset`` checks it, so just drop the snapshot.
            self._minedge_snapshot = None
        elif kernel == "k2_union":
            if self._minedge_snapshot is None:
                return
            self.checks_run += 1
            grew = state.min_edge > self._minedge_snapshot
            if grew.any():
                bad = int(np.flatnonzero(grew)[0])
                raise _violation(
                    "minedge-monotonic",
                    f"min_edge[{bad}] increased from "
                    f"{int(self._minedge_snapshot[bad]):#x} to "
                    f"{int(state.min_edge[bad]):#x} after reservation",
                    round_index,
                    kernel,
                )

    def _check_minedge_keys(self, state, round_index, kernel) -> None:
        """Every live reservation must be a real edge's packed key."""
        min_edge = state.min_edge
        live = min_edge != KEY_INFINITY
        if not live.any():
            return
        keys = min_edge[live]
        eids = unpack_edge_id(keys)
        m = self._weight_table.size
        bad_eid = (eids < 0) | (eids >= m)
        if bad_eid.any():
            raise _violation(
                "minedge-valid-key",
                f"reserved key unpacks to edge ID outside [0, {m})",
                round_index,
                kernel,
            )
        mismatch = unpack_weight(keys) != self._weight_table[eids]
        if mismatch.any():
            bad = int(np.flatnonzero(mismatch)[0])
            raise _violation(
                "minedge-valid-key",
                f"reserved key for edge {int(eids[bad])} carries weight "
                f"{int(unpack_weight(keys)[bad])}, graph says "
                f"{int(self._weight_table[eids[bad]])}",
                round_index,
                kernel,
            )
