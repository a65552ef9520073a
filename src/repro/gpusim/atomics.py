"""Exact-semantics vectorized GPU atomics.

The three atomics ECL-MST relies on (Section 3.2):

* ``atomicMin`` on 64-bit ``weight:edge-ID`` keys — order-independent,
  so ``np.minimum.at`` reproduces the concurrent outcome *exactly*;
* ``atomicCAS`` for the disjoint-set union — handled in
  :mod:`repro.dsu` where link order matters;
* ``atomicAdd`` for worklist slot allocation — order affects only slot
  positions, never membership, so a bulk append is faithful up to a
  permutation (ECL-MST's result is independent of worklist order).

The packed-key layout gives the deterministic tie-break the paper
describes: the weight occupies the most significant 32 bits and the
edge ID the least significant 32 bits, so equal-weight edges compare by
ID.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KEY_INFINITY",
    "pack_keys",
    "unpack_weight",
    "unpack_edge_id",
    "atomic_min_u64",
    "expected_executed",
    "slot_counts",
]

# All-ones sentinel: compares greater than every real weight:id key.
KEY_INFINITY = np.uint64(0xFFFFFFFFFFFFFFFF)


def _as_unsigned(a: np.ndarray) -> np.ndarray:
    """``a`` as an unsigned array of the same width.

    Signed 32- and 64-bit inputs are reinterpreting views (values are
    non-negative), which skips the copy an ``astype`` would make.
    """
    a = np.asarray(a)
    if a.dtype.kind == "u":
        return a
    if a.dtype == np.int64:
        return a.view(np.uint64)
    if a.dtype == np.int32:
        return a.view(np.uint32)
    return a.astype(np.uint64)


def pack_keys(
    weights: np.ndarray, edge_ids: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Pack ``weight`` (high 32 bits) and ``edge ID`` (low 32) into u64.

    ``out``, when given, receives the packed keys in place (it must be
    a ``uint64`` array of matching length), so hot callers can reuse a
    scratch buffer instead of allocating per round.
    """
    w = _as_unsigned(weights)
    e = _as_unsigned(edge_ids)
    if w.size and int(w.max()) >= (1 << 31):
        raise ValueError("weights must fit in 31 bits below the sentinel")
    if out is None:
        out = np.empty(w.shape, dtype=np.uint64)
    # The explicit loop dtype widens 32-bit columns before the shift.
    np.left_shift(w, np.uint64(32), out=out, dtype=np.uint64)
    np.bitwise_or(out, e, out=out, dtype=np.uint64)
    return out


def unpack_weight(keys: np.ndarray) -> np.ndarray:
    """Recover the weight from packed keys."""
    return (np.asarray(keys, dtype=np.uint64) >> np.uint64(32)).astype(np.int64)


def unpack_edge_id(keys: np.ndarray) -> np.ndarray:
    """Recover the edge ID from packed keys."""
    return (np.asarray(keys, dtype=np.uint64) & np.uint64(0xFFFFFFFF)).astype(
        np.int64
    )


def slot_counts(idx: np.ndarray, size: int) -> np.ndarray:
    """Lanes per distinct slot of ``idx`` (slots ``< size``), in
    ascending slot order.

    A sort-free bincount wins once the batch is a decent fraction of
    the table.  Both paths yield the same counts in the same order, so
    a float summation over them is bitwise-stable either way.
    """
    if idx.size * 16 >= size:
        counts = np.bincount(idx)
        return counts[counts > 0]
    return np.unique(idx, return_counts=True)[1]


def expected_executed(counts: np.ndarray) -> int:
    """Guarded atomics executed over slots contended by ``counts``
    lanes each: the harmonic number ``H(k) ≈ ln k + γ`` per slot."""
    return int(np.ceil((np.log(counts) + 0.5772156649).sum()))


def atomic_min_u64(
    target: np.ndarray,
    idx: np.ndarray,
    keys: np.ndarray,
    *,
    guarded: bool = True,
    injector=None,
) -> tuple[int, int]:
    """Concurrent ``atomicMin(target[idx], keys)`` over all lanes.

    Returns ``(executed, skipped)`` atomic counts.  With ``guarded``
    (the paper's atomic-guard optimization) each lane first *loads*
    ``target[idx]`` and only issues the atomic when its key is lower.
    On real hardware the guard reads values already lowered by earlier
    warps of the *same* launch, so for a slot contended by ``k`` lanes
    arriving in random order the expected number of executed atomics is
    the harmonic number ``H(k) ≈ ln k + γ`` (each lane executes only if
    it holds a new running minimum).  We update the array exactly
    (``np.minimum.at``) and report that expected executed count — the
    quantity the "No Atomic Guards" ablation changes.

    ``injector`` is an optional
    :class:`~repro.resilience.faults.FaultInjector`; when present it may
    drop, duplicate, or permute the lanes of this atomic batch to model
    lost/double-applied updates and adversarial warp schedules.
    """
    idx = np.asarray(idx)
    keys = np.asarray(keys, dtype=np.uint64)
    if injector is not None:
        idx, keys = injector.perturb_atomics(idx, keys)
    if keys.size == 0:
        return 0, 0
    if guarded:
        # Lanes whose key is not below the slot's pre-pass value are
        # certainly skipped; among the rest, expected executions per
        # slot follow the harmonic law of running minima.
        would_lower = keys < target[idx]
        lanes = np.flatnonzero(would_lower)
        cand_idx = idx[lanes]
        if cand_idx.size:
            executed = expected_executed(slot_counts(cand_idx, target.size))
            np.minimum.at(target, cand_idx, keys[lanes])
        else:
            executed = 0
        skipped = int(keys.size - executed)
    else:
        executed = int(keys.size)
        skipped = 0
        np.minimum.at(target, idx, keys)
    return executed, skipped
