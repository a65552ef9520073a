"""Shared error taxonomy for the whole package.

One module, no dependencies, imported from everywhere: input problems,
verification failures, and substrate faults are distinct exception
families so callers (and the CLI's exit codes) can tell them apart.

Hierarchy::

    ReproError
    ├── GraphFormatError      (also ValueError)    — malformed input files
    │   └── BundleError                            — unreadable postmortem bundle
    ├── NotConnectedError     (also ValueError)    — MST-only code, MSF input
    ├── VerificationError     (also AssertionError) — result != serial Kruskal
    ├── DeviceFault           (also RuntimeError)  — simulated hardware fault
    ├── InvariantViolation    (also AssertionError) — online check tripped
    ├── DeadlineExceeded      (also TimeoutError)  — query deadline hit mid-run
    └── Overloaded            (also RuntimeError)  — admission control shed it

The CLI maps the families onto distinct nonzero exit codes
(:data:`EXIT_INPUT_ERROR`, :data:`EXIT_VERIFY_FAILED`,
:data:`EXIT_UNRECOVERED_FAULT`, :data:`EXIT_OVERLOADED`); ``2`` stays
argparse's usage-error code and ``1`` the generic failure (timeouts
included — a timeout is a scheduling outcome, overload is a deliberate
serving decision, so the two carry different codes).
:data:`EXIT_REPLAY_DIVERGED` is the ``repro-mst replay`` verdict code:
the bundle replayed cleanly but the re-executed outcome differs from
the recorded one — not an input problem and not a fault, a
determinism finding in its own exit family.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "BundleError",
    "NotConnectedError",
    "VerificationError",
    "DeviceFault",
    "InvariantViolation",
    "DeadlineExceeded",
    "Overloaded",
    "EXIT_INPUT_ERROR",
    "EXIT_VERIFY_FAILED",
    "EXIT_UNRECOVERED_FAULT",
    "EXIT_OVERLOADED",
    "EXIT_REPLAY_DIVERGED",
]

EXIT_INPUT_ERROR = 3
EXIT_VERIFY_FAILED = 4
EXIT_UNRECOVERED_FAULT = 5
EXIT_OVERLOADED = 6
EXIT_REPLAY_DIVERGED = 7


class ReproError(Exception):
    """Base class of every error this package raises deliberately."""


class GraphFormatError(ReproError, ValueError):
    """An input graph file or edge array is malformed.

    Raised with enough context to find the problem (path, line number,
    offending value) instead of letting numpy produce garbage arrays or
    an IndexError deep inside CSR construction.
    """


class BundleError(GraphFormatError):
    """A postmortem bundle is missing, malformed, or not replayable.

    A bundle is an input file like any graph file, so this rides the
    :class:`GraphFormatError` family and exits with
    :data:`EXIT_INPUT_ERROR` — distinct from
    :data:`EXIT_REPLAY_DIVERGED`, which means the bundle was fine but
    the replayed outcome disagreed with the recorded one.
    """


class NotConnectedError(ReproError, ValueError):
    """Input has multiple connected components but the code is MST-only.

    The paper reports these cells as "NC": the Jucele and Gunrock codes
    can compute MSTs but not MSFs (Section 4).
    """


class VerificationError(ReproError, AssertionError):
    """Raised when a result disagrees with the serial Kruskal reference."""


class DeviceFault(ReproError, RuntimeError):
    """A simulated transient hardware fault surfaced by the substrate.

    Carries where it happened so recovery can report it: the kernel
    being launched, the global launch index, and the fault kind.
    """

    def __init__(
        self,
        message: str,
        *,
        kernel: str = "?",
        launch_index: int = -1,
        kind: str = "unknown",
    ) -> None:
        super().__init__(message)
        self.kernel = kernel
        self.launch_index = launch_index
        self.kind = kind


class InvariantViolation(ReproError, AssertionError):
    """An online invariant check found corrupted solver state.

    ``invariant`` names the check that tripped, ``round_index`` the
    Alg.-2 round and ``kernel`` the launch (or ``"round-end"``) where
    it was detected.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "?",
        round_index: int = -1,
        kernel: str = "round-end",
    ) -> None:
        super().__init__(message)
        self.invariant = invariant
        self.round_index = round_index
        self.kernel = kernel


class DeadlineExceeded(ReproError, TimeoutError):
    """A query's deadline expired while the solver was still running.

    The service propagates per-query deadlines into
    :func:`~repro.core.eclmst.ecl_mst`, which checks them at round
    boundaries (the same cadence the invariant sweeps use) and aborts
    with this error instead of burning worker time on an answer nobody
    is waiting for.  Classified as a timeout outcome and never
    retried: past the deadline nobody waits for another attempt.
    """


class Overloaded(ReproError, RuntimeError):
    """The service shed this query to protect itself (admission control,
    queue-depth gate, or an open circuit breaker).

    Distinct from a timeout: the query was *rejected before running*,
    so the client may safely retry later — the CLI surfaces it as
    :data:`EXIT_OVERLOADED`.  ``reason`` says which gate fired
    (``"token-bucket"``, ``"queue-depth"``, ``"breaker-open"``,
    ``"shutdown"``).
    """

    def __init__(self, message: str, *, reason: str = "overload") -> None:
        super().__init__(message)
        self.reason = reason
