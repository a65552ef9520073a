"""Query model for the batched MST service.

A :class:`Query` names one MST computation — an input source (suite
input name or graph file path), the code/system to run it on, optional
ECL-MST configuration overrides, and service-level knobs (timeout,
resilience cadence, fault injection for chaos queries).  Queries parse
from plain NDJSON dicts (:meth:`Query.from_dict`) and are validated
whole at construction — the ECL-MST config included — so a bad value
raises :class:`QueryError` before the query reaches a worker.  They
normalize to two keys:

* :meth:`Query.spec_key` — a digest of the full query *specification*
  (input source + semantics).  Concurrent queries with the same spec
  key coalesce into one execution (in-flight deduplication).
* :meth:`Query.config_hash` — a digest of the semantic knobs only
  (code, system, resolved config, verify, resilience, faults).
  Combined with the graph fingerprint digest it forms the result-cache
  key (:func:`result_key`), so two specs that resolve to the same
  weighted graph share cached results.

Labels (``id``) and scheduling knobs (``timeout_s``, ``priority``) are
deliberately excluded from both keys — they change how a query is
served, never what it computes.

The resolved config and both keys are computed once, at construction,
and kept outside the dataclass fields (so :meth:`Query.to_dict` does
not see them).  Treat a query as immutable: derive a changed one with
``dataclasses.replace``, which builds fresh keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.config import DEOPT_STAGE_NAMES, DEOPT_STAGES, EclMstConfig
from ..errors import GraphFormatError

__all__ = ["Query", "QueryError", "result_key"]

DEFAULT_SCALE = 0.06


class QueryError(GraphFormatError):
    """A malformed service query (bad JSON, unknown field, bad value).

    Subclasses :class:`~repro.errors.GraphFormatError` so the CLI's
    input-error exit code (3) covers malformed queries uniformly.
    """


_FIELDS = {
    "id",
    "input",
    "code",
    "system",
    "scale",
    "stage",
    "config",
    "timeout_s",
    "priority",
    "verify",
    "check_cadence",
    "fault_seed",
    "n_faults",
    "fault_kinds",
}
_ALIASES = {"timeout": "timeout_s"}
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(EclMstConfig))


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


@dataclass
class Query:
    """One MST computation request (see module docstring)."""

    input: str
    id: str = ""
    code: str = "ECL-MST"
    system: int = 2
    scale: float = DEFAULT_SCALE
    stage: str | None = None  # Table-5 de-optimization stage name
    config: dict = field(default_factory=dict)  # EclMstConfig overrides
    timeout_s: float | None = None
    priority: int = 0  # 0 low / 1 normal / >=2 high; sheds lowest first
    verify: bool = True  # cheap: the reference MSF is cached per graph
    check_cadence: int = 0  # resilience sweeps; 0 = unguarded
    fault_seed: int | None = None  # seeded fault injection (chaos query)
    n_faults: int = 0
    fault_kinds: tuple = ()  # fault models to inject; () = all

    def __post_init__(self) -> None:
        if not self.input or not isinstance(self.input, str):
            raise QueryError(f"query {self.id or '?'}: missing 'input'")
        if not self.id:
            self.id = self.input
        if isinstance(self.system, bool) or self.system not in (1, 2):
            raise QueryError(
                f"query {self.id}: system must be 1 or 2, got {self.system!r}"
            )
        from ..baselines.registry import RUNNERS

        if self.code not in RUNNERS:
            raise QueryError(
                f"query {self.id}: unknown code {self.code!r}; "
                f"choose from {', '.join(RUNNERS)}"
            )
        for name in ("scale", "timeout_s"):
            value = getattr(self, name)
            if name == "timeout_s" and value is None:
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or value <= 0
            ):
                raise QueryError(
                    f"query {self.id}: {name} must be a positive finite "
                    f"number, got {value!r}"
                )
        if not isinstance(self.verify, bool):
            raise QueryError(
                f"query {self.id}: verify must be true or false, "
                f"got {self.verify!r}"
            )
        for name in ("priority", "check_cadence", "fault_seed", "n_faults"):
            value = getattr(self, name)
            if name == "fault_seed" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise QueryError(
                    f"query {self.id}: {name} must be an int, got {value!r}"
                )
        if self.n_faults < 0:
            raise QueryError(
                f"query {self.id}: n_faults must be >= 0, got {self.n_faults}"
            )
        if self.stage is not None and self.stage not in DEOPT_STAGE_NAMES:
            raise QueryError(
                f"query {self.id}: unknown de-opt stage {self.stage!r}; "
                f"choose from {', '.join(DEOPT_STAGE_NAMES)}"
            )
        if (self.stage or self.config) and self.code != "ECL-MST":
            raise QueryError(
                f"query {self.id}: 'stage'/'config' apply only to ECL-MST, "
                f"not {self.code!r}"
            )
        self.fault_kinds = tuple(self.fault_kinds or ())
        if self.fault_kinds:
            from ..resilience.faults import FAULT_KINDS

            unknown = set(self.fault_kinds) - set(FAULT_KINDS)
            if unknown:
                raise QueryError(
                    f"query {self.id}: unknown fault kind(s) "
                    f"{', '.join(sorted(unknown))}; choose from "
                    f"{', '.join(FAULT_KINDS)}"
                )
        if (self.check_cadence or self.n_faults) and self.code != "ECL-MST":
            raise QueryError(
                f"query {self.id}: resilience/fault injection applies only "
                f"to ECL-MST, not {self.code!r}"
            )
        # Resolve the config now, so a bad value fails at parse time
        # as a typed input error rather than later in the worker, and
        # derive both keys from it once.  Plain attributes, not fields.
        self._config = cfg = self._resolve_config()
        semantics = {
            "code": self.code,
            "system": self.system,
            # Every config field is a scalar, so this equals asdict(cfg).
            "config": {} if cfg is None else {f: getattr(cfg, f) for f in _CONFIG_FIELDS},
            "verify": self.verify,
            "check_cadence": self.check_cadence,
            "fault_seed": self.fault_seed,
            "n_faults": self.n_faults,
            "fault_kinds": list(self.fault_kinds),
        }
        self._config_hash = _digest(semantics)
        semantics["input"] = self.input
        semantics["scale"] = repr(float(self.scale))
        self._spec_key = _digest(semantics)

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Query":
        if not isinstance(d, Mapping):
            raise QueryError(f"query must be a JSON object, got {type(d).__name__}")
        kw: dict[str, Any] = {}
        for key, value in d.items():
            key = _ALIASES.get(key, key)
            if key not in _FIELDS:
                raise QueryError(
                    f"query {d.get('id', '?')}: unknown field {key!r} "
                    f"(known: {', '.join(sorted(_FIELDS))})"
                )
            kw[key] = value
        if "config" in kw and not isinstance(kw["config"], Mapping):
            raise QueryError(
                f"query {d.get('id', '?')}: 'config' must be an object"
            )
        try:
            return cls(**kw)
        except TypeError as exc:
            raise QueryError(f"query {d.get('id', '?')}: {exc}") from None

    @classmethod
    def from_json_line(cls, line: str) -> "Query":
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise QueryError(f"malformed query JSON: {exc}") from None
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["fault_kinds"] = list(self.fault_kinds)
        return {k: v for k, v in d.items() if v not in (None, {}, "", [])}

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def _resolve_config(self) -> EclMstConfig | None:
        if self.code != "ECL-MST":
            return None
        base = DEOPT_STAGES[self.stage or "ECL-MST"]
        if not self.config:
            return base
        unknown = set(self.config) - _CONFIG_FIELDS
        if unknown:
            raise QueryError(
                f"query {self.id}: unknown config field(s) "
                f"{', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(_CONFIG_FIELDS))})"
            )
        try:
            return base.with_(**self.config)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"query {self.id}: bad config: {exc}") from None

    def resolved_config(self) -> EclMstConfig | None:
        """The full :class:`EclMstConfig` this query runs under
        (stage base + overrides), or ``None`` for baseline codes."""
        return self._config

    def config_hash(self) -> str:
        """Canonical digest of every semantic knob (not the input)."""
        return self._config_hash

    def spec_key(self) -> str:
        """Digest of the full specification: semantics + input source.

        Two queries with equal spec keys compute the same thing from
        the same source and may coalesce while in flight.
        """
        return self._spec_key


def result_key(graph_digest: str, query: Query) -> str:
    """Result-cache key: graph fingerprint × canonical config hash."""
    return f"{graph_digest}:{query.config_hash()}"
