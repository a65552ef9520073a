"""ECL-MST configuration and de-optimization-ladder tests."""

import dataclasses

import pytest

from repro.core.config import DEOPT_STAGE_NAMES, DEOPT_STAGES, EclMstConfig, deopt_stages
from repro.resilience.policy import PolicyConfig
from repro.resilience.recovery import ResilienceConfig
from repro.service import ServiceConfig


class TestConfig:
    def test_default_is_fully_optimized(self):
        cfg = EclMstConfig()
        assert cfg.atomic_guards
        assert cfg.hybrid_parallelization
        assert cfg.filtering
        assert cfg.implicit_path_compression
        assert cfg.single_direction
        assert cfg.tuple_worklist
        assert cfg.data_driven
        assert cfg.edge_centric

    def test_paper_constants(self):
        cfg = EclMstConfig()
        assert cfg.filter_c == 4.0  # "We use c = 4 in our code"
        assert cfg.filter_samples == 20  # "randomly sample 20 edge weights"

    def test_with_functional_update(self):
        cfg = EclMstConfig()
        other = cfg.with_(filtering=False, seed=7)
        assert not other.filtering and other.seed == 7
        assert cfg.filtering  # original unchanged

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EclMstConfig().filtering = False


class TestDeoptLadder:
    def test_nine_stages_in_paper_order(self):
        stages = deopt_stages()
        assert [name for name, _ in stages] == list(DEOPT_STAGE_NAMES)
        assert DEOPT_STAGE_NAMES[0] == "ECL-MST"
        assert DEOPT_STAGE_NAMES[-1] == "Vertex-Centric"

    def test_cumulative_removal(self):
        stages = dict(deopt_stages())
        assert stages["ECL-MST"] == EclMstConfig()
        assert not stages["No Atomic Guards"].atomic_guards
        # Each later stage keeps all earlier removals.
        tb = stages["Thread-Based"]
        assert not tb.atomic_guards and not tb.hybrid_parallelization
        vc = stages["Vertex-Centric"]
        assert not any(
            [
                vc.atomic_guards,
                vc.hybrid_parallelization,
                vc.filtering,
                vc.implicit_path_compression,
                vc.single_direction,
                vc.tuple_worklist,
                vc.data_driven,
                vc.edge_centric,
            ]
        )

    def test_each_stage_removes_exactly_one_more(self):
        stages = deopt_stages()
        flags = [
            "atomic_guards",
            "hybrid_parallelization",
            "filtering",
            "implicit_path_compression",
            "single_direction",
            "tuple_worklist",
            "data_driven",
            "edge_centric",
        ]
        for i in range(1, len(stages)):
            prev = stages[i - 1][1]
            cur = stages[i][1]
            diffs = [f for f in flags if getattr(prev, f) != getattr(cur, f)]
            assert len(diffs) == 1

    def test_stage_table_is_the_default_ladder(self):
        assert list(DEOPT_STAGES.items()) == deopt_stages()
        with pytest.raises(TypeError):
            DEOPT_STAGES["ECL-MST"] = EclMstConfig()  # type: ignore[index]

    def test_custom_base_preserved(self):
        base = EclMstConfig(seed=42, filter_c=2.0)
        for _, cfg in deopt_stages(base):
            assert cfg.seed == 42
            assert cfg.filter_c == 2.0


class TestConfigSurface:
    """The exact settable surface of the serving and resilience configs.

    A new knob must show up here as a test diff.  ``pool`` is gone;
    ``window_s``, the ladder's retry/backoff/fallback switches,
    ``shed_depth_frac``, ``breaker_probes`` and ``stale_max_age_s``
    are module constants.
    """

    @staticmethod
    def names(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls)]

    def test_service_config_fields(self):
        assert self.names(ServiceConfig) == [
            "workers",
            "result_cache_size",
            "graph_cache_size",
            "max_queue_depth",
            "default_timeout_s",
            "keep_profile",
            "policy",
            "slowdown",
            "recorder",
        ]

    def test_resilience_config_fields(self):
        assert self.names(ResilienceConfig) == ["check_cadence"]

    def test_policy_config_fields(self):
        assert self.names(PolicyConfig) == [
            "admission_rate",
            "admission_burst",
            "max_retries",
            "backoff_base_s",
            "backoff_cap_s",
            "breaker_threshold",
            "breaker_cooldown_s",
            "serve_stale",
            "fresh_ttl_s",
            "degrade_serial",
            "quarantine_after",
            "seed",
        ]

    def test_pool_flag_is_gone(self, tmp_path, capsys):
        from repro.cli import main

        batch = tmp_path / "b.ndjson"
        batch.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--batch", str(batch), "--pool", "thread"])
        assert exc.value.code == 2
        assert "--pool" in capsys.readouterr().err
