"""ECL-MST configuration and de-optimization-ladder tests."""

import dataclasses

import pytest

from repro.core.config import DEOPT_STAGE_NAMES, DEOPT_STAGES, EclMstConfig, deopt_stages


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
