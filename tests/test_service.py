"""Service-level tests: caching, dedup, timeout, fault isolation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.service import (
    LRUCache,
    MSTService,
    Query,
    QueryError,
    ServiceConfig,
    batch_exit_code,
    execute_query,
    parse_batch_lines,
    sweep_queries,
)
from repro.service.outcome import QueryOutcome, classify_error

SCALE = 0.06
# Malformed query fields (key, value): non-finite numbers, bools where
# a number is meant, a fractional count and a non-bool verify flag.
BAD_QUERY_VALUES = (
    ("scale", float("nan")),
    ("scale", float("inf")),
    ("scale", True),
    ("timeout_s", float("nan")),
    ("n_faults", 2.5),
    ("n_faults", True),
    ("verify", "no"),
    ("system", True),
)


def q(input="internet", **kw):
    kw.setdefault("scale", SCALE)
    return Query(input=input, **kw)


def service(**kw):
    kw.setdefault("workers", 2)
    return MSTService(ServiceConfig(**kw))


# ----------------------------------------------------------------------
# Query model
# ----------------------------------------------------------------------
class TestQuery:
    def test_defaults_and_id(self):
        query = q()
        assert query.id == "internet"
        assert query.code == "ECL-MST"

    def test_rejects_unknown_field(self):
        with pytest.raises(QueryError, match="unknown field"):
            Query.from_dict({"input": "internet", "bogus": 1})

    def test_rejects_bad_json(self):
        with pytest.raises(QueryError, match="malformed query JSON"):
            Query.from_json_line("{nope")

    def test_rejects_bad_values(self):
        with pytest.raises(QueryError, match="system"):
            q(system=7)
        with pytest.raises(QueryError, match="scale"):
            q(scale=-1)
        with pytest.raises(QueryError, match="stage"):
            q(stage="No Such Stage")
        with pytest.raises(QueryError, match="only to ECL-MST"):
            q(code="qKruskal", config={"filtering": False})
        with pytest.raises(QueryError, match="fault kind"):
            q(n_faults=1, fault_kinds=["martian-ray"])
        with pytest.raises(QueryError, match="check_cadence"):
            q(check_cadence="x")
        with pytest.raises(QueryError, match="fault_seed"):
            q(fault_seed=1.5)
        with pytest.raises(QueryError, match="engine"):
            q(config={"engine": "gpu"})
        # Malformed query fields: each was accepted or failed untyped.
        for key, value in BAD_QUERY_VALUES:
            with pytest.raises(QueryError, match=key):
                Query.from_dict({"input": "internet", key: value})
        # Malformed solver-config values are typed input errors too.
        for bad in (
            {"filter_samples": 0},
            {"filter_samples": -4},
            {"seed": -1},
            {"seed": "x"},
            {"filter_c": float("nan")},
            {"filtering": "no"},
            {"hybrid_threshold": 2.5},
        ):
            with pytest.raises(QueryError, match=next(iter(bad))):
                q(config=bad)

    def test_unknown_config_field(self):
        with pytest.raises(QueryError, match="unknown config field"):
            q(config={"warp_speed": 9}).resolved_config()

    def test_spec_key_ignores_label_and_timeout(self):
        a = q(id="a", timeout_s=1.0)
        b = q(id="b", timeout_s=9.0)
        assert a.spec_key() == b.spec_key()

    def test_spec_key_distinguishes_semantics(self):
        base = q()
        assert base.spec_key() != q(config={"filtering": False}).spec_key()
        assert base.spec_key() != q(system=1).spec_key()
        assert base.spec_key() != q(scale=SCALE * 2).spec_key()

    def test_stage_equals_explicit_config(self):
        staged = q(stage="No Atomic Guards")
        explicit = q(config={"atomic_guards": False})
        assert staged.config_hash() == explicit.config_hash()

    def test_roundtrip_dict(self):
        query = q(config={"filtering": False}, timeout_s=2.0, verify=True)
        again = Query.from_dict(query.to_dict())
        assert again.spec_key() == query.spec_key()


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_eviction_order(self):
        c = LRUCache(2)
        c.put("a", 1), c.put("b", 2)
        assert c.get("a") == 1  # refresh a
        c.put("c", 3)  # evicts b
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3
        assert c.stats()["evictions"] == 1

    def test_zero_capacity_disables(self):
        c = LRUCache(0)
        c.put("a", 1)
        assert c.get("a") is None
        assert len(c) == 0


# ----------------------------------------------------------------------
# Engine: the three pipeline levels
# ----------------------------------------------------------------------
class TestResultCache:
    def test_warm_is_bit_identical_to_cold(self):
        with service() as svc:
            cold = svc.run_batch([q(id="cold")])[0]
            warm = svc.run_batch([q(id="warm")])[0]
        # A separate service instance proves cold-run determinism too.
        with service() as other:
            other_cold = other.run_batch([q(id="cold2")])[0]
        assert cold.ok and warm.ok and other_cold.ok
        assert not cold.cache_hit
        assert warm.cache_hit and warm.served_by == "result-cache"
        assert warm.identity() == cold.identity()
        assert other_cold.identity() == cold.identity()
        # Identity covers the full bit-level surface: MST weight, the
        # edge-set digest, and every counters-derived metric.
        assert warm.mst_digest == cold.mst_digest
        assert warm.metrics == cold.metrics

    def test_different_config_misses(self):
        with service() as svc:
            a = svc.run_batch([q(id="a")])[0]
            b = svc.run_batch([q(id="b", config={"filtering": False})])[0]
        assert not b.cache_hit
        assert a.result_key != b.result_key

    def test_build_cache_reuses_graph_across_configs(self):
        with service() as svc:
            svc.run_batch([q(id="a")])
            svc.run_batch([q(id="b", config={"filtering": False})])
            m = svc.metrics()
        assert m["service.graph_cache_hits"] >= 1.0
        assert m["service.executed"] == 2.0

    def test_same_graph_different_spec_hits_via_fingerprint(self, tmp_path):
        # A saved copy of a suite input resolves to the same weighted
        # graph, so the result cache hits across *different* specs.
        from repro.generators import suite
        from repro.graph.io import save_ecl

        g = suite.build("internet", scale=SCALE)
        path = tmp_path / "copy.ecl"
        save_ecl(g, path)
        with service() as svc:
            a = svc.run_batch([q(id="suite")])[0]
            b = svc.run_batch([Query(input=str(path), id="file")])[0]
        assert a.ok and b.ok
        assert b.served_by == "result-cache"
        assert b.identity()["mst_digest"] == a.identity()["mst_digest"]

    def test_learned_spec_map_is_bounded_like_the_result_cache(self):
        # Regression: the spec-key -> result-key map used to keep one
        # entry per distinct spec ever served, long after the result
        # cache had evicted the answer it pointed at.
        with service(result_cache_size=4) as svc:
            for i in range(12):
                assert svc.run_batch([q(id=f"s{i}", config={"seed": i})])[0].ok
            assert len(svc.results) == 4
            assert len(svc._spec_to_rkey) == 4
            again = svc.run_batch([q(id="again", config={"seed": 11})])[0]
        assert again.served_by == "result-cache"


class TestDedup:
    def test_concurrent_identical_queries_execute_once(self):
        with service(workers=4) as svc:
            n = 6
            outs = svc.run_batch(
                [q(id=f"d{i}", input="2d-2e20.sym", scale=0.2) for i in range(n)]
            )
            m = svc.metrics()
        assert all(o.ok for o in outs)
        assert m["service.executed"] == 1.0
        assert m["service.dedup_hits"] == n - 1
        assert len({o.mst_digest for o in outs}) == 1
        # Exactly one waiter is the primary execution; the rest are
        # marked as coalesced or cache servings.
        assert sum(1 for o in outs if not o.cache_hit) == 1

    def test_distinct_queries_do_not_coalesce(self):
        with service() as svc:
            outs = svc.run_batch(
                [q(id="x"), q(id="y", config={"filtering": False})]
            )
            m = svc.metrics()
        assert all(o.ok for o in outs)
        assert m["service.executed"] == 2.0
        assert m["service.dedup_hits"] == 0.0


class TestTimeout:
    def test_queued_queries_cancel_cleanly(self):
        with service(workers=1) as svc:
            tickets = [svc.submit(q(id="big", input="kron_g500-logn21", scale=0.4))]
            tickets += [
                svc.submit(q(id=f"t{i}", timeout_s=0.001)) for i in range(3)
            ]
            outs = [t.outcome() for t in tickets]
            # The pool must stay healthy for later queries.
            after = svc.run_batch([q(id="after")])[0]
            m = svc.metrics()
        assert outs[0].ok
        for o in outs[1:]:
            assert o.status == "timeout"
            assert o.error_kind == "timeout"
            assert o.exit_code == 1
            assert o.total_weight == 0  # never carries a partial result
        assert after.ok
        assert m["service.timeouts"] == 3.0

    def test_default_timeout_from_service_config(self):
        with service(workers=1, default_timeout_s=0.0001) as svc:
            # Occupy the single worker so the next query waits past its
            # (service-default) deadline in the queue.
            first = svc.submit(q(id="occupier", input="2d-2e20.sym", scale=0.3, timeout_s=60))
            timed = svc.submit(q(id="late"))
            assert timed.outcome().status == "timeout"
            assert first.outcome().ok


class TestFaultIsolation:
    def test_faulty_query_does_not_poison_batch(self):
        clean = [q(id="n1"), q(id="n2", input="2d-2e20.sym")]
        with service() as svc:
            baseline = svc.run_batch(clean)
        batch = [
            clean[0],
            q(id="bad", n_faults=2, fault_seed=3, fault_kinds=["kernel-fail"]),
            clean[1],
        ]
        with service() as svc:
            outs = svc.run_batch(batch)
        good1, bad, good2 = outs
        assert bad.status == "error"
        assert bad.error_kind == "fault"
        assert bad.exit_code == 5
        assert good1.ok and good2.ok
        assert good1.identity() == baseline[0].identity()
        assert good2.identity() == baseline[1].identity()
        assert batch_exit_code(outs) == 5

    def test_guarded_chaos_query_recovers(self):
        # With the recovery ladder on, the same faults are absorbed and
        # the result matches the clean run bit for bit.
        with service() as svc:
            clean = svc.run_batch([q(id="clean")])[0]
        with service() as svc:
            guarded = svc.run_batch(
                [
                    q(
                        id="guarded",
                        check_cadence=1,
                        n_faults=1,
                        fault_seed=5,
                        fault_kinds=["bitflip-parent"],
                    )
                ]
            )[0]
        assert guarded.ok
        assert guarded.resilience  # the ladder was engaged per-query
        assert guarded.mst_digest == clean.mst_digest
        assert guarded.total_weight == clean.total_weight

    def test_error_outcomes_never_cached(self):
        with service() as svc:
            bad = q(id="bad", n_faults=1, fault_seed=3, fault_kinds=["kernel-fail"])
            first = svc.run_batch([bad])[0]
            second = svc.run_batch([dataclasses.replace(bad, id="bad2")])[0]
            m = svc.metrics()
        assert first.status == "error" and second.status == "error"
        assert m["service.result_cache_hits"] == 0.0


# ----------------------------------------------------------------------
# Batch parsing and exit codes
# ----------------------------------------------------------------------
class TestBatch:
    def test_malformed_lines_become_failed_outcomes(self):
        items = parse_batch_lines(
            [
                '{"id": "ok", "input": "internet"}',
                "not json",
                '{"id": "bad", "input": "internet", "nope": 1}',
                "",
                "# comment",
                '{"input": "internet", "config": {"filter_threshold": -5}}',
                '{"input": "internet", "config": {"engine": "gpu"}}',
                '{"input": "internet", "check_cadence": "x"}',
                '{"input": "internet", "shards": 4}',
                '{"input": "internet", "config": {"filter_samples": 0}}',
                '{"input": "internet", "config": {"seed": -1}}',
                '{"input": "internet", "config": {"seed": "x"}}',
                '{"input": "internet", "config": {"filter_c": NaN}}',
                '{"input": "internet", "config": {"filtering": "no"}}',
            ]
        )
        assert len(items) == 12
        assert isinstance(items[0], Query)
        assert all(isinstance(i, QueryOutcome) for i in items[1:])
        assert all(i.error_kind == "input" for i in items[1:])
        assert "line 2" in items[1].error
        assert "line 8" in items[5].error and "check_cadence" in items[5].error
        assert "filter_samples" in items[7].error
        assert "seed" in items[8].error and "seed" in items[9].error
        assert "filter_c" in items[10].error
        assert "filtering" in items[11].error

    def test_batch_exit_code_is_most_severe(self):
        def fail(kind_exc):
            return QueryOutcome.failure(Query(input="x"), kind_exc)

        from repro.errors import DeviceFault, GraphFormatError, VerificationError

        assert batch_exit_code([]) == 0
        assert batch_exit_code([fail(GraphFormatError("x"))]) == 3
        assert (
            batch_exit_code(
                [fail(GraphFormatError("x")), fail(VerificationError("y"))]
            )
            == 4
        )
        assert (
            batch_exit_code(
                [fail(VerificationError("y")), fail(DeviceFault("z"))]
            )
            == 5
        )

    def test_classify_matches_cli_taxonomy(self):
        from repro.baselines.errors import NotConnectedError
        from repro.errors import (
            DeviceFault,
            GraphFormatError,
            InvariantViolation,
            VerificationError,
        )

        assert classify_error(GraphFormatError("x")) == ("input", 3)
        assert classify_error(QueryError("x")) == ("input", 3)
        assert classify_error(VerificationError("x")) == ("verify", 4)
        assert classify_error(InvariantViolation("x")) == ("fault", 5)
        assert classify_error(DeviceFault("x")) == ("fault", 5)
        assert classify_error(NotConnectedError("x")) == ("not-connected", 1)
        assert classify_error(RuntimeError("x")) == ("internal", 1)

    def test_sweep_queries_selection(self):
        from repro.generators.suite import INPUT_NAMES, MST_INPUT_NAMES

        assert len(sweep_queries("all", scale=SCALE)) == len(INPUT_NAMES)
        assert len(sweep_queries("mst", scale=SCALE)) == len(MST_INPUT_NAMES)
        two = sweep_queries("internet,2d-2e20.sym", scale=SCALE, repeat=3)
        assert len(two) == 6
        with pytest.raises(QueryError, match="unknown suite input"):
            sweep_queries("internet,atlantis", scale=SCALE)

    def test_outcome_ndjson_roundtrip(self):
        with service() as svc:
            out = svc.run_batch([q(id="r")])[0]
        import json

        d = json.loads(out.to_json_line())
        assert d["schema"] == "repro.service.outcome/v1"
        assert d["cache_hit"] is False
        again = QueryOutcome.from_dict(d)
        assert again.identity() == out.identity()


# ----------------------------------------------------------------------
# Other codes + verify through the service
# ----------------------------------------------------------------------
class TestOtherCodes:
    def test_baseline_code_agrees_with_ecl(self):
        with service() as svc:
            ecl, kru = svc.run_batch(
                [q(id="e"), q(id="k", code="qKruskal")]
            )
        assert ecl.ok and kru.ok
        assert kru.total_weight == ecl.total_weight
        assert kru.algorithm != ecl.algorithm

    def test_unknown_code_is_input_error(self):
        with service() as svc:
            out = svc.run_batch([q(id="u", code="NoSuchCode")])[0]
        assert out.status == "error"
        assert out.error_kind == "input"
        assert out.exit_code == 3

    def test_verify_flag_runs_checker(self):
        out = execute_query(q(id="v", verify=True))
        assert out.ok

    def test_execute_query_standalone(self):
        out = execute_query(q(id="s"))
        assert out.ok
        assert out.load_seconds > 0
        assert out.run_seconds > 0
        assert out.metrics["run.total_weight"] == out.total_weight
