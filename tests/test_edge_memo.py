"""Pricing pipeline messages from remembered plan signatures.

An :class:`~repro.compiler.EdgeResharding` builds each direction's plan
signature once per plan-cache epoch and prices every later message with
one ``PlanCache.lookup`` of it.  These tests pin the staleness rules of
that memo (an epoch bump or a swapped cache must never be served from
it), the request count of a whole iteration (exactly one cache request
per compiled edge direction plus one per priced message), and the
byte-identity of ``plan_signature`` now that each task's content key is
computed once.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.compiler import (
    USE_DEFAULT_CACHE,
    CompileContext,
    EdgeResharding,
    PlanCache,
    compile_resharding,
    default_plan_cache,
    plan_signature,
    reset_default_plan_cache,
    task_signature,
)
from repro.compiler import cache as cache_mod
from repro.compiler.pipeline import CacheSlot
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.models.gpt import GPTConfig, build_gpt
from repro.models.parallel import METHODS, run_iteration
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import FaultSchedule, RetryPolicy
from repro.strategies import BroadcastStrategy


def make_edge(cache, **ctx_kwargs) -> EdgeResharding:
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2))
    src = DeviceMesh.from_hosts(c, (0, 1))
    dst = DeviceMesh.from_hosts(c, (2, 3))
    fwd = ReshardingTask((32, 32, 8), src, "RS0R", dst, "S0RR")
    bwd = ReshardingTask((32, 32, 8), dst, "S0RR", src, "RS0R")
    return EdgeResharding(fwd, bwd, CompileContext(cache=cache, **ctx_kwargs))


def tiny_gpt():
    """A 2-stage GPT pipeline with 8 micro-batches on 2 hosts."""
    cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    config = GPTConfig(
        name="GPT-tiny", n_layers=4, hidden=1024, global_batch=32,
        dp=2, op=2, pp=2,
    )
    return build_gpt(config, cluster=cluster)


def check_invalidation_recompiles(edge: EdgeResharding, cache: PlanCache) -> None:
    """After ``invalidate()``, the next message is a counted miss that
    recompiles into the new epoch, and the one after it is a hit."""
    before = edge.compiled("fwd")
    assert edge.compiled("fwd") is before
    s0 = cache.stats()
    cache.invalidate("test")
    after = edge.compiled("fwd")
    s1 = cache.stats()
    assert (s1.requests, s1.misses) == (s0.requests + 1, s0.misses + 1)
    assert after is not before
    assert after.signature != before.signature
    assert after.signature in cache
    assert cache.stale_stores == 0
    assert edge.compiled("fwd") is after
    assert cache.stats().hits == s1.hits + 1


class TestEdgeMemo:
    def test_hits_skip_the_signature_but_not_the_lookup(self, monkeypatch):
        cache = PlanCache()
        edge = make_edge(cache)
        first = edge.compiled("fwd")
        calls = []
        real = cache_mod.plan_signature
        monkeypatch.setattr(
            "repro.compiler.pipeline.plan_signature",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        for _ in range(5):
            assert edge.compiled("fwd") is first
        assert calls == []
        stats = cache.stats()
        assert (stats.requests, stats.hits, stats.misses) == (6, 5, 1)

    def test_invalidate_makes_next_message_a_counted_miss(self):
        cache = PlanCache()
        check_invalidation_recompiles(make_edge(cache), cache)

    def test_sabotaged_memo_ignoring_the_epoch_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            CacheSlot, "is_current", lambda self, cache: self.cache is cache
        )
        cache = PlanCache()
        with pytest.raises(AssertionError):
            check_invalidation_recompiles(make_edge(cache), cache)

    def test_swapped_cache_is_never_served_from_the_old_memo(self):
        cache_a, cache_b = PlanCache(), PlanCache()
        edge = make_edge(cache_a)
        from_a = edge.compiled("fwd")
        assert edge.compiled("fwd") is from_a
        edge.ctx.cache = cache_b
        from_b = edge.compiled("fwd")
        assert from_b is not from_a
        assert (cache_b.requests, cache_b.misses) == (1, 1)
        assert cache_a.requests == 2
        assert edge.compiled("fwd") is from_b
        assert cache_b.hits == 1
        edge.ctx.cache = cache_a
        assert edge.compiled("fwd") is from_a
        assert (cache_a.requests, cache_a.hits) == (3, 2)

    def test_reset_default_cache_is_a_swap(self):
        reset_default_plan_cache()
        edge = make_edge(USE_DEFAULT_CACHE)
        first = edge.compiled("fwd")
        fresh = reset_default_plan_cache()
        assert edge.compiled("fwd") is not first
        assert (fresh.requests, fresh.misses) == (1, 1)
        assert default_plan_cache() is fresh

    def test_uncached_context_memoizes_per_edge(self):
        edge = make_edge(None)
        assert edge.compiled("bwd") is edge.compiled("bwd")
        assert edge.compiled("fwd") is not edge.compiled("bwd")

    def test_validate_runs_on_memoized_hits(self):
        cache = PlanCache()
        edge = make_edge(cache, validate=True)
        compiled = edge.compiled("fwd")
        assert compiled.validated
        compiled.validated = False
        assert edge.compiled("fwd") is compiled
        assert compiled.validated

    @pytest.mark.parametrize("method,overlap", [("broadcast", False), ("ours", True)])
    def test_one_request_per_edge_direction_and_per_message(self, method, overlap):
        assert METHODS[method].overlap is overlap
        spec = tiny_gpt()
        cache = PlanCache()
        result = run_iteration(spec, method, cache=cache)
        n_edges = len(result.comm_edges)
        n_messages = len(result.pipeline.comms)
        assert n_edges >= 1
        assert n_messages == 2 * n_edges * spec.n_microbatches
        assert cache.requests == 2 * n_edges + n_messages
        assert cache.misses == 2 * n_edges


# ----------------------------------------------------------------------
# plan_signature: byte-identical, with the task's key computed once
# ----------------------------------------------------------------------
def golden_task() -> ReshardingTask:
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2))
    return ReshardingTask(
        (64, 64, 64), DeviceMesh.from_hosts(c, (0, 1)), "RS0R",
        DeviceMesh.from_hosts(c, (2, 3)), "S0RR", dtype=np.float32,
    )


class TestSignatureDigest:
    def test_golden_digest(self):
        key = BroadcastStrategy().cache_key()
        assert key == ("broadcast", "intersection", "ensemble", None, True, "None")
        assert plan_signature(golden_task(), key) == (
            "7a9164fdbcda31b2774095393ded539331c64072ce331796dca9fa42e709107e"
        )

    def test_golden_digest_with_every_component_set(self):
        c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2, memory_budget=1e6))
        task = ReshardingTask(
            (64, 30, 8), DeviceMesh.from_hosts(c, (0, 1)), "S0S1R",
            DeviceMesh.from_hosts(c, (2, 3)), "RRS0", dtype=np.float16,
        )
        key = BroadcastStrategy().cache_key() + (("memory_budget", 5e5),)
        digest = plan_signature(
            task, key, FaultSchedule(seed=3, drop_rate=0.25),
            RetryPolicy(max_attempts=4), epoch=2,
        )
        assert digest == (
            "01462cc5661545279a2f6a731f73c0a2a8b6ed804c8911f88dd1f2d97441036e"
        )

    def test_task_key_is_computed_once_per_task(self, monkeypatch):
        calls = []
        real = cache_mod._cluster_key
        monkeypatch.setattr(
            cache_mod, "_cluster_key", lambda spec: calls.append(spec) or real(spec)
        )
        task = golden_task()
        key = BroadcastStrategy().cache_key()
        digests = {plan_signature(task, key, epoch=e) for e in range(3)}
        assert len(digests) == 3
        assert task_signature(task) is task_signature(task)
        assert len(calls) == 1
        # equal content on a fresh task: same digest, its own key
        assert plan_signature(golden_task(), key, epoch=0) in digests
        assert len(calls) == 2

    def test_task_key_memo_does_not_keep_tasks_alive(self):
        task = golden_task()
        task_signature(task)
        alive = weakref.ref(task)
        del task
        gc.collect()
        assert alive() is None

    def test_compile_signature_matches_plan_signature(self):
        cache = PlanCache()
        task = golden_task()
        compiled = compile_resharding(task, CompileContext(cache=cache))
        expected = plan_signature(
            task, BroadcastStrategy().cache_key(), epoch=cache.epoch
        )
        assert compiled.signature == expected
