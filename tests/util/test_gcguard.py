"""The ref-counted GC pause: nesting, concurrency, and restoration."""

import gc
import threading

import pytest

from repro.util.gcguard import pause_depth, paused_gc


@pytest.fixture(autouse=True)
def _gc_enabled():
    """Every test starts (and must end) with the collector enabled."""
    gc.enable()
    yield
    gc.enable()


class TestPausedGC:
    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_inner_exit_does_not_reenable(self):
        # The historical bug class: a nested optimization (feedback
        # baseline re-optimization, iterate_plans) re-enabling GC under
        # its still-running parent.
        with paused_gc():
            with paused_gc():
                assert not gc.isenabled()
                assert pause_depth() == 2
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_respects_caller_disabled_collector(self):
        gc.disable()
        with paused_gc():
            assert not gc.isenabled()
        # The guard must not enable a collector the caller had disabled.
        assert not gc.isenabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with paused_gc():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_overlapping_threads_keep_pause_until_last_exit(self):
        # t1 enters, t2 enters, t1 exits: the collector must stay
        # paused until t2 — the last holder — exits.
        t1_in = threading.Event()
        t2_in = threading.Event()
        t1_out = threading.Event()
        observed = {}

        def first():
            with paused_gc():
                t1_in.set()
                t2_in.wait(5)
            observed["after_t1_exit"] = gc.isenabled()
            t1_out.set()

        def second():
            t1_in.wait(5)
            with paused_gc():
                t2_in.set()
                t1_out.wait(5)
                observed["while_t2_holds"] = gc.isenabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert observed == {"after_t1_exit": False, "while_t2_holds": False}
        assert gc.isenabled()
        assert pause_depth() == 0


class TestOptimizerIntegration:
    def test_concurrent_optimizations_restore_gc(self):
        from repro.optimizer.optimizer import Optimizer
        from repro.workloads.synthetic import chain_query

        workload = chain_query(4, rows=5, seed=0)
        errors = []
        barrier = threading.Barrier(2)

        def run():
            try:
                barrier.wait(5)
                Optimizer(workload.catalog).optimize_sql(workload.sql)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert gc.isenabled()
        assert pause_depth() == 0

    def test_sampled_optimize_keeps_a_siblings_pause(self):
        # A server worker degrading to the sampled tier returns while a
        # sibling's exact optimize still holds the pause: the collector
        # must stay off for the sibling (raw gc.enable() turned it on).
        from repro.sampledopt import FixedSamples, SampledOptimizer
        from repro.workloads.synthetic import chain_query

        workload = chain_query(4, rows=5, seed=0)
        holder_in = threading.Event()
        sampled_done = threading.Event()
        observed = {}

        class Probe(FixedSamples):
            def update(self, samples, best_cost):
                observed["inside_sampled"] = pause_depth()
                return super().update(samples, best_cost)

        def holder():
            with paused_gc():
                holder_in.set()
                sampled_done.wait(30)
                observed["after_sampled"] = (pause_depth(), gc.isenabled())

        def sampled():
            try:
                holder_in.wait(5)
                SampledOptimizer(workload.catalog).optimize_sql(
                    workload.sql, rule=Probe(20)
                )
            finally:
                sampled_done.set()

        threads = [threading.Thread(target=holder), threading.Thread(target=sampled)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert observed == {"inside_sampled": 2, "after_sampled": (1, False)}
        assert gc.isenabled()
        assert pause_depth() == 0
