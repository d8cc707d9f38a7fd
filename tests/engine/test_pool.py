"""ExecutorService: leasing, idle reaping, the core budget, fork reset."""

import os
import time

import pytest

from repro.engine.pool import (CoreBudget, EXECUTOR_SERVICE, ExecutorService,
                               POOL_KINDS, cancel_and_wait)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def service(clock):
    service = ExecutorService(idle_timeout=10.0, clock=clock,
                              budget=CoreBudget(total=4))
    yield service
    service.shutdown()


def _square(value):
    return value * value


def _die():
    # Simulates a hard worker crash (the worker:crash fault site does
    # exactly this); must be top-level to pickle across the fork.
    os._exit(3)


class TestCoreBudget:
    def test_grants_clamp_to_the_budget(self):
        budget = CoreBudget(total=4)
        assert budget.grant(3) == 3
        assert budget.available == 1
        assert budget.grant(3) == 1  # only one slot left
        budget.release(1)
        budget.release(3)
        assert budget.available == 4

    def test_exhausted_budget_still_grants_the_minimum(self):
        budget = CoreBudget(total=2)
        assert budget.grant(2) == 2
        # A starved caller gets one slot (bounded oversubscription)
        # instead of deadlocking on an unavailable machine.
        assert budget.grant(5) == 1
        assert budget.in_use == 3

    def test_release_never_goes_negative(self):
        budget = CoreBudget(total=2)
        budget.release(5)
        assert budget.available == 2

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError):
            CoreBudget(total=2).grant(0)

    def test_total_has_a_floor_of_one(self):
        assert CoreBudget(total=0).total == 1


class TestLeasing:
    def test_lease_runs_work_and_reuses_the_pool(self, service):
        with service.lease("thread", 2) as pool:
            assert pool.submit(_square, 7).result() == 49
            first = pool
        with service.lease("thread", 2) as pool:
            assert pool is first  # same executor, no respawn
        assert service.stats.created == 1
        assert service.stats.leases == 2

    def test_bad_kind_rejected(self, service):
        with pytest.raises(ValueError, match="kind"):
            with service.lease("gpu", 2):
                pass
        assert "gpu" not in POOL_KINDS

    def test_lease_counts_against_the_budget(self, service):
        with service.lease("thread", 3):
            assert service.budget.in_use == 3
            # A nested request sees what is left.
            with service.ephemeral("thread", 3) as inner:
                assert service.budget.in_use == 4
                assert inner._max_workers == 1
        assert service.budget.in_use == 0

    def test_concurrent_leases_of_one_pool_charge_once(self, service):
        # N leases of the same shared pool share its workers, so they
        # must share one budget charge — charging per lease would starve
        # later nested grants for cores nobody is actually using.
        with service.lease("thread", 2):
            with service.lease("thread", 2):
                assert service.budget.in_use == 2
            assert service.budget.in_use == 2
        assert service.budget.in_use == 0

    def test_distinct_pools_charge_their_true_width(self, service):
        # Two concurrent pools really do hold width-A + width-B workers;
        # the budget must record that honestly (even past its total) so
        # later grants cannot hand out cores that are already busy.
        with service.lease("thread", 3):
            with service.lease("thread", 2):
                assert service.budget.in_use == 5  # > total(4), truthful
                assert service.budget.available == 0
                with service.ephemeral("thread", 3) as pool:
                    assert pool._max_workers == 1  # nothing left: floor
        assert service.budget.in_use == 0

    def test_ephemeral_constructor_failure_refunds_the_budget(
            self, service, monkeypatch):
        import repro.engine.pool as pool_module

        def boom(*_args, **_kwargs):
            raise OSError("cannot spawn")

        monkeypatch.setattr(pool_module, "ThreadPoolExecutor", boom)
        with pytest.raises(OSError):
            with service.ephemeral("thread", 2):
                pass
        assert service.budget.in_use == 0  # the grant was refunded

    def test_width_clamps_to_the_budget_total(self, service):
        with service.lease("thread", 99) as pool:
            assert pool._max_workers == 4  # budget total, not 99
        assert service.active_pools() == [("thread", 4)]

    def test_ephemeral_pools_are_private_and_torn_down(self, service):
        with service.ephemeral("thread", 2) as pool:
            assert pool.submit(_square, 3).result() == 9
        # Torn down on exit: submitting again must fail.
        with pytest.raises(RuntimeError):
            pool.submit(_square, 3)
        assert service.active_pools() == []  # never entered the table

    def test_distinct_widths_get_distinct_pools(self, service):
        with service.lease("thread", 1) as narrow:
            with service.lease("thread", 2) as wide:
                assert narrow is not wide
        assert sorted(service.active_pools()) == [("thread", 1),
                                                  ("thread", 2)]


class TestReaping:
    def test_idle_pools_are_reaped_and_recreated(self, service, clock):
        with service.lease("thread", 2) as pool:
            first = pool
        clock.advance(11.0)
        assert service.reap_idle() == 1
        assert service.active_pools() == []
        # Transparent recreation on the next lease.
        with service.lease("thread", 2) as pool:
            assert pool is not first
            assert pool.submit(_square, 4).result() == 16
        assert service.stats.created == 2
        assert service.stats.reaped == 1

    def test_young_idle_pools_survive(self, service, clock):
        with service.lease("thread", 2):
            pass
        clock.advance(9.0)
        assert service.reap_idle() == 0
        assert service.active_pools() == [("thread", 2)]

    def test_leased_pools_are_never_reaped(self, service, clock):
        with service.lease("thread", 2):
            clock.advance(100.0)
            assert service.reap_idle() == 0
        # The idle clock starts at release, not at creation.
        assert service.reap_idle() == 0
        clock.advance(100.0)
        assert service.reap_idle() == 1

    def test_reaping_happens_on_ordinary_interactions(self, service, clock):
        with service.lease("thread", 1):
            pass
        clock.advance(50.0)
        # No explicit reap_idle: the next lease sweeps expired pools.
        with service.lease("thread", 2):
            pass
        assert service.active_pools() == [("thread", 2)]
        assert service.stats.reaped == 1

    def test_negative_timeout_disables_reaping(self, clock):
        service = ExecutorService(idle_timeout=-1.0, clock=clock,
                                  budget=CoreBudget(total=2))
        try:
            with service.lease("thread", 1):
                pass
            clock.advance(1e9)
            assert service.reap_idle() == 0
            assert service.active_pools() == [("thread", 1)]
        finally:
            service.shutdown()

    def test_broken_pool_with_live_lease_is_detached_not_shutdown(
            self, service):
        # Another thread's lease must never have its executor shut down
        # underneath it; the broken pool is detached from the table and
        # torn down by its last lessee on release.
        class BrokenStub:
            _broken = "worker died"
            shutdowns = 0

            def shutdown(self, wait=True):
                BrokenStub.shutdowns += 1

        with service.lease("thread", 2) as original:
            entry = service._pools[("thread", 2)]
            real = entry.executor
            entry.executor = BrokenStub()
            # A new lease sees the broken pool, replaces it for itself...
            with service.lease("thread", 2) as replacement:
                assert replacement is not original
                assert BrokenStub.shutdowns == 0  # ...without killing it
            # Only when the original lease releases does it tear down.
            assert BrokenStub.shutdowns == 0
        assert BrokenStub.shutdowns == 1
        real.shutdown(wait=True)
        assert service.budget.in_use == 0

    def test_negative_env_timeout_reaches_the_service(self, monkeypatch):
        # The documented disable path: REPRO_POOL_IDLE_SECONDS=-1 must
        # pass through, not fall back to the default like non-positive
        # core budgets do.
        monkeypatch.setenv("REPRO_POOL_IDLE_SECONDS", "-1")
        service = ExecutorService(clock=FakeClock(),
                                  budget=CoreBudget(total=2))
        try:
            assert service.idle_timeout == -1.0
        finally:
            service.shutdown()

    def test_broken_process_pool_is_replaced(self, service):
        class Broken:
            _broken = "worker died"

            def shutdown(self, wait=True):
                pass

        with service.lease("thread", 2):
            pass
        entry = service._pools[("thread", 2)]
        entry.executor.shutdown(wait=True)
        entry.executor = Broken()
        with service.lease("thread", 2) as pool:
            assert not getattr(pool, "_broken", False)
            assert pool.submit(_square, 5).result() == 25

    def test_genuinely_killed_worker_breaks_then_recovers(self, service):
        # Not a stub: a real process pool whose worker os._exit()s, the
        # way an injected worker:crash fault dies.  The lease surfaces
        # BrokenProcessPool, releases its budget grant, and the *next*
        # lease transparently hands out a fresh working pool.
        from concurrent.futures.process import BrokenProcessPool

        with service.lease("process", 2) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.submit(_die).result()
        assert service.budget.in_use == 0
        with service.lease("process", 2) as pool:
            assert pool.submit(_square, 6).result() == 36
        assert service.budget.in_use == 0


class TestCancelAndWait:
    def test_no_task_outlives_the_error_path(self, service):
        import threading
        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=10)
            return "done"

        with service.lease("thread", 1) as pool:
            blocker = pool.submit(slow)  # occupies the single worker
            assert started.wait(timeout=10)
            queued = [pool.submit(slow) for _ in range(3)]
            # Queued tasks cancel outright — they never execute, and the
            # call does not wait for the running blocker to dequeue them.
            began = time.monotonic()
            cancel_and_wait(queued)
            assert time.monotonic() - began < 1.0
            assert all(future.cancelled() for future in queued)
            # A running task cannot cancel; the call joins it instead,
            # so nothing keeps executing behind a propagating error.
            release.set()
            cancel_and_wait([blocker])
            assert blocker.done() and not blocker.cancelled()
            assert blocker.result() == "done"


class TestLifecycle:
    def test_shutdown_clears_everything(self, service):
        with service.lease("thread", 1):
            pass
        service.shutdown()
        assert service.active_pools() == []

    def test_fork_reset_starts_empty(self, service):
        with service.lease("thread", 1):
            pass
        service.budget.grant(1)
        service._reset_after_fork()
        assert service.active_pools() == []
        assert service.budget.in_use == 0
        assert service.stats.created == 0
        # And the reset service still works.
        with service.lease("thread", 1) as pool:
            assert pool.submit(_square, 6).result() == 36

    def test_global_service_exists_and_serves(self):
        with EXECUTOR_SERVICE.lease("thread", 1) as pool:
            assert pool.submit(_square, 2).result() == 4
