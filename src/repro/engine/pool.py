"""Shared execution resources: one service owns every worker pool.

Campaigns shard cases across thread/process pools, ensembles consult
members in concurrent waves, and the benchmark figures fan whole stateful
arms out per seed — before this module each of those built (or hoarded)
its own ``concurrent.futures`` executor.  :class:`ExecutorService` is the
single owner:

* **Shared keyed pools** (:meth:`ExecutorService.lease`): one executor
  per ``(kind, workers)``, created on first lease and *reused* across
  campaigns and ensemble waves — a repeated process campaign no longer
  pays a fork-and-import storm per run.
* **Idle-timeout reaping**: a pool whose last lease ended more than
  ``idle_timeout`` seconds ago (``$REPRO_POOL_IDLE_SECONDS``, default
  300) is shut down on the next service interaction (or an explicit
  :meth:`~ExecutorService.reap_idle`) and transparently recreated when
  next leased.  Leased pools are never reaped.
* **A core-budget accountant** (:class:`CoreBudget`): a shared pool
  charges its worker slots against one process-wide budget
  (``$REPRO_CORE_BUDGET``, default the CPU count) while it is leased —
  concurrent leases of one pool share the charge, since they share the
  workers — and every :meth:`~ExecutorService.ephemeral` pool grants
  its width dynamically against what remains, so nested
  campaign×member parallelism degrades to fewer workers instead of
  oversubscribing the machine.  Worker counts are pure wall-clock
  everywhere in this codebase — clamping a pool never changes a byte of
  any result (``benchmarks/ensemble_smoke.py`` gates exactly that).
* **Fork safety**: a forked child (e.g. a campaign process-pool worker)
  inherits the pool table but not the executors' manager threads —
  submitting to an inherited pool would hang forever, and an inherited
  lock could be held by a thread that does not exist in the child.  An
  ``os.register_at_fork`` hook resets the child's service to empty with
  fresh locks and a fresh budget.

:meth:`ExecutorService.ephemeral` exists for the one place a shared
bounded pool is *wrong*: nested ensemble waves, where an inner wave
submits from an outer wave's worker thread and blocking on an inner
future in the same bounded pool would starve it into deadlock.  An
ephemeral pool is budget-accounted and torn down on exit, never shared.

The process-wide instance is :data:`EXECUTOR_SERVICE`; tests build their
own service with an injected clock to drive reaping deterministically.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import (ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from contextlib import contextmanager
from dataclasses import dataclass

#: Pool backends the service manages.
POOL_KINDS = ("thread", "process")

#: Default idle lifetime of an unleased pool, seconds.
DEFAULT_IDLE_TIMEOUT = 300.0


def _env_positive(name: str, default, convert):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = convert(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def _env_idle_timeout(default: float) -> float:
    """The idle timeout accepts any float: negative values are the
    documented way to disable reaping entirely, so — unlike the core
    budget — they must pass through rather than fall back."""
    raw = os.environ.get("REPRO_POOL_IDLE_SECONDS", "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def cancel_and_wait(futures) -> None:
    """Abandon outstanding futures on an error path.

    A shared leased pool is NOT shut down when a lease exits, so a
    caller whose collection loop raises must cancel what has not started
    and wait out what has — otherwise its tasks would keep executing
    after the exception propagates, mutating process-wide state
    (detector stats, memos) under whatever runs next.  Owned ``with
    Executor()`` blocks used to provide this via ``__exit__``'s join;
    every lease-based submit/collect loop calls this instead.

    Only futures that refused to cancel are waited on: a cancelled future
    that is still queued counts as done only once a worker dequeues it,
    which can take as long as some unrelated running task.
    """
    wait([future for future in futures if not future.cancel()])


class CoreBudget:
    """Process-wide worker-slot accountant.

    ``grant(requested)`` returns how many workers a pool may actually
    use: the request clamped to the unspent budget, but never less than
    ``minimum`` — a starved caller still gets one slot rather than
    deadlocking, at the cost of bounded oversubscription.  Worker counts
    are wall-clock-only throughout the engine layer, so a clamp is
    always safe.
    """

    def __init__(self, total: int | None = None):
        if total is None:
            total = _env_positive("REPRO_CORE_BUDGET",
                                  os.cpu_count() or 1, int)
        self.total = max(1, int(total))
        self._used = 0
        self._lock = threading.Lock()

    @property
    def available(self) -> int:
        with self._lock:
            return max(0, self.total - self._used)

    @property
    def in_use(self) -> int:
        with self._lock:
            return self._used

    def grant(self, requested: int, minimum: int = 1) -> int:
        if requested < 1:
            raise ValueError("requested workers must be >= 1")
        with self._lock:
            free = max(0, self.total - self._used)
            granted = max(minimum, min(requested, free))
            self._used += granted
            return granted

    def charge(self, workers: int) -> int:
        """Record ``workers`` slots unconditionally (no clamp).

        For pools whose width is already fixed: the accounting must
        reflect the workers that actually exist, even when that briefly
        overshoots the total — otherwise later :meth:`grant` calls would
        hand out cores the machine does not have free.
        """
        if workers < 1:
            raise ValueError("charged workers must be >= 1")
        with self._lock:
            self._used += workers
            return workers

    def release(self, granted: int) -> None:
        with self._lock:
            self._used = max(0, self._used - granted)


@dataclass
class _PoolEntry:
    executor: object
    kind: str
    workers: int
    leases: int = 0
    idle_since: float | None = None
    #: Budget slots charged while the pool is leased (first lease charges,
    #: concurrent leases of the same pool share the charge — they share
    #: the same workers).
    charged: int = 0
    #: Removed from the table (broken pool replaced) while leases were
    #: still open: the last lease to release tears it down.
    detached: bool = False


@dataclass
class ServiceStats:
    """Lifetime counters, mostly for tests and the DESIGN worked example."""

    created: int = 0
    reaped: int = 0
    leases: int = 0
    ephemerals: int = 0


class ExecutorService:
    """Owner of every shared worker pool (see the module docstring)."""

    def __init__(self, *, idle_timeout: float | None = None,
                 clock=time.monotonic, budget: CoreBudget | None = None):
        if idle_timeout is None:
            idle_timeout = _env_idle_timeout(DEFAULT_IDLE_TIMEOUT)
        self.idle_timeout = idle_timeout
        self._clock = clock
        self.budget = budget if budget is not None else CoreBudget()
        self.stats = ServiceStats()
        self._pools: dict[tuple[str, int], _PoolEntry] = {}
        self._lock = threading.Lock()

    # -- pool construction -------------------------------------------------

    def _make(self, kind: str, workers: int):
        self.stats.created += 1
        if kind == "thread":
            return ThreadPoolExecutor(max_workers=workers)
        return ProcessPoolExecutor(max_workers=workers)

    @staticmethod
    def _usable(entry: _PoolEntry) -> bool:
        # A process pool whose worker died is broken forever; replace it
        # on the next lease instead of failing every future submit.
        return not getattr(entry.executor, "_broken", False)

    # -- leasing -----------------------------------------------------------

    @contextmanager
    def lease(self, kind: str, workers: int):
        """Borrow the shared ``(kind, granted-workers)`` pool.

        The yielded executor is shared — callers submit and collect their
        own futures but must not shut it down.  While at least one lease
        is open the pool cannot be reaped; when the last lease closes the
        idle clock starts.
        """
        if kind not in POOL_KINDS:
            raise ValueError(f"kind must be one of {POOL_KINDS}, "
                             f"got {kind!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # Static clamp to the budget's total so the pool key (and width)
        # never depends on what happens to be leased right now.
        width = min(workers, self.budget.total)
        key = (kind, width)
        reap: list[_PoolEntry] = []
        entry: _PoolEntry | None = None
        try:
            with self._lock:
                self._collect_idle(reap)
                entry = self._pools.get(key)
                if entry is not None and not self._usable(entry):
                    # Replace the broken pool for new lessees.  Shutting
                    # it down while another thread still holds a lease
                    # would turn that lessee's BrokenProcessPoolError
                    # into 'cannot schedule new futures' mid-flight, so
                    # a still-leased pool is only *detached* — its last
                    # lease tears it down on release.
                    self._pools.pop(key)
                    if entry.leases == 0:
                        reap.append(entry)
                    else:
                        entry.detached = True
                    entry = None
                if entry is None:
                    entry = _PoolEntry(self._make(kind, width), kind, width)
                    self._pools[key] = entry
                if entry.leases == 0:
                    # Concurrent leases of one pool share its workers, so
                    # they share one budget charge: the first lease pays,
                    # the last release refunds.  The charge is the pool's
                    # full width, unclamped — these workers exist whether
                    # or not the budget had room, and under-recording them
                    # would let later grants oversubscribe further.
                    entry.charged = self.budget.charge(width)
                entry.leases += 1
                entry.idle_since = None
                self.stats.leases += 1
            self._shutdown_entries(reap)
            reap = []
            yield entry.executor
        finally:
            if entry is not None:
                with self._lock:
                    entry.leases -= 1
                    if entry.leases == 0:
                        self.budget.release(entry.charged)
                        entry.charged = 0
                        entry.idle_since = self._clock()
                        if entry.detached:
                            reap.append(entry)
                    self._collect_idle(reap)
            self._shutdown_entries(reap)

    @contextmanager
    def ephemeral(self, kind: str, workers: int):
        """A fresh, private, budget-accounted pool, torn down on exit.

        For nested fan-out (ensemble waves inside waves) where blocking
        on an inner future inside a *shared* bounded pool would deadlock.
        """
        if kind not in POOL_KINDS:
            raise ValueError(f"kind must be one of {POOL_KINDS}, "
                             f"got {kind!r}")
        granted = self.budget.grant(workers)
        pool = None
        try:
            self.stats.ephemerals += 1
            pool = self._make(kind, granted)
            yield pool
        finally:
            # The refund must survive a constructor failure, not only a
            # failed body — a leaked grant would clamp every later wave.
            if pool is not None:
                pool.shutdown(wait=True)
            self.budget.release(granted)

    # -- reaping -----------------------------------------------------------

    def _collect_idle(self, out: list[_PoolEntry]) -> None:
        """Move expired idle pools out of the table (caller holds the
        lock and shuts them down after releasing it)."""
        if self.idle_timeout < 0:
            return
        now = self._clock()
        for key, entry in list(self._pools.items()):
            if entry.leases == 0 and entry.idle_since is not None \
                    and now - entry.idle_since >= self.idle_timeout:
                out.append(self._pools.pop(key))

    def _shutdown_entries(self, entries: list[_PoolEntry]) -> None:
        for entry in entries:
            self.stats.reaped += 1
            # A reaped pool has no leases and no outstanding futures by
            # construction, so the join can happen in the executor's own
            # management thread — blocking the leasing hot path on
            # another pool's worker teardown would serve nobody.
            entry.executor.shutdown(wait=False)

    def reap_idle(self) -> int:
        """Shut down every pool idle past the timeout; returns how many."""
        reap: list[_PoolEntry] = []
        with self._lock:
            self._collect_idle(reap)
        self._shutdown_entries(reap)
        return len(reap)

    # -- introspection and lifecycle ---------------------------------------

    def active_pools(self) -> list[tuple[str, int]]:
        """Keys of the pools currently alive (leased or idle)."""
        with self._lock:
            return sorted(self._pools)

    def shutdown(self) -> None:
        """Tear down every pool (end of process, or test isolation)."""
        with self._lock:
            entries = list(self._pools.values())
            self._pools.clear()
        for entry in entries:
            entry.executor.shutdown(wait=True)

    def _reset_after_fork(self) -> None:
        # Inherited executors have no manager threads in the child and the
        # inherited locks may be held by threads that no longer exist:
        # start empty with fresh locks; pools rebuild on first use.
        self._lock = threading.Lock()
        self._pools = {}
        self.budget = CoreBudget(self.budget.total)
        self.stats = ServiceStats()


#: The process-wide service every campaign and ensemble wave leases from.
EXECUTOR_SERVICE = ExecutorService()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=EXECUTOR_SERVICE._reset_after_fork)

atexit.register(EXECUTOR_SERVICE.shutdown)
