"""Outside-in layer tracer: wraps public functions of ``repro`` from here.

Nothing under ``src/`` knows about it.  :func:`install` imports every
``repro`` module, then replaces each declared function or method with a
timing wrapper *everywhere it is bound*: the defining module, every
``from``-import copy in other modules, and the class attribute for
methods.  Lazy function-local imports (``from ..core.evaluate import
semantically_acceptable`` inside ``run_request``) read the patched
module attribute at call time, so they are covered too.

Spans nest per thread (the repair service runs repairs on worker
threads), and a span's *self* time is its duration minus the durations
of the spans directly inside it.  Every span names the workloads it
must fire on; :meth:`Tracer.missing` lists the ones that recorded no
call there, and the traced run fails on any.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass

#: Workload names (kept in step with ``workloads.WORKLOADS``).
FIG8, DETECT, SERVE = ("fig8-serial", "detect-cold", "serve-open")


@dataclass(frozen=True)
class SpanSpec:
    """One wrapped callable.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``;
    ``stats`` the per-layer metrics it reports (``calls``, ``self_s``,
    ``hit_ratio``); ``hit`` decides, from the return value, whether a
    call counts as a hit; ``must_fire`` the workloads on which a zero
    call count fails the traced run.
    """

    name: str
    target: str
    stats: tuple[str, ...]
    must_fire: tuple[str, ...]
    hit: object = None


def _not_none(result) -> bool:
    return result is not None


#: The declared spans.
SPANS: tuple[SpanSpec, ...] = (
    SpanSpec("lang.tokenize", "repro.lang.lexer:tokenize",
             ("calls", "self_s"), (FIG8, DETECT, SERVE)),
    SpanSpec("lang.parse_program", "repro.lang.parser:parse_program",
             ("calls", "self_s"), (FIG8, DETECT, SERVE)),
    SpanSpec("lang.print_program", "repro.lang.printer:print_program",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("lang.clone", "repro.lang.ast_nodes:clone",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("check.check_source", "repro.check.checker:check_source",
             ("calls", "self_s"), (DETECT,)),
    SpanSpec("check.resolve_names", "repro.check.names:resolve_names",
             ("self_s",), (DETECT,)),
    SpanSpec("check.Typeck.run", "repro.check.typeck:Typeck.run",
             ("self_s",), (DETECT,)),
    SpanSpec("check.Borrowck.run", "repro.check.borrowck:Borrowck.run",
             ("self_s",), (DETECT,)),
    SpanSpec("miri.detect_ub", "repro.miri:detect_ub",
             ("calls",), (FIG8, DETECT, SERVE)),
    SpanSpec("miri.detect_ub_batch", "repro.miri:detect_ub_batch",
             ("calls",), (FIG8,)),
    SpanSpec("miri.detect_case", "repro.miri:detect_case",
             ("calls",), (FIG8, SERVE)),
    SpanSpec("miri.BatchVerifier.verify", "repro.miri:BatchVerifier.verify",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("miri.compile_source", "repro.miri.bytecode:compile_source",
             ("calls", "self_s"), (FIG8, DETECT, SERVE)),
    SpanSpec("miri.run_program", "repro.miri.interp:run_program",
             ("calls", "self_s"), (FIG8, DETECT, SERVE)),
    SpanSpec("miri.source_fingerprint",
             "repro.miri.fingerprint:source_fingerprint",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("core.RustBrain.repair", "repro.core.pipeline:RustBrain.repair",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("core.SlowThinking.execute",
             "repro.core.slow:SlowThinking.execute",
             ("self_s",), (FIG8, SERVE)),
    SpanSpec("core.RewriteRule.apply", "repro.core.rewrites:RewriteRule.apply",
             ("calls", "self_s", "hit_ratio"), (FIG8, SERVE), _not_none),
    SpanSpec("core.analyse", "repro.core.features:analyse",
             ("self_s",), (FIG8, SERVE)),
    SpanSpec("core.vectorize", "repro.core.knowledge:vectorize",
             ("calls", "self_s"), (FIG8,)),
    SpanSpec("core.prune_program", "repro.core.pruning:prune_program",
             ("calls", "self_s"), (FIG8,)),
    SpanSpec("core.AbstractReasoningAgent.consult",
             "repro.core.agents.reasoning:AbstractReasoningAgent.consult",
             ("self_s",), (FIG8,)),
    SpanSpec("core.semantically_acceptable",
             "repro.core.evaluate:semantically_acceptable",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("llm.extract_features", "repro.llm.oracle:extract_features",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("llm.rank_candidate_rules",
             "repro.llm.oracle:rank_candidate_rules",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("baselines.LLMOnlyRepair.repair",
             "repro.baselines.llm_only:LLMOnlyRepair.repair",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("engine.run_request", "repro.engine.types:run_request",
             ("calls", "self_s"), (FIG8, SERVE)),
    SpanSpec("engine.cache.get", "repro.engine.cache:ResultCache.get",
             ("calls", "self_s", "hit_ratio"), (SERVE,), _not_none),
    SpanSpec("engine.cache.put", "repro.engine.cache:ResultCache.put",
             ("calls", "self_s"), (SERVE,)),
    SpanSpec("corpus.load_manifest", "repro.corpus.manifest:load_manifest",
             ("self_s",), (DETECT,)),
    SpanSpec("service.from_payload",
             "repro.service.jobs:JobConfig.from_payload",
             ("calls", "self_s"), (SERVE,)),
    SpanSpec("service.execute_repair", "repro.service.jobs:execute_repair",
             ("calls", "self_s"), (SERVE,)),
)
# Process-pool dispatch (``engine.pool``) has no span: no workload leases
# a pool, so it stays unmeasured until a pooled workload returns.


class _Stat:
    __slots__ = ("calls", "self_s", "hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0


class Tracer:
    """Per-thread span stacks and per-thread statistics, merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict[str, _Stat]] = []
        self._tables_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
        return local

    def wrap(self, name: str, fn, hit=None, on_call=None):
        """A wrapper timing ``fn`` as span ``name``.

        ``on_call(args, kwargs, start, end)`` receives each call's
        monotonic start and end, for callers that need per-call times.
        """
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat = local.table.get(name)
                if stat is None:
                    stat = local.table[name] = _Stat()
                stat.calls += 1
                stat.self_s += elapsed - children[0]
            if hit is not None and hit(result):
                stat.hits += 1
            if on_call is not None:
                on_call(args, kwargs, start, end)
            return result

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):  # lru_cache'd targets
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def totals(self) -> dict[str, _Stat]:
        merged: dict[str, _Stat] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, stat in list(table.items()):
                into = merged.setdefault(name, _Stat())
                into.calls += stat.calls
                into.self_s += stat.self_s
                into.hits += stat.hits
        return merged

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Replace every module-level binding of ``original``."""
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            namespace = getattr(module, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
                    count += 1
        return count

    def patch(self, spec: SpanSpec, on_call=None) -> int:
        module_name, _, path = spec.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(spec.name, raw.__func__,
                                                spec.hit, on_call))
            else:
                wrapped = self.wrap(spec.name, raw, spec.hit, on_call)
            self._undo.append((owner, method, raw))
            setattr(owner, method, wrapped)
            return 1
        original = getattr(module, path)
        return self._rebind(original,
                            self.wrap(spec.name, original, spec.hit, on_call))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def missing(self, workload: str) -> list[str]:
        """Declared spans that recorded no call on ``workload``."""
        totals = self.totals()
        return [spec.name for spec in SPANS
                if workload in spec.must_fire
                and (spec.name not in totals or totals[spec.name].calls == 0)]

    def span_metrics(self) -> dict[str, float]:
        totals = self.totals()
        metrics: dict[str, float] = {}
        for spec in SPANS:
            stat = totals.get(spec.name, _Stat())
            for kind in spec.stats:
                if kind == "calls":
                    metrics[f"{spec.name}.calls"] = stat.calls
                elif kind == "self_s":
                    metrics[f"{spec.name}.self_s"] = stat.self_s
                elif kind == "hit_ratio":
                    metrics[f"{spec.name}.hit_ratio"] = (
                        stat.hits / stat.calls if stat.calls else 0.0)
        return metrics


def import_all() -> None:
    """Import every ``repro`` module so every binding exists to patch."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install(on_call: dict | None = None) -> Tracer:
    """Import ``repro`` fully and wrap every declared span.

    ``on_call`` maps a span name to a per-call callback (see
    :meth:`Tracer.wrap`).  Raises if a target binds nowhere.
    """
    import_all()
    tracer = Tracer()
    on_call = on_call or {}
    for spec in SPANS:
        if tracer.patch(spec, on_call.get(spec.name)) == 0:
            raise RuntimeError(f"span {spec.name}: {spec.target} is bound "
                               "nowhere")
    return tracer
