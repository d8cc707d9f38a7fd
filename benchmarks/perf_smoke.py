#!/usr/bin/env python3
"""Campaign perf smoke: serial vs process pool, cold vs warm cache.

Times a fixed two-arm campaign under three configurations and writes the
trajectory to ``BENCH_campaign.json`` in a stable schema
(``repro.bench_campaign/2``) so successive PRs can track execution-layer
speedups and regressions per commit:

* ``serial_cold``  — executor="serial", no cache (the reference run);
* ``process_cold`` — executor="process", cold content-addressed cache;
* ``process_warm`` — same campaign again on the now-warm cache (must
  perform zero engine case executions).

Schema ``/2`` adds a ``vm_vs_tree`` stage comparing the bytecode VM
against the reference tree-walking interpreter over the workload's
sources: compile cost, repeated-execution wall time per engine, the
resulting speedup, and a hard ``vm_matches_tree`` byte-identity gate
(kind, span, stdout, and step counts must agree in both collect modes).

Wall-clock numbers are environment-dependent and NOT asserted; the
``checks`` are hard correctness gates (byte-identical arms across
backends, pure replay on a warm cache, VM byte-identical to the
tree-walker) and the script exits non-zero if any fails.

Run:  PYTHONPATH=src python benchmarks/perf_smoke.py [OUTPUT.json]
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import time

from repro.corpus.dataset import load_dataset
from repro.engine import Campaign, ResultCache
from repro.miri.errors import UbKind

#: Fixed workload: two arms over three categories, enough cases to load a
#: small pool but quick enough for a per-PR CI step.
ENGINES = ["llm_only?batched=on", "rustbrain?kb=off"]
CATEGORIES = [UbKind.UNINIT, UbKind.PANIC, UbKind.DANGLING_POINTER]
SEED = 3
WORKERS = 4
SHARD_SIZE = 4
#: Repeated-execution sweeps for the vm_vs_tree stage (amortizes noise).
EXEC_SWEEPS = 5

SCHEMA = "repro.bench_campaign/2"
DEFAULT_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_campaign.json"


def _timed_run(dataset, *, executor: str, workers: int,
               cache: ResultCache | None):
    campaign = Campaign(ENGINES, dataset, seed=SEED, workers=workers,
                        shard_size=SHARD_SIZE, executor=executor,
                        cache=cache)
    start = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def _arm_payload(result) -> str:
    return json.dumps([arm.to_dict() for arm in result.arms],
                      sort_keys=True)


def _run_entry(name: str, executor: str, workers: int, cached: bool,
               result, elapsed: float) -> dict:
    hits, misses = result.telemetry.cache_counts()
    return {
        "name": name,
        "executor": executor,
        "workers": workers,
        "cache": cached,
        "wall_seconds": round(elapsed, 4),
        "cache_hits": hits,
        "cache_misses": misses,
        "cases": sum(len(arm.reports) for arm in result.arms),
        "passed": sum(report.passed for arm in result.arms
                      for report in arm.reports),
    }


def _vm_vs_tree_stage(dataset) -> dict:
    """Compare the bytecode VM with the tree-walker on this workload.

    Measures one-time compile cost, repeated-execution wall time per
    engine (``EXEC_SWEEPS`` sweeps over every buggy and fixed source),
    and runs the hard byte-identity gate: every source through both
    engines in both collect modes via
    :func:`repro.miri.vm.check_divergence`.
    """
    from repro.lang.parser import parse_program
    from repro.miri.bytecode import compile_program
    from repro.miri.interp import run_program
    from repro.miri.vm import check_divergence

    sources = [case.source for case in dataset.cases] + \
        [case.fixed_source for case in dataset.cases]
    programs = [parse_program(source) for source in sources]

    start = time.perf_counter()
    compiled = [compile_program(program, source)
                for program, source in zip(programs, sources)]
    compile_seconds = time.perf_counter() - start

    # Warm both engines once, then time repeated execution sweeps.
    for program in programs:
        run_program(program, engine="tree")
    for program, unit in zip(programs, compiled):
        run_program(program, engine="vm", compiled=unit)
    start = time.perf_counter()
    for _ in range(EXEC_SWEEPS):
        for program in programs:
            run_program(program, engine="tree")
    tree_seconds = (time.perf_counter() - start) / EXEC_SWEEPS
    start = time.perf_counter()
    for _ in range(EXEC_SWEEPS):
        for program, unit in zip(programs, compiled):
            run_program(program, engine="vm", compiled=unit)
    vm_seconds = (time.perf_counter() - start) / EXEC_SWEEPS

    # detect_ub over already-seen source text, interpreting every time.
    # The VM's compile memo skips the parse and the per-run AST clone the
    # tree engine pays on every detect, which is where its edge lives.
    # The verdict memo is switched off: it would answer every repeat
    # without running either engine.
    from repro.miri import CASE_MEMO, detect_ub
    detect_seconds = {}
    CASE_MEMO.enabled = False
    try:
        for engine in ("tree", "vm"):
            for source in sources:
                detect_ub(source, engine=engine)
            start = time.perf_counter()
            for _ in range(EXEC_SWEEPS):
                for source in sources:
                    detect_ub(source, engine=engine)
            detect_seconds[engine] = \
                (time.perf_counter() - start) / EXEC_SWEEPS
    finally:
        CASE_MEMO.enabled = True

    divergences = []
    for index, source in enumerate(sources):
        for collect in (False, True):
            divergence = check_divergence(source, f"bench[{index}]",
                                          collect=collect)
            if divergence is not None:
                divergences.append(divergence)

    # Runs of one compiled program needed before the compile pays for
    # itself against tree execution (None when the VM sweep is not
    # faster — the compile then never amortizes on pure re-execution).
    per_run_saving = (tree_seconds - vm_seconds) / len(sources)
    per_compile = compile_seconds / len(sources)
    amortize_after = (round(per_compile / per_run_saving, 1)
                      if per_run_saving > 0 else None)

    return {
        "sources": len(sources),
        "exec_sweeps": EXEC_SWEEPS,
        "compile_seconds": round(compile_seconds, 4),
        "tree_exec_seconds": round(tree_seconds, 4),
        "vm_exec_seconds": round(vm_seconds, 4),
        "exec_speedup": round(tree_seconds / vm_seconds, 3)
        if vm_seconds > 0 else None,
        "tree_detect_seconds": round(detect_seconds["tree"], 4),
        "vm_detect_seconds": round(detect_seconds["vm"], 4),
        "detect_speedup": round(detect_seconds["tree"]
                                / detect_seconds["vm"], 3)
        if detect_seconds["vm"] > 0 else None,
        "compile_amortized_after_runs": amortize_after,
        "divergences": [d.render() for d in divergences[:5]],
        "vm_matches_tree": not divergences,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = pathlib.Path(argv[0]) if argv else DEFAULT_OUT
    dataset = load_dataset().subset(CATEGORIES)

    serial, serial_secs = _timed_run(dataset, executor="serial", workers=1,
                                     cache=None)
    with tempfile.TemporaryDirectory(prefix="repro-perf-smoke-") as tmp:
        cache = ResultCache(tmp)
        cold, cold_secs = _timed_run(dataset, executor="process",
                                     workers=WORKERS, cache=cache)
        warm, warm_secs = _timed_run(dataset, executor="process",
                                     workers=WORKERS, cache=cache)

    vm_vs_tree = _vm_vs_tree_stage(dataset)

    total = sum(len(arm.reports) for arm in serial.arms)
    checks = {
        "process_matches_serial": _arm_payload(cold) == _arm_payload(serial),
        "warm_zero_executions":
            warm.telemetry.cache_counts() == (total, 0)
            and _arm_payload(warm) == _arm_payload(cold),
        "vm_matches_tree": vm_vs_tree["vm_matches_tree"],
    }
    payload = {
        "schema": SCHEMA,
        "config": {
            "engines": ENGINES,
            "categories": sorted(cat.value for cat in CATEGORIES),
            "cases": len(dataset),
            "seed": SEED,
            "workers": WORKERS,
            "shard_size": SHARD_SIZE,
        },
        "runs": [
            _run_entry("serial_cold", "serial", 1, False, serial,
                       serial_secs),
            _run_entry("process_cold", "process", WORKERS, True, cold,
                       cold_secs),
            _run_entry("process_warm", "process", WORKERS, True, warm,
                       warm_secs),
        ],
        "speedups": {
            "process_vs_serial": round(serial_secs / cold_secs, 3)
            if cold_secs > 0 else None,
            "warm_vs_cold": round(cold_secs / warm_secs, 3)
            if warm_secs > 0 else None,
        },
        "vm_vs_tree": vm_vs_tree,
        "checks": checks,
    }

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {out_path}")
    for run in payload["runs"]:
        print(f"  {run['name']:13s} {run['wall_seconds']:8.3f}s  "
              f"cache {run['cache_hits']}h/{run['cache_misses']}m")
    print(f"  speedups: {payload['speedups']}  checks: {checks}")
    print(f"  vm_vs_tree: exec {vm_vs_tree['tree_exec_seconds']:.4f}s tree "
          f"/ {vm_vs_tree['vm_exec_seconds']:.4f}s vm "
          f"(x{vm_vs_tree['exec_speedup']}), detect "
          f"x{vm_vs_tree['detect_speedup']}, compile "
          f"{vm_vs_tree['compile_seconds']:.4f}s, matches="
          f"{vm_vs_tree['vm_matches_tree']}")
    if not all(checks.values()):
        print("perf smoke FAILED correctness checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
