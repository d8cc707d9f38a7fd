"""The workloads: seeded input generation and one measured round each.

Every function here runs inside a child process started by ``run.py``:
``generate`` in a generator process (its validation runs warm the
program's memos, so it never shares a process with a measured round),
``run_round`` in a fresh process per round.  A round returns a plain
dict (see :func:`round_result`) that ``run.py`` aggregates.

Known answers (a mismatch is a failed operation *and* a failed check):

* fig8-serial: every (arm, repeat seed) sweep reproduces its recorded
  per-case outcomes in ``expected/fig8_outcomes.json``; on the default
  seed the rendered Fig. 8/9 tables equal ``expected/fig0{8,9}_*.txt``,
  copies of the committed ``benchmarks/out`` tables.
* detect-cold: buggy sources report their labelled ``UbKind`` first
  (TAIL_CALL relaxed exactly as the corpus generator's ``validate_case``
  relaxes it); fixed sources, dynamic-UB sources and nesting-stress
  programs check with zero diagnostics, and all but the buggy ones pass
  the detector; compile cases report their ``expected_code``.
* serve-open: every reply is 200 and carries a report.

One class of failure is a *known defect* of the program at the commit
that introduced this benchmark: a nesting-stress program nested
``STRESS_KNOWN_DEPTH`` or more levels deep, past what the
recursive-descent front ends can take, makes ``check_source`` raise
``RecursionError`` and ``detect_ub`` report a spurious ``COMPILE``.
Those count as failed operations (``failed`` and ``ok_share`` show
them, and the traced run reports their number as
``bench.known_defects``) but do not fail the run; any other mismatch
does, a shallower stress program failing the same way included.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import shutil
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

WORKLOADS = ("fig8-serial", "detect-cold", "serve-open")

#: Most measured rounds in one run.
MAX_ROUNDS = 8
#: Nominal wall seconds of one round on the 2-CPU machine this was
#: written on.  A run makes ``--seconds`` / this many rounds, a number
#: fixed by its arguments and not by the host's speed, so two runs of
#: one seed attempt (and fail) exactly the same operations.
ROUND_SECONDS = {"fig8-serial": 12.0, "detect-cold": 5.0, "serve-open": 45.0}

# -- fig8-serial -----------------------------------------------------------

#: Fig. 8/9's seven (model, engine) arms, in table column order.
FIG8_ARMS = (
    ("gpt-3.5", "llm_only"),
    ("claude-3.5", "llm_only"),
    ("gpt-4", "llm_only"),
    ("gpt-3.5", "rustbrain"),
    ("claude-3.5", "rustbrain"),
    ("gpt-4", "rustbrain_nokb"),
    ("gpt-4", "rustbrain"),
)
FIG8_TINY_ARMS = (("gpt-3.5", "llm_only"), ("gpt-4", "rustbrain"))
#: The paper's repeat seeds; the default benchmark seed uses exactly these.
FIG8_DEFAULT_SEEDS = (3, 11, 23)
#: Every repeat seed a benchmark seed may pick; expected/fig8_outcomes.json
#: covers each (arm, seed) pair.
FIG8_SEED_POOL = (3, 11, 23, 5, 7, 13, 17, 19, 29, 31, 37, 41)
FIG8_TEMPERATURE = 0.5

# -- detect-cold -----------------------------------------------------------

#: Generated dynamic-UB cases (two sources each) and compile cases.
DETECT_GENERATED = {"full": 600, "tiny": 12}
DETECT_COMPILE = {"full": 240, "tiny": 6}
#: Share of nesting-stress programs, and their nesting depth range.
STRESS_SHARE = 0.01
STRESS_DEPTH = (100, 300)
#: The shallowest nesting at which the front ends hit Python's recursion
#: limit (the known defect; both shapes, traced or not).
STRESS_KNOWN_DEPTH = 109
#: Share of the stress programs drawn below ``STRESS_KNOWN_DEPTH`` (the
#: rest are drawn at or above it), so every seed carries the same number
#: of programs past the limit.
STRESS_SHALLOW_SHARE = 0.1

# -- serve-open ------------------------------------------------------------

SERVE_ENGINES = ("rustbrain", "llm_only", "cascade")
SERVE_GENERATED = {"full": 20, "tiny": 4}
#: Open-loop arrival rate (requests per second, a pair counting as two):
#: about a fifth of the closed-loop capacity (~150/s on the 2-CPU machine
#: this was written on).  Queueing grows faster than linearly as the host
#: slows, which reference seconds cannot undo; at 50/s that left a
#: ten-seed spread (IQR / median) of 0.09-0.13 in latency_p50_ref_ms.
SERVE_RATE = 30.0
#: Each leg makes whole passes over every (case, engine) pair, so every
#: seed's leg carries the same repairs.  Two open-loop passes are ~1,100
#: requests (~36 s): a p99 with ten samples beyond it.
SERVE_OPEN_PASSES = 2
SERVE_CLOSED_PASSES = 2
SERVE_REPEAT_SHARE = 0.2
SERVE_PAIR_SHARE = 0.1
SERVE_CONNECTIONS = 2
SERVE_WORKERS = 2
LOADGEN_TIMEOUT = 140.0
HOST = "127.0.0.1"


# ---------------------------------------------------------------------------
# Shared helpers


def peak_rss_mb() -> float:
    """This process's resident high-water mark, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def planned_rounds(workload: str, seconds: float, size: str) -> int:
    """How many measured rounds a run makes: ``seconds`` worth of
    nominal rounds, at least one and at most ``MAX_ROUNDS``."""
    if size != "full":
        return 1
    return max(1, min(MAX_ROUNDS, round(seconds / ROUND_SECONDS[workload])))


def round_result(**fields) -> dict:
    """What a round reports to ``run.py``; unset fields take defaults.

    ``window`` is the ``time.monotonic()`` interval in which the round
    did its ``ops`` operations; ``spans`` are the intervals whose
    lengths are its latencies.  :func:`add_timings` turns both into
    wall and reference-host times."""
    base = {"ops": 0, "window": [0.0, 0.0], "spans": [], "attempted": 0,
            "failed": 0, "known_defects": 0, "check_failures": [],
            "passed": 0, "acceptable": 0, "graded": 0, "peak_rss_mb": 0.0,
            "extra": {}}
    base.update(fields)
    return base


def add_timings(result: dict, speed) -> None:
    """Fill in ``wall_s`` and ``latencies_ms`` from the round's window
    and spans, and their reference-host counterparts ``ref_wall_s`` and
    ``ref_latencies_ms`` from the calibrator's samples ``speed``."""
    start, end = result.pop("window")
    spans = result.pop("spans")
    result["wall_s"] = end - start
    result["latencies_ms"] = [(b - a) * 1000.0 for a, b in spans]
    result["ref_wall_s"] = speed.ref_seconds(start, end)
    result["ref_latencies_ms"] = [speed.ref_seconds(a, b) * 1000.0
                                  for a, b in spans]


def note(failures: list, message: str, limit: int = 20) -> None:
    """Keep the first ``limit`` failure messages."""
    if len(failures) < limit:
        failures.append(message)


# ---------------------------------------------------------------------------
# fig8-serial


def gen_fig8(seed: int, size: str, out: Path) -> None:
    """The seed picks the repeat seeds; every round of a run repeats the
    same sweep, so rounds differ only in how long they take."""
    if seed == 0 and size == "full":
        seeds = list(FIG8_DEFAULT_SEEDS)
    else:
        rng = random.Random(seed)
        seeds = sorted(rng.sample(FIG8_SEED_POOL, 3 if size == "full" else 1))
    arms = FIG8_ARMS if size == "full" else FIG8_TINY_ARMS
    (out / "inputs.json").write_text(json.dumps(
        {"arms": [list(arm) for arm in arms], "seeds": seeds}))


def fig8_label(model: str, kind: str) -> str:
    """The Fig. 8/9 column label of an arm."""
    if kind == "rustbrain_nokb":
        return f"{model}+RustBrain(non knowledge)"
    if kind == "rustbrain":
        return f"{model}+RustBrain"
    return model


def outcome_string(reports) -> str:
    """Per-case outcomes: ``0`` failed, ``p`` passed, ``a`` acceptable."""
    return "".join("a" if r.acceptable else "p" if r.passed else "0"
                   for r in reports)


def fig8_tables(runs_by_label: dict) -> tuple[str, str]:
    """Render Fig. 8 and Fig. 9 exactly as benchmarks/test_fig0{8,9}_*.py
    do, from ``{label: [SystemResults per repeat seed]}``."""
    from repro.bench.reporting import category_label, render_table
    from repro.bench.stats import mean
    from repro.miri.errors import PAPER_CATEGORIES

    tables = []
    for metric, title in (
            ("pass", "Fig. 8 — pass-by-Miri rate (%)"),
            ("exec", "Fig. 9 — semantic acceptability (exec) rate (%)")):
        headers = ["category"] + list(runs_by_label)
        rows = []
        per_cat = {}
        overall = {}
        for label, runs in runs_by_label.items():
            by_cat: dict = {}
            for run in runs:
                rates = (run.category_pass_rates() if metric == "pass"
                         else run.category_exec_rates())
                for category, rate in rates.items():
                    by_cat.setdefault(category, []).append(rate)
            per_cat[label] = {c: mean(v) for c, v in by_cat.items()}
            overall[label] = mean([run.pass_rate() if metric == "pass"
                                   else run.exec_rate() for run in runs])
        for category in PAPER_CATEGORIES:
            rows.append([category_label(category)]
                        + [f"{100 * per_cat[label].get(category, 0.0):.0f}"
                           for label in runs_by_label])
        rows.append(["AVERAGE"] + [f"{100 * overall[label]:.1f}"
                                   for label in runs_by_label])
        tables.append(render_table(headers, rows, title=title) + "\n")
    return tables[0], tables[1]


class _RepairClock:
    """Campaign observer timing each in-process repair (start → done)."""

    def __init__(self):
        from repro.engine.telemetry import CampaignObserver

        self.spans: list[tuple[float, float]] = []
        self._started: dict = {}
        outer = self

        class Observer(CampaignObserver):
            def on_case_start(self, event):
                outer._started[(event.engine, event.index)] = \
                    time.monotonic()

            def on_case_done(self, event):
                start = outer._started.pop((event.engine, event.index))
                outer.spans.append((start, time.monotonic()))

        self.observer = Observer()


def setup_fig8():
    from repro.core.knowledge import KnowledgeBase
    from repro.corpus.dataset import load_dataset
    from repro.engine.campaign import Campaign  # noqa: F401  (import cost)

    KnowledgeBase.default()
    return load_dataset()


def round_fig8(inputs: dict, dataset) -> dict:
    from repro.engine.campaign import Campaign
    from repro.engine.spec import EngineSpec

    seeds = inputs["seeds"]
    arms = [tuple(arm) for arm in inputs["arms"]]
    clock = _RepairClock()
    runs_by_label: dict = {}
    outcomes: dict = {}
    start = time.monotonic()
    for model, kind in arms:
        base = EngineSpec.coerce(kind)
        specs = [EngineSpec(base.name, base.params + (("seed", str(seed)),))
                 for seed in seeds]
        result = Campaign(specs, dataset, model=model,
                          temperature=FIG8_TEMPERATURE, isolation="shared",
                          executor="serial", workers=1,
                          observers=[clock.observer]).run()
        label = fig8_label(model, kind)
        runs_by_label[label] = [arm.results for arm in result.arms]
        for seed, arm in zip(seeds, result.arms):
            outcomes[f"{model}|{kind}|{seed}"] = outcome_string(arm.reports)
    window = [start, time.monotonic()]

    expected = json.loads((EXPECTED / "fig8_outcomes.json").read_text())
    failures: list[str] = []
    failed = passed = acceptable = 0
    for key, got in outcomes.items():
        want = expected.get(key)
        passed += sum(ch != "0" for ch in got)
        acceptable += got.count("a")
        if want is None:
            failed += len(got)
            note(failures, f"{key}: no recorded outcomes")
            continue
        wrong = sum(a != b for a, b in zip(got, want)) \
            + abs(len(got) - len(want))
        if wrong:
            failed += wrong
            note(failures, f"{key}: {wrong} case outcomes differ")
    if tuple(seeds) == FIG8_DEFAULT_SEEDS and len(arms) == len(FIG8_ARMS):
        fig8, fig9 = fig8_tables(runs_by_label)
        for name, text in (("fig08_pass_rates.txt", fig8),
                           ("fig09_exec_rates.txt", fig9)):
            if text != (EXPECTED / name).read_text():
                failed += 1
                note(failures, f"{name}: table differs from the committed "
                                "one")
    repairs = sum(len(o) for o in outcomes.values())
    return round_result(ops=repairs, window=window, spans=clock.spans,
                        attempted=repairs, failed=min(failed, repairs),
                        check_failures=failures, passed=passed,
                        acceptable=acceptable, graded=repairs,
                        peak_rss_mb=peak_rss_mb())


# ---------------------------------------------------------------------------
# detect-cold


def stress_program(depth: int, shape: str) -> str:
    """A legal, UB-free program nesting parens or blocks ``depth`` deep."""
    if shape == "parens":
        expr = "(" * depth + "1" + ")" * depth
    else:
        expr = "{ " * depth + "1" + " }" * depth
    return ("fn main() {\n    let x = " + expr
            + ";\n    println!(\"{}\", x);\n}\n")


def detect_items(generated, stress: list, order: list | None = None
                 ) -> list[dict]:
    """Every detect-cold source with its known answer: the hand-written
    buggy and fixed sources, the compile-error corpus, ``generated`` and
    the ``(shape, depth)`` nesting-stress programs, in ``order``."""
    from repro.corpus.dataset import load_compile_dataset, load_dataset

    items = []
    for case in [*load_dataset(), *load_compile_dataset(), *generated]:
        if case.expected_code is not None:
            items.append({"text": case.source, "kind": "compile",
                          "label": case.expected_code})
        else:
            items.append({"text": case.source, "kind": "buggy",
                          "label": case.category.value})
        items.append({"text": case.fixed_source, "kind": "fixed",
                      "label": None})
    for shape, depth in stress:
        items.append({"text": stress_program(depth, shape), "kind": "stress",
                      "label": f"{shape}:{depth}"})
    return items if order is None else [items[index] for index in order]


def gen_detect(seed: int, size: str, out: Path) -> None:
    from repro.corpus.generator import (generate_compile_corpus,
                                        generate_corpus)
    from repro.corpus.manifest import save_manifest

    generated = (generate_corpus(DETECT_GENERATED[size], seed)[0]
                 + generate_compile_corpus(DETECT_COMPILE[size], seed)[0])
    save_manifest(generated, out / "manifest.json")
    rng = random.Random(seed)
    sources = len(detect_items(generated, []))
    count = max(1, round(STRESS_SHARE * sources))
    shallow = round(STRESS_SHALLOW_SHARE * count)
    low, high = STRESS_DEPTH
    stress = [[rng.choice(("parens", "blocks")),
               rng.randint(low, STRESS_KNOWN_DEPTH - 1) if index < shallow
               else rng.randint(STRESS_KNOWN_DEPTH, high)]
              for index in range(count)]
    order = list(range(sources + len(stress)))
    rng.shuffle(order)
    (out / "inputs.json").write_text(json.dumps({"stress": stress,
                                                 "order": order}))


def _kind_aliases() -> dict[str, tuple[str, ...]]:
    """``validate_case``'s relaxation: a TAIL_CALL case may surface as the
    function-pointer or function-call UB that the tail call trips first."""
    from repro.miri.errors import UbKind

    return {UbKind.TAIL_CALL.value: (UbKind.TAIL_CALL.value,
                                     UbKind.FUNC_POINTER.value,
                                     UbKind.FUNC_CALL.value)}


def setup_detect(inputs: dict, workdir: Path) -> list[dict]:
    from repro.check import check_source  # noqa: F401  (import cost)
    from repro.corpus.manifest import load_manifest
    from repro.miri import detect_ub  # noqa: F401

    generated = load_manifest(workdir / "manifest.json")
    return detect_items(generated, inputs["stress"], inputs["order"])


def _known_defect(label: str, check: tuple, detect: tuple) -> bool:
    """Whether a failed stress program shows only the known defect: it
    is at least ``STRESS_KNOWN_DEPTH`` deep, and each front door either
    got it right or hit the recursion limit."""
    if int(label.split(":")[1]) < STRESS_KNOWN_DEPTH:
        return False
    check_known = check in (("ok", ()), ("raised", "RecursionError"))
    detect_known = detect[0] == "ok" and (
        detect[1] or (detect[2] == "compile" and "recursion" in detect[3]))
    return check_known and detect_known


def round_detect(items: list[dict]) -> dict:
    from repro.check import check_source
    from repro.miri import detect_ub

    outcomes = []
    spans = []
    clock = time.monotonic
    start = clock()
    for item in items:
        text = item["text"]
        began = clock()
        try:
            checked = check_source(text)
            check = ("ok", tuple(checked.codes()))
        except Exception as exc:  # a front door that raised: a failed op
            check = ("raised", type(exc).__name__)
        try:
            report = detect_ub(text, collect=True)
            detect = ("ok", report.passed,
                      report.errors[0].kind.value if report.errors else None,
                      report.errors[0].message if report.errors else "")
        except Exception as exc:
            detect = ("raised", type(exc).__name__)
        spans.append((began, clock()))
        outcomes.append((check, detect))
    window = [start, clock()]

    aliases = _kind_aliases()
    failures: list[str] = []
    failed = known = passed = accepted = 0
    for item, (check, detect) in zip(items, outcomes):
        kind, label = item["kind"], item["label"]
        clean = check[0] == "ok" and not check[1]
        accepted += clean
        detect_ok = detect[0] == "ok"
        passed += detect_ok and detect[1]
        if kind == "compile":
            good = check[0] == "ok" and label in check[1]
        elif kind == "buggy":
            good = (clean and detect_ok and not detect[1]
                    and detect[2] in aliases.get(label, (label,)))
        else:
            good = clean and detect_ok and detect[1]
        if good:
            continue
        failed += 1
        if kind == "stress" and _known_defect(label, check, detect):
            known += 1
            continue
        note(failures, f"{kind} {label}: check={check} detect={detect[:3]}")
    return round_result(ops=len(items), window=window, spans=spans,
                        attempted=len(items), failed=failed,
                        known_defects=known,
                        check_failures=failures, passed=passed,
                        acceptable=accepted, graded=len(items),
                        peak_rss_mb=peak_rss_mb())


# ---------------------------------------------------------------------------
# serve-open


def _serve_stream(cases: list, rng: random.Random, passes_wanted: int
                  ) -> list:
    """Arrival slots of one or two payloads each, for ``passes_wanted``
    whole passes over every (case, engine) pair.

    Fresh requests walk seeded permutations of every (case, engine)
    pair, so every seed carries nearly the same work mix.  A fresh
    request's engine seed is derived from its case, engine and pass
    through the permutation: distinct within a run, so it misses the
    cache, and the same repair whichever seed ordered it, so the slow
    tail of repairs does not change with the seed.  About one slot in
    five repeats an earlier request exactly and one in ten is a pair
    with a reformatted twin of identical fingerprint.
    """
    from repro.corpus.generator import mutate_format

    combos = [(case, engine) for case in cases for engine in SERVE_ENGINES]
    order: list = []
    passes = 0
    sent: list[dict] = []
    slots: list[list[dict]] = []
    while order or passes < passes_wanted:
        roll = rng.random()
        if sent and roll < SERVE_REPEAT_SHARE:
            slots.append([dict(rng.choice(sent))])
            continue
        if not order:
            order = combos[:]
            rng.shuffle(order)
            passes += 1
        case, engine = order.pop()
        engine_seed = zlib.crc32(f"{case.name}|{engine}|{passes}".encode())
        payload = {"source": case.source, "engine": engine,
                   "model": "gpt-4", "seed": engine_seed,
                   "temperature": 0.5, "name": case.name,
                   "difficulty": case.difficulty,
                   "category": case.category.value,
                   "index": 0, "reference_source": case.fixed_source}
        sent.append(payload)
        if roll < SERVE_REPEAT_SHARE + SERVE_PAIR_SHARE:
            twin = dict(payload, source=mutate_format(case, rng)[0])
            slots.append([payload, twin])
        else:
            slots.append([payload])
    return slots


def gen_serve(seed: int, size: str, out: Path) -> None:
    from repro.corpus.dataset import load_dataset
    from repro.corpus.generator import generate_corpus

    generated, _ = generate_corpus(SERVE_GENERATED[size], seed)
    corpus = list(load_dataset())
    cases = (corpus if size == "full" else corpus[:8]) + list(generated)
    rng = random.Random(seed)
    open_slots = _serve_stream(cases, rng, SERVE_OPEN_PASSES)
    closed = [payload
              for slot in _serve_stream(cases, rng, SERVE_CLOSED_PASSES)
              for payload in slot]
    (out / "inputs.json").write_text(json.dumps(
        {"open": open_slots, "closed": closed}))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _Servers:
    """The open-loop server and the fresh closed-loop one, each a
    ``RepairServer`` over its own fresh cache directory, both bound on
    entry and stopped on exit."""

    def __init__(self, workdir: Path):
        from repro.engine.cache import ResultCache
        from repro.service.server import RepairServer

        self.cache_dirs = [workdir / f"cache-{leg}-{os.getpid()}"
                           for leg in ("open", "closed")]
        self.servers = [
            RepairServer(host=HOST, port=0, workers=SERVE_WORKERS,
                         max_queue=1024, rate=1e9, burst=1e9,
                         cache=ResultCache(cache_dir))
            for cache_dir in self.cache_dirs]

    async def __aenter__(self):
        for server in self.servers:
            await server.start()
        return self.servers

    async def __aexit__(self, *exc):
        for server in self.servers:
            await server.stop()
        for cache_dir in self.cache_dirs:
            shutil.rmtree(cache_dir, ignore_errors=True)


def setup_serve():
    from repro.core.knowledge import KnowledgeBase
    from repro.corpus.dataset import load_dataset
    from repro.service.server import RepairServer  # noqa: F401  (import cost)

    KnowledgeBase.default()
    load_dataset()


async def _serve_round(workdir: Path, setup_done, cpus: list[int]) -> dict:
    out = workdir / f"loadgen-{os.getpid()}.json"
    async with _Servers(workdir) as (open_server, closed_server):
        setup_s = setup_done()
        generator = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "loadgen.py"),
            "--inputs", str(workdir / "inputs.json"),
            "--open-port", str(open_server.port),
            "--closed-port", str(closed_server.port), "--out", str(out),
            "--cpus", ",".join(map(str, cpus)))
        try:
            code = await asyncio.wait_for(generator.wait(), LOADGEN_TIMEOUT)
        except asyncio.TimeoutError:
            generator.kill()
            await generator.wait()
            raise RuntimeError("load generator timed out") from None
    if code != 0:
        raise RuntimeError(f"load generator exited {code}")
    load = json.loads(out.read_text())
    out.unlink()
    closed = load["closed"]
    cache = load["stats"].get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return round_result(
        ops=closed["completed"], window=closed["window"],
        spans=load["spans"],
        attempted=load["attempted"] + closed["completed"] + closed["failed"],
        failed=load["failed"] + closed["failed"],
        check_failures=load["failures"], passed=load["passed"],
        acceptable=load["acceptable"], graded=len(load["spans"]),
        peak_rss_mb=peak_rss_mb(),
        extra={"setup_s": setup_s, "lags_ms": load["lags_ms"],
               "replies": load["replies"],
               "coalesce_hit_ratio": load["stats"]["coalescing"]["hit_rate"],
               "cache_hit_ratio": (cache.get("hits", 0) / lookups
                                   if lookups else 0.0)})


def run_setup_only_serve(workdir: Path, setup_done) -> dict:
    """Set-up only: the imports done by the caller, plus the server binds."""
    async def bind() -> float:
        async with _Servers(workdir):
            return setup_done()

    return round_result(extra={"setup_s": asyncio.run(bind())})


def round_serve(inputs: dict, *, workdir: Path, setup_done,
                cpus: list[int]) -> dict:
    """``inputs`` are read by the load generator from ``workdir``; it
    runs on ``cpus`` (the server's process is pinned to another)."""
    return asyncio.run(_serve_round(workdir, setup_done, cpus))
