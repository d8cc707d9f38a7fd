#!/usr/bin/env python3
"""The repair system's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run from the repository root.  Workloads (see README.md for why each
exists and which layers it stresses): ``fig8-serial``, ``detect-cold``,
``serve-open``.

Each run generates its inputs from ``--seed`` in a separate process,
then measures in fresh processes ("rounds"): ``--seconds`` worth of
rounds at each workload's nominal round length, always at least one.  Every round checks its outputs against
known answers.  Human-readable lines come first; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (every workload
reports all of them); with ``--trace 1`` a second, traced round runs on
the same inputs as an untraced one and the metrics are the per-layer
ones.  The exit code is 0 only when every check passed.

Throughput and latency are reported in *reference seconds*: wall time
scaled by the host's speed, which a calibrator thread samples while
each round measures (see ``calib.py``).  The raw wall-time figures are
printed alongside for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Minimum set-up samples per run: rounds plus set-up-only processes.
SETUP_SAMPLES = 5
#: Per-child wall limit, and the point after which no new child starts.
CHILD_TIMEOUT = 150.0
RUN_BUDGET = 140.0
#: Environment variables that would turn a repeat into a replay or change
#: pool sizing or fault injection; cleared for every child.
CLEARED_PREFIX = "REPRO_"

END_TO_END = (
    ("setup_s", "s"), ("throughput_per_ref_s", "1/ref_s"),
    ("latency_p50_ref_ms", "ref_ms"), ("peak_rss_mb", "MiB"),
    ("ok_share", "fraction"), ("pass_rate", "fraction"),
    ("exec_rate", "fraction"),
)
#: Printed for people but not part of the JSON result.  Raw wall times
#: follow the host's speed, which drifted by tens of percent within
#: seconds on the shared 2-CPU machine this was written on; p99s move
#: with every stall of that machine (serve-open's swung 35-160 ms between
#: runs of identical code).  Either is wider than any regression bound
#: the benchmark may set.
UNBOUNDED = (("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
             ("latency_p99_ms", "ms"), ("latency_p99_ref_ms", "ref_ms"))

#: What throughput, latency and the two rates mean on each workload.
MEANING = {
    "fig8-serial": {"throughput": "repairs per second",
                    "latency": "per repair, in-process",
                    "pass_rate": "pass_rate", "exec_rate": "exec_rate"},
    "detect-cold": {"throughput": "verdicts per second",
                    "latency": "per source, to verdict",
                    "pass_rate": "share the detector passes",
                    "exec_rate": "share the checker accepts"},
    "serve-open": {"throughput": "200 replies per second, closed loop",
                   "latency": "open-loop reply latency from due time",
                   "pass_rate": "pass_rate of open-loop replies",
                   "exec_rate": "exec_rate of open-loop replies"},
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> tuple[dict, list[str]]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(CLEARED_PREFIX)}
    cleared = sorted(key for key in os.environ
                     if key.startswith(CLEARED_PREFIX))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env, self.cleared = _child_env()
        self.started = time.monotonic()
        self.calls = 0

    def _run(self, argv: list[str]) -> None:
        # Its own process group, so a timed-out child's pool workers go
        # down with it.
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py")]
                                + argv, env=self.env, cwd=str(ROOT),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                start_new_session=True)
        try:
            output, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"child {argv[0]} timed out") from None
        if proc.returncode != 0:
            raise RuntimeError(f"child {argv[0]} exited "
                               f"{proc.returncode}:\n{output[-4000:]}")

    def generate(self) -> None:
        self._run(["gen", "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--size", self.args.size,
                   "--out", str(self.workdir)])

    def round(self, trace: int, setup_only: bool = False) -> dict:
        self.calls += 1
        out = self.workdir / f"round-{self.calls}.json"
        argv = ["round", "--workload", self.args.workload,
                "--inputs", str(self.workdir),
                "--trace", str(trace), "--seconds", str(self.args.seconds),
                "--out", str(out)]
        if setup_only:
            argv.append("--setup-only")
        argv += ["--t0", repr(time.monotonic())]
        self._run(argv)
        return json.loads(out.read_text())

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _supported_percentile(count: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99, 95, 90, 50):
        if count * (1 - q / 100.0) >= 10:
            return f"p{q:g}"
    return "none"


def _measure(runner: Runner, seconds: float) -> list[dict]:
    """The planned number of rounds; fewer only if the host is so slow
    that the next one would not end within ``RUN_BUDGET``."""
    planned = wl.planned_rounds(runner.args.workload, seconds,
                                runner.args.size)
    rounds = []
    begin = time.monotonic()
    while len(rounds) < planned:
        rounds.append(runner.round(trace=0))
        per_round = (time.monotonic() - begin) / len(rounds)
        if runner.elapsed() + per_round > RUN_BUDGET:
            break
    if len(rounds) < planned:
        print(f"perfbench: host too slow, made {len(rounds)} of {planned} "
              "rounds", file=sys.stderr)
    return rounds


def _setup_samples(runner: Runner, rounds: list[dict]) -> list[float]:
    samples = [r["extra"]["setup_s"] for r in rounds]
    wanted = SETUP_SAMPLES if runner.args.size == "full" else 1
    while len(samples) < wanted and runner.elapsed() < RUN_BUDGET:
        samples.append(runner.round(trace=0, setup_only=True)
                       ["extra"]["setup_s"])
    return samples


def _end_to_end(rounds: list[dict], setup: list[float]) -> dict:
    """Timings are medians over rounds, so one round caught in a slow
    spell of the machine does not move them."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    graded = sum(r["graded"] for r in rounds) or 1
    values = {"setup_s": statistics.median(setup)}
    for prefix, unit in (("", ""), ("ref_", "_ref")):
        values[f"throughput_per_{prefix}s"] = statistics.median(
            r["ops"] / r[f"{prefix}wall_s"] for r in rounds)
        for q in (50, 99):
            values[f"latency_p{q}{unit}_ms"] = statistics.median(
                wl.percentile(r[f"{prefix}latencies_ms"], q / 100.0)
                for r in rounds)
    return {
        **values,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "ok_share": 1.0 - failed / attempted if attempted else 0.0,
        "pass_rate": sum(r["passed"] for r in rounds) / graded,
        "exec_rate": sum(r["acceptable"] for r in rounds) / graded,
    }


def _print_end_to_end(workload: str, values: dict, rounds: list[dict],
                      setup: list[float]) -> None:
    meaning = MEANING[workload]
    samples = min(len(r["latencies_ms"]) for r in rounds)
    for name, unit in END_TO_END + UNBOUNDED:
        note = ""
        if name.startswith("latency"):
            note = (f"  [{meaning['latency']}; median of {len(rounds)} "
                    f"rounds of n>={samples}, highest supported percentile "
                    f"{_supported_percentile(samples)}]")
        elif name.startswith("throughput"):
            note = f"  [{meaning['throughput']}; {len(rounds)} rounds]"
        elif name in meaning:
            note = f"  [{meaning[name]}]"
        elif name == "setup_s":
            note = f"  [median of {len(setup)} processes]"
        if (name, unit) in UNBOUNDED:
            note += "  (printed only, not bounded)"
        print(f"{name:<22} {values[name]:>14.6f} {unit:<8}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the paper's default")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per run; sets the number of "
                             "rounds from each workload's nominal round "
                             "length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second smoke run of each "
                             "workload, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source under {ROOT / 'src'}; run from a "
                     "checkout of the repository")
    if not (wl.EXPECTED / "fig8_outcomes.json").is_file():
        return _fail("expected answers missing from perfbench/expected")

    work_root = ROOT / ".perfbench"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(args, workdir)
    try:
        runner.generate()
        if args.trace:
            rounds = [runner.round(trace=0), runner.round(trace=1)]
        else:
            rounds = _measure(runner, args.seconds)
            setup = _setup_samples(runner, rounds)
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    known = sum(r["known_defects"] for r in rounds)
    check_failures = [msg for r in rounds for msg in r["check_failures"]]
    correct = not check_failures and attempted > 0

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"settings: cleared {runner.cleared or 'no'} REPRO_* variables; "
          f"PYTHONHASHSEED=0; python {sys.version.split()[0]}; "
          f"cpus {os.cpu_count()}; fig8 executor serial, no result cache; "
          f"serve {wl.SERVE_WORKERS} workers, {wl.SERVE_CONNECTIONS} "
          f"connections, {wl.SERVE_RATE:g} req/s open loop")
    print(f"attempted {attempted}  failed {failed}  (known defects "
          f"{known})  fail_share {failed / max(attempted, 1):.6f}")
    for message in check_failures:
        print(f"CHECK FAILED: {message}")

    if args.trace:
        untraced, traced = rounds
        metrics = dict(traced["layers"])
        base = untraced["ops"] / untraced["ref_wall_s"]
        slowed = traced["ops"] / traced["ref_wall_s"]
        metrics["bench.trace_overhead"] = base / slowed if slowed else 0.0
        units = layer_units()
        for name in sorted(metrics):
            print(f"{name:<44} {metrics[name]:>14.6f} {units[name]}")
        payload = {name: {"value": metrics[name], "unit": units[name]}
                   for name in sorted(metrics)}
    else:
        values = _end_to_end(rounds, setup)
        _print_end_to_end(args.workload, values, rounds, setup)
        payload = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": payload}))
    return 0 if correct else 1


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, keyed by name."""
    from tracer import SPANS

    units = {}
    for spec in SPANS:
        for stat in spec.stats:
            units[f"{spec.name}.{stat}"] = {"calls": "count", "self_s": "s",
                                            "hit_ratio": "fraction"}[stat]
    units.update({
        "miri.requests": "count", "miri.runs": "count",
        "miri.runs_per_request": "ratio", "miri.case_memo_hits": "count",
        "miri.fingerprint_hits": "count",
        "service.queue_wait_p50_ms": "ms",
        "service.coalesce_hit_ratio": "fraction",
        "service.cache_hit_ratio": "fraction",
        "bench.serve.lag_p99_ms": "ms", "bench.trace_overhead": "ratio",
        "bench.known_defects": "count",
    })
    return units


if __name__ == "__main__":
    sys.exit(main())
