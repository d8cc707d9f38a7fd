"""Child processes of ``run.py``: input generation and measured rounds.

    child.py gen   --workload W --seed N --size full|tiny --out DIR
    child.py round --workload W --inputs DIR --trace 0|1
                   --seconds S --t0 T --out FILE [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the first timed operation.  A
round pins itself to one CPU, and a calibrator thread (``calib.py``)
runs from the end of set-up until the round ends.  A round writes one JSON object (see ``workloads.round_result`` and
``workloads.add_timings``) to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import calib
import workloads as wl


def _generate(args) -> None:
    out = Path(args.out)
    generators = {"fig8-serial": wl.gen_fig8, "detect-cold": wl.gen_detect,
                  "serve-open": wl.gen_serve}
    generators[args.workload](args.seed, args.size, out)
    # Compile the program's modules to bytecode here, so the first
    # measured process does not pay for it.
    import tracer
    tracer.import_all()


def _service_queue_wait(replies: list, executions: dict) -> list[float]:
    """Per reply: its latency minus the execution that answered it."""
    waits = []
    for name, seed, index, engine, due, done in replies:
        candidates = executions.get((name, seed, index, engine), [])
        inside = [(start, end) for start, end in candidates
                  if start <= done and end <= done]
        if not inside:
            continue
        start, end = max(inside)
        waits.append(max(0.0, (done - due) - (end - start)) * 1000.0)
    return waits


def _layer_metrics(workload: str, tracer_obj, result: dict,
                   stats_before: dict, executions: dict) -> dict:
    from repro.miri import DETECTOR_STATS

    metrics = tracer_obj.span_metrics()
    after = DETECTOR_STATS.snapshot()
    delta = {key: after[key] - stats_before.get(key, 0) for key in after}
    metrics["miri.requests"] = delta["requests"]
    metrics["miri.runs"] = delta["runs"]
    metrics["miri.runs_per_request"] = (delta["runs"] / delta["requests"]
                                        if delta["requests"] else 0.0)
    metrics["miri.case_memo_hits"] = delta["case_memo_hits"]
    metrics["miri.fingerprint_hits"] = delta["fingerprint_hits"]
    metrics["bench.known_defects"] = result["known_defects"]
    extra = result["extra"]
    metrics["service.queue_wait_p50_ms"] = 0.0
    metrics["service.coalesce_hit_ratio"] = 0.0
    metrics["service.cache_hit_ratio"] = 0.0
    metrics["bench.serve.lag_p99_ms"] = 0.0
    if workload == "serve-open":
        waits = _service_queue_wait(extra["replies"], executions)
        metrics["service.queue_wait_p50_ms"] = wl.percentile(waits, 0.5)
        metrics["service.coalesce_hit_ratio"] = extra["coalesce_hit_ratio"]
        metrics["service.cache_hit_ratio"] = extra["cache_hit_ratio"]
        metrics["bench.serve.lag_p99_ms"] = wl.percentile(extra["lags_ms"],
                                                          0.99)
    return metrics


def _round(args) -> None:
    spare_cpus = calib.pin()
    inputs_dir = Path(args.inputs)
    inputs = json.loads((inputs_dir / "inputs.json").read_text())
    tracer_obj = None
    executions: dict = {}
    if args.trace:
        import tracer

        def on_execute(call_args, call_kwargs, start, end):
            config = call_args[0]
            request = config.request
            finished = time.monotonic()
            key = (request.name, config.seed, request.index,
                   config.spec.to_string())
            executions.setdefault(key, []).append(
                (finished - (end - start), finished))

        tracer_obj = tracer.install({"service.execute_repair": on_execute})
    from repro.miri import DETECTOR_STATS
    stats_before = DETECTOR_STATS.snapshot()

    calibrator = calib.Calibrator()

    def setup_done() -> float:
        """Stamp the end of set-up; measuring, and calibrating, begin."""
        setup_s = time.monotonic() - args.t0
        if not args.setup_only:
            calibrator.start()
        return setup_s

    try:
        result = _measure(args, inputs, inputs_dir, setup_done, spare_cpus)
    finally:
        speed = calibrator.stop()
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return
    wl.add_timings(result, speed)
    if tracer_obj is not None:
        result["layers"] = _layer_metrics(args.workload, tracer_obj, result,
                                          stats_before, executions)
        for name in tracer_obj.missing(args.workload):
            result["check_failures"].append(
                f"span {name} recorded no call on {args.workload}")
        tracer_obj.uninstall()
    result["extra"].pop("replies", None)
    Path(args.out).write_text(json.dumps(result))


def _measure(args, inputs: dict, inputs_dir: Path, setup_done,
             spare_cpus: list[int]) -> dict:
    """Set up, call ``setup_done``, then measure one round (or, with
    ``--setup-only``, stop after set-up).  serve-open's load generator
    runs on ``spare_cpus``."""
    workload = args.workload
    state = None
    if workload == "fig8-serial":
        state = wl.setup_fig8()
    elif workload == "detect-cold":
        state = wl.setup_detect(inputs, inputs_dir)
    else:
        wl.setup_serve()
    if args.setup_only:
        if workload == "serve-open":
            return wl.run_setup_only_serve(inputs_dir, setup_done)
        return wl.round_result(extra={"setup_s": setup_done()})
    if workload == "serve-open":
        return wl.round_serve(inputs, workdir=inputs_dir,
                              setup_done=setup_done, cpus=spare_cpus)
    setup_s = setup_done()
    if workload == "fig8-serial":
        result = wl.round_fig8(inputs, state)
    else:
        result = wl.round_detect(state)
    result["extra"]["setup_s"] = setup_s
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--size", choices=("full", "tiny"), required=True)
    gen.add_argument("--out", required=True)
    rnd = sub.add_parser("round")
    rnd.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    rnd.add_argument("--inputs", required=True)
    rnd.add_argument("--trace", type=int, choices=(0, 1), required=True)
    rnd.add_argument("--seconds", type=float, required=True)
    rnd.add_argument("--t0", type=float, required=True)
    rnd.add_argument("--out", required=True)
    rnd.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "gen":
        _generate(args)
    else:
        _round(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
