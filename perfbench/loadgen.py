"""serve-open's load generator: one process, one asyncio loop, at most
``SERVE_CONNECTIONS`` connections.

    loadgen.py --inputs FILE --open-port P --closed-port Q --out FILE
               --cpus LIST

It runs in its own process, on CPUs other than the one the server's
process is pinned to (``--cpus``), so that its clock and event loop never wait
on the interpreter lock the server's worker threads hold: a reply is
timed from when its request was due, and ``lags_ms`` records how late
the generator itself woke.  Times are the event loop's clock,
``time.monotonic()``, so they line up with the calibrator's samples
(see ``calib.py``).  The open-loop leg sends the ``open`` slots
at ``SERVE_RATE`` (a pair's two requests at the same instant) to the
server on ``--open-port``; the closed-loop leg sends the ``closed``
requests back to back over ``SERVE_CONNECTIONS`` connections to the
fresh server on ``--closed-port``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

from workloads import HOST, SERVE_CONNECTIONS, SERVE_RATE, note


async def _post(port: int, payload: dict, grade: dict) -> bool:
    from repro.service import client

    response = await client.post_repair(HOST, port, payload)
    if response.status != 200:
        note(grade["failures"], f"reply {response.status}")
        return False
    report = response.json().get("report")
    if not isinstance(report, dict):
        note(grade["failures"], "200 reply without a report")
        return False
    grade["passed"] += bool(report.get("passed"))
    grade["acceptable"] += bool(report.get("acceptable"))
    return True


async def _open_loop(port: int, slots: list, grade: dict) -> dict:
    loop = asyncio.get_running_loop()
    semaphore = asyncio.Semaphore(SERVE_CONNECTIONS)
    spans: list[tuple[float, float]] = []
    lags: list[float] = []
    replies: list[tuple] = []

    async def fire(payload: dict, due: float) -> bool:
        await asyncio.sleep(max(0.0, due - loop.time()))
        lags.append((loop.time() - due) * 1000.0)
        async with semaphore:
            ok = await _post(port, payload, grade)
        done = loop.time()
        spans.append((due, done))
        replies.append((payload["name"], payload["seed"], payload["index"],
                        payload["engine"], due, done))
        return ok

    interval = 1.0 / SERVE_RATE
    due = loop.time() + 0.05
    tasks = []
    for slot in slots:
        for payload in slot:
            tasks.append(asyncio.ensure_future(fire(payload, due)))
        due += interval * len(slot)
    results = await asyncio.gather(*tasks)
    return {"spans": spans, "lags_ms": lags, "replies": replies,
            "attempted": len(results), "failed": results.count(False)}


async def _closed_loop(port: int, payloads: list, grade: dict) -> dict:
    loop = asyncio.get_running_loop()
    position = completed = failed = 0

    async def worker() -> None:
        nonlocal position, completed, failed
        while position < len(payloads):
            payload = payloads[position]
            position += 1
            if await _post(port, payload, grade):
                completed += 1
            else:
                failed += 1

    started = loop.time()
    await asyncio.gather(*(worker() for _ in range(SERVE_CONNECTIONS)))
    return {"completed": completed, "failed": failed,
            "window": [started, loop.time()]}


async def _main(args) -> dict:
    from repro.service import client

    inputs = json.loads(Path(args.inputs).read_text())
    grade = {"passed": 0, "acceptable": 0, "failures": []}
    result = await _open_loop(args.open_port, inputs["open"], grade)
    stats = (await client.get_json(HOST, args.open_port, "/stats")).json()
    # Closed-loop replies are checked too; their rates are not reported.
    closed_grade = dict(grade, passed=0, acceptable=0)
    closed = await _closed_loop(args.closed_port, inputs["closed"],
                                closed_grade)
    result.update(passed=grade["passed"], acceptable=grade["acceptable"],
                  failures=grade["failures"], stats=stats, closed=closed)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--open-port", type=int, required=True)
    parser.add_argument("--closed-port", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpus", default="",
                        help="comma-separated CPUs to run on; empty: any")
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, [int(cpu) for cpu in args.cpus.split(",")])
    Path(args.out).write_text(json.dumps(asyncio.run(_main(args))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
