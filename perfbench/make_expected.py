#!/usr/bin/env python3
"""Record fig8-serial's known answers: per-case outcomes of every arm
over every repeat seed a run may draw.

    PYTHONPATH=src python3 perfbench/make_expected.py

Writes ``perfbench/expected/fig8_outcomes.json``.  Re-run it only when
engine behaviour changes on purpose (the same commit bumps
``CACHE_EPOCH`` and regenerates ``benchmarks/out``); then copy the new
``benchmarks/out/fig08_pass_rates.txt`` and ``fig09_exec_rates.txt``
into ``perfbench/expected/`` as well.  The script refuses to write if
the default repeat seeds do not reproduce those two tables.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main() -> int:
    from repro.corpus.dataset import load_dataset
    from repro.engine.campaign import Campaign
    from repro.engine.spec import EngineSpec

    dataset = load_dataset()
    outcomes: dict[str, str] = {}
    default_runs: dict = {}
    for model, kind in wl.FIG8_ARMS:
        base = EngineSpec.coerce(kind)
        specs = [EngineSpec(base.name, base.params + (("seed", str(seed)),))
                 for seed in wl.FIG8_SEED_POOL]
        result = Campaign(specs, dataset, model=model,
                          temperature=wl.FIG8_TEMPERATURE,
                          isolation="shared", executor="serial").run()
        for seed, arm in zip(wl.FIG8_SEED_POOL, result.arms):
            outcomes[f"{model}|{kind}|{seed}"] = wl.outcome_string(arm.reports)
        default_runs[wl.fig8_label(model, kind)] = [
            arm.results for seed, arm in zip(wl.FIG8_SEED_POOL, result.arms)
            if seed in wl.FIG8_DEFAULT_SEEDS]
    fig8, fig9 = wl.fig8_tables(default_runs)
    for name, text in (("fig08_pass_rates.txt", fig8),
                       ("fig09_exec_rates.txt", fig9)):
        if text != (wl.EXPECTED / name).read_text():
            print(f"{name}: the default seeds do not reproduce the "
                  "committed table; nothing written", file=sys.stderr)
            return 1
    path = wl.EXPECTED / "fig8_outcomes.json"
    path.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outcomes)} sweeps to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
