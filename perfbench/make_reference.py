"""Print the reference values that the benchmark's gates compare against.

    python3 perfbench/make_reference.py > perfbench/reference.json

wave-2d: |eta hat| at the forced mode and the norms of the eulerian.csv
columns, for every forcing mode a seed can select (2-5).  linear-deep: the
recovered state_norm for seeds 0-9.  Regenerate only when a change is meant
to alter the answers, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from stripwave.cli import main as cli_main  # noqa: E402

LINEAR_SEEDS = range(10)


def run_once(wl):
    paths = wl.prepare()
    outdir = os.path.join(wl.workdir, "job")
    rc = cli_main(["--config", paths["job"], "--out", outdir])
    reason = wl.check(wl.config, outdir, rc, None)
    if reason:
        raise SystemExit(f"{wl.name} seed {wl.seed}: {reason}")
    return outdir


def main():
    workdir = os.path.join(HERE, "out", "reference")
    table = {}
    try:
        for mode in workloads.WAVE_MODE_INDICES:
            seed = next(s for s in range(1000) if workloads.mode_index_for(s) == mode)
            outdir = run_once(workloads.Workload("wave-2d", seed, workdir))
            table.setdefault("wave-2d", {})[f"mode_index={mode}"] = \
                workloads.wave_values(outdir, mode)
        for seed in LINEAR_SEEDS:
            outdir = run_once(workloads.Workload("linear-deep", seed, workdir))
            with open(os.path.join(outdir, "linear_report.json")) as fh:
                rep = json.load(fh)
            table.setdefault("linear-deep", {})[f"seed={seed}"] = \
                {"state_norm": rep["state_norm"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(table, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
