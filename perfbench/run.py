"""Benchmark of the stripwave command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

A workload is a single closed-loop client: it calls ``stripwave.cli.main``
with a JSON config and a fresh output directory, checks every artifact the
job wrote, and starts the next job when the previous one has returned, for
as long as another job is expected to end nearer to ``--seconds`` than the
run stands now.  The seed fixes the inputs (wave forcing mode, round-trip
seed, linear-solve input state), which are generated before any timing; one
untimed warm-up job lets lazy set-up finish.  BLAS runs on one thread unless
the environment says otherwise: the per-frequency matrices are 6x6 to
480x480, and a second OpenBLAS thread made wave-2d 13% slower and noisier on
a 2-CPU host.

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds per
job (CPU counts every thread and any child process), the median set-up
seconds of a fresh CLI process (import plus config validation, several
probes), and the peak RSS of the workload process.

The times are in reference-host seconds.  The shared host this benchmark was
tuned on (2 vCPUs, x86-64) runs the same single-threaded code up to twice as
slowly for minutes at a time, with no sign inside the guest: the load average
stays flat and steal time does not move.  So a fixed host probe that uses no
stripwave code is timed before the first and after every measured interval of
a run, and each median time is scaled by the probe's reference seconds
(PROBE_REF_S) over its median time in that run.  The probe is the sum of the
kernels in host_probe that the workload names (workloads.PROBE_KERNELS).  A
change to stripwave moves the intervals and not the probe, so it shows in
full; a slow phase of the host moves both.  The raw wall and CPU seconds and
the probe times are printed beside the metrics and kept in the run record.

``--trace 1`` runs the same loop untraced, then two jobs with the public
functions of each layer wrapped (see tracer.py), and reports per-layer self
times and work counts in wall seconds as measured.  Both traced jobs must give
identical counts, and their self times must add up to the traced job time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
show every metric with its unit (from BENCHMARK.json) and sample count,
``failed_frac``, and the environment: versions, BLAS and threads, nproc, git
revision, load average, and the host probe at start and end.  Job outputs
and a full record of each run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
# seconds of each host_probe kernel that reference-host seconds are scaled to:
# about its 10th percentile on the host the benchmark was tuned on
PROBE_REF_S = {"small": 0.015, "dense": 0.012, "python": 0.012}
TRACED_JOBS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# work counts that must repeat exactly between traced jobs
EXACT_UNITS = ("count", "B")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "stripwave", "__init__.py")):
        print(f"benchmark: no stripwave package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import stripwave.cli
    import workloads

    env = environment()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    if name not in workloads.NAMES:
        print(f"benchmark: unknown workload {name!r}; choose from "
              f"{', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"run-{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.Workload(name, seed, workdir)
    paths = wl.prepare()
    reference = wl.reference(workloads.load_reference())
    jobs = []

    def job(cfg, path, ref):
        """Run one job; returns its wall seconds."""
        outdir = os.path.join(workdir, f"job-{len(jobs)}")
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            # looked up per call so that the traced run sees the wrapped main
            rc = stripwave.cli.main(["--config", path, "--out", outdir])
        except (Exception, SystemExit) as exc:   # a raising job is a failed job
            rc = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        try:
            reason = wl.check(cfg, outdir, rc, ref)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"gate raised {type(exc).__name__}: {exc}"
        shutil.rmtree(outdir, ignore_errors=True)
        jobs.append({"wall_s": wall, "cpu_s": cpu, "error": reason})
        if reason:
            print(f"job {len(jobs) - 1} failed: {reason}", file=sys.stderr)
        return wall

    try:
        setup = {} if trace else probe_setup(paths["job"], wl.probe_kernels)
        job(wl.warmup, paths["warmup"], reference if wl.warmup is wl.config else None)
        timed = []
        probes = [host_probe(wl.probe_kernels)]
        start = time.perf_counter()
        while True:
            timed.append(len(jobs))
            last = job(wl.config, paths["job"], reference)
            probes.append(host_probe(wl.probe_kernels))
            # stop unless another job would end nearer to --seconds than now
            if time.perf_counter() - start + last / 2 >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = run_traced(job, wl, paths, reference) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [jobs[i]["wall_s"] for i in timed]
    failed = sum(1 for j in jobs if j["error"])
    correct = failed == 0
    if trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        metrics, problems = traced_metrics(traced, walls, units)
        samples = {m: f"median of {TRACED_JOBS} traced jobs" if units[m] == "s"
                   else f"first of {TRACED_JOBS} traced jobs" for m in metrics}
        correct = correct and not problems
        for p in problems:
            print(f"trace check failed: {p}", file=sys.stderr)
    else:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        cpus = [jobs[i]["cpu_s"] for i in timed]
        per_job = f"median of {len(walls)} jobs"
        raw = {"job_wall_s": (statistics.median(walls), "s", per_job),
               "job_cpu_wall_s": (statistics.median(cpus), "s", per_job),
               "setup_wall_s": (statistics.median(setup["times"]), "s",
                                f"median of {len(setup['times'])} processes"),
               "host_probe_s": (statistics.median(probes), "s",
                                f"median of {len(probes)} probes between jobs"),
               "setup_host_probe_s": (statistics.median(setup["probes"]), "s",
                                      f"median of {len(setup['probes'])} probes")}
        ref_s = sum(PROBE_REF_S[k] for k in wl.probe_kernels)
        job_scale = ref_s / raw["host_probe_s"][0]
        metrics = {
            "job_s": raw["job_wall_s"][0] * job_scale,
            "job_cpu_s": raw["job_cpu_wall_s"][0] * job_scale,
            "setup_s": raw["setup_wall_s"][0] * ref_s / raw["setup_host_probe_s"][0],
            "peak_rss_mb": peak_rss_mb,
        }
        ref = "reference-host seconds, "
        samples = {"job_s": f"{ref}median of {len(walls)} jobs",
                   "job_cpu_s": f"{ref}median of {len(walls)} jobs",
                   "setup_s": f"{ref}median of {len(setup['times'])} processes",
                   "peak_rss_mb": "peak of this process"}
    env["loadavg_end"] = list(os.getloadavg())
    env["host_probe_s_end"] = host_probe(tuple(PROBE_REF_S))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match the ones BENCHMARK.json declares")

    print(f"workload {name}  seed {seed}  mode_index {wl.mode_index}  "
          f"trace {int(trace)}  ({workloads.WHY[name]})")
    for m, v in metrics.items():
        print(f"  {m:<28} {v:>16.6g} {units[m]:<6} {samples[m]}")
    if not trace:
        for m, (v, unit, how) in raw.items():
            print(f"  {m:<28} {v:>16.6g} {unit:<6} {how}, as measured")
    print(f"  {'failed_frac':<28} {failed / len(jobs):>16.6g} {'1':<6} "
          f"{failed} of {len(jobs)} jobs (warm-up included)")
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": name, "seed": seed, "mode_index": wl.mode_index,
              "trace": trace, "seconds": seconds, "env": env, "jobs": jobs,
              "timed": timed, "probes": probes, "setup": setup, "metrics": metrics,
              "failed_frac": failed / len(jobs)}
    if traced:
        record["trace_jobs"] = traced
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": {m: {"value": v, "unit": units[m]}
                                  for m, v in metrics.items()}}))
    return 0


def probe_setup(config_path: str, kernels) -> dict:
    """Set-up seconds of SETUP_PROBES fresh processes, after one untimed
    process that leaves the byte-code cache written, and the host probe
    seconds taken after each process, so that one precedes every timed one."""
    script = os.path.join(HERE, "setup_probe.py")
    out = {"times": [], "probes": []}
    for n in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, script, SRC, config_path],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        out["probes"].append(host_probe(kernels))
        if n:
            out["times"].append(float(done.stdout.split()[-1]))
    return out


def run_traced(job, wl, paths, reference) -> list:
    from tracer import Tracer

    tracer = Tracer()
    out = []
    tracer.install()
    try:
        for _ in range(TRACED_JOBS):
            tracer.reset()
            wall = job(wl.config, paths["job"], reference)
            out.append({"wall_s": wall, "layers": tracer.job_metrics(),
                        "spans": tracer.aggregates(), "missing": tracer.missing,
                        "self_sum_s": sum(tracer.self_s.values()),
                        "span_log": tracer.spans})
    finally:
        tracer.uninstall()
    for missing in tracer.missing:
        print(f"trace: {missing} not found, its time is charged to its caller",
              file=sys.stderr)
    return out


def traced_metrics(traced: list, untraced_walls: list, units: dict):
    """Per-layer metrics (counts from the first traced job, times as the
    median over traced jobs) and the list of failed trace checks."""
    problems = []
    first = traced[0]["layers"]
    exact = [m for m in first if units.get(m) in EXACT_UNITS]
    for other in traced[1:]:
        diff = [c for c in exact if other["layers"][c] != first[c]]
        if diff:
            problems.append(f"counts differ between traced jobs: {diff}")
    for t in traced:
        if abs(t["self_sum_s"] - t["wall_s"]) > 0.01 * t["wall_s"] + 1e-3:
            problems.append(f"self times sum to {t['self_sum_s']:.4f} s, "
                            f"traced job took {t['wall_s']:.4f} s")
    metrics = {}
    for m, v in first.items():
        if m.endswith("_s"):
            v = statistics.median(t["layers"][m] for t in traced)
        metrics[m] = v
    traced_job = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.job_s"] = traced_job
    metrics["trace.overhead_s"] = traced_job - statistics.median(untraced_walls)
    return metrics, problems


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "loadavg_start": list(os.getloadavg()),
        "host_probe_s_start": host_probe(tuple(PROBE_REF_S)),
    }


_PROBE_DATA = None


def host_probe(kernels) -> float:
    """Seconds of a fixed load that uses no stripwave code: the sum over
    ``kernels`` of the median of five timings of each.  "small" is 1000 small
    complex solves driven from Python (per-call overhead, like the
    per-frequency loops), "dense" one 480x480 complex LU solve (the
    collocation path), "python" a plain-Python loop (the job's bookkeeping)."""
    global _PROBE_DATA
    import numpy as np

    if _PROBE_DATA is None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        big = rng.standard_normal((480, 480)) + 1j * rng.standard_normal((480, 480))
        _PROBE_DATA = a, a + 8.0 * np.eye(6), big, np.ones(480, dtype=complex)
    a, m, big, rhs = _PROBE_DATA

    def small():
        b = np.ones(6, dtype=complex)
        for _ in range(1000):
            x = np.linalg.solve(m, a @ b)
            b = x / np.linalg.norm(x, 1)

    def dense():
        np.linalg.solve(big, rhs)

    def python():
        acc = 0
        for i in range(150000):
            acc += i * i % 7

    total = 0.0
    for kernel in kernels:
        fn = {"small": small, "dense": dense, "python": python}[kernel]
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total


def git_revision():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(gitdir, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(gitdir, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    import workloads

    rows, correct, attempted, failed, combined = [], True, 0, 0, {}
    for name in workloads.NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"benchmark: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for m, v in res["metrics"].items():
            combined[f"{name}.{m}"] = v
        rows.append((name, res))
    print()
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':<28}" + "".join(f"{n:>16}" for n, _ in rows))
    for m in names:
        unit = rows[0][1]["metrics"][m]["unit"]
        print(f"{m + ' [' + unit + ']':<28}"
              + "".join(f"{r['metrics'][m]['value']:>16.6g}" for _, r in rows))
    print(f"{'failed_frac [1]':<28}"
          + "".join(f"{r['failed'] / r['attempted']:>16.6g}" for _, r in rows))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
