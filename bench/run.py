"""relcalc benchmark runner.

Run from the root of a source checkout::

    python3 bench/run.py --workload prove --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: each job starts when the previous
one has finished.  The job list of a workload (see workloads.py) is
built from the seed and run in passes until the time is used up; every
output is checked against a reference from oracles.py, after the clock
for that job has stopped.

``--trace 0`` reports the end-to-end metrics: medians over the passes,
with every job's time scaled to a reference machine speed by the
calibration in calibrate.py.  ``setup_s`` is the median over several
fresh interpreters of the time to import relcalc and build the
workload's inputs.  ``--trace 1`` wraps every public function of relcalc
(tracing.py), runs each job untraced and then traced, and reports the
per-layer metrics per pass and the tracing overhead.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  A fuller result file, with the Python
version, CPU count, git revision and date, is written under
``.bench_out/``; bench/compare.py compares two sets of them.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# The median of the per-pass figures wants a few passes.
MIN_PASSES = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: import relcalc, build the inputs, print 'ready', exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time, measured in fresh interpreters


def _probe(args) -> int:
    import workloads
    workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    print(statistics.median(calibrate.sample() for _ in range(3)), flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting an interpreter until it has imported relcalc
    and built the inputs, once per probe: scaled by the probe's own
    calibration, and as measured."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.REFERENCE_S / float(rest))
    return scaled, raw


# ---------------------------------------------------------------------------
# the closed loop


def run_job(wl, i: int, job, tracer=None):
    """Run one job on the clock, then check its output.  Returns the
    seconds it took and a failure reason, or None."""
    if tracer is not None:
        tracer.job_id, tracer.active = i, True
    t0 = time.perf_counter()
    try:
        out = wl.run(job)
    except Exception as exc:  # a job that raises is a failed job
        out, reason = None, f"job {i} {job}: {type(exc).__name__}: {exc}"
    else:
        reason = None
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.active = False
        tracer.job_span(i, t0, t1)
    if reason is None:
        try:
            reason = wl.verify(job, out)
        except Exception as exc:  # so is an output the check cannot read
            reason = f"job {i} {job}: check raised {type(exc).__name__}: {exc}"
    return t1 - t0, reason


def run_pass(wl, clock):
    """Run every job once.  Returns per-job seconds scaled by ``clock``,
    failure reasons, and the seconds as measured."""
    raw, marks, failures = [], [], []
    for i, job in enumerate(wl.jobs):
        marks.append(clock.before_job())
        seconds, reason = run_job(wl, i, job)
        raw.append(seconds)
        if reason:
            failures.append(reason)
    clock.close()
    return [r * clock.factor(k) for r, k in zip(raw, marks)], failures, raw


def run_paired_pass(wl, tracer):
    """Run every job untraced and then traced, back to back, so both runs
    of a job see the machine in the same state.  Returns untraced and
    traced per-job seconds and failure reasons."""
    plain, traced, failures = [], [], []
    for i, job in enumerate(wl.jobs):
        for durations, t in ((plain, None), (traced, tracer)):
            seconds, reason = run_job(wl, i, job, t)
            durations.append(seconds)
            if reason:
                failures.append(reason)
    return plain, traced, failures


def run_passes(one_pass, budget_s: float, min_passes: int) -> list:
    """Call ``one_pass`` until the next call would overrun ``budget_s``,
    and at least ``min_passes`` times."""
    passes = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - p0) > budget_s:
            return passes


def jobs_per_s(durations) -> float:
    return len(durations) / sum(durations)


# ---------------------------------------------------------------------------
# reporting


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pass_figures(durations) -> dict:
    return {"jobs_per_s": jobs_per_s(durations),
            "p50_ms": statistics.median(durations) * 1e3,
            "p90_ms": statistics.quantiles(durations, n=10)[8] * 1e3}


def end_to_end(figures, setup) -> dict:
    """Medians over the passes of the scaled per-pass figures."""
    def median(key):
        return statistics.median(f[key] for f in figures)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (median("jobs_per_s"), "1/s"),
        "job_p50_ms": (median("p50_ms"), "ms"),
        "job_p90_ms": (median("p90_ms"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relcalc", "__init__.py")):
        print(f"error: no relcalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe:
        return _probe(args)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, setup_raw = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)

    notes: list[str] = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            paired = run_passes(lambda: run_paired_pass(wl, tracer), args.seconds, 1)
        finally:
            tracer.uninstall()
        metrics, notes = tracer.metrics(len(paired))
        untraced_rate = jobs_per_s([d for plain, _, _ in paired for d in plain])
        traced_rate = jobs_per_s([d for _, traced, _ in paired for d in traced])
        metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
        passes = [(plain, failures, plain) for plain, _, failures in paired]
        attempted = 2 * len(wl.jobs) * len(paired)
    else:
        clock = calibrate.Clock()
        passes = run_passes(lambda: run_pass(wl, clock), args.seconds, MIN_PASSES)
        metrics = end_to_end([pass_figures(d) for d, _, _ in passes], setup)
        attempted = len(wl.jobs) * len(passes)

    failures = [f for _, fs, _ in passes for f in fs]
    samples = sum(len(d) for d, _, _ in passes)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_pass": len(wl.jobs), "passes": len(passes),
        "latency_samples": samples,
        "setup_samples_s": setup, "setup_samples_measured_s": setup_raw,
        "pass_figures": [pass_figures(d) for d, _, _ in passes],
        "pass_figures_measured": [pass_figures(raw) for _, _, raw in passes],
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted, "failures": failures[:20], "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    if args.trace:
        tracer.write(stem + "-spans.json")

    print(f"workload {args.workload}, seed {args.seed}: {len(wl.jobs)} jobs a pass, "
          f"{len(passes)} passes, {samples} latency samples (untraced)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'error_rate':34s} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)} of {attempted} jobs)")
    for line in notes + failures[:5]:
        print(f"  note: {line}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
