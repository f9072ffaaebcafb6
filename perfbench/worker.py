"""One workload in one process: set up, time passes, check outputs.

Started by ``run.py``; prints ``ready`` once set-up is done (the parent
times process start to that line as ``setup_s``) and, unless
``--setup-only``, one JSON summary as its last line.

Untraced (``--trace 0``): passes over the job list run back to back
until ``--seconds`` have elapsed, at least one.  Traced (``--trace 1``):
one untraced pass, then the tracer is installed and traced passes run
until ``--seconds`` have elapsed, at least one.  Outputs of every pass
are checked after the last one, outside the timed region and after
peak memory is read.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np       # noqa: E402  (after the thread pins in run.py)
import scipy             # noqa: E402

import tracer as tr      # noqa: E402
import workloads         # noqa: E402

# The machine's speed drifts by more than the bounds, in spells of seconds
# to many minutes, so untraced passes probe it between jobs: one probe is
# the median time of PROBE_SAMPLES runs of a loop of PROBE_LOOP small
# numpy calls, the same kind of work as the workloads'.  run.py scales
# job times by PROBE_REF_S / (median probe of the run), which gives the
# time on a machine where the loop takes PROBE_REF_S.  On a shared 2-vCPU
# Intel Xeon machine the loop took 0.9 ms undisturbed and 1.3 to 1.8 ms
# under its neighbours' load.
PROBE_SAMPLES = 9
PROBE_LOOP = 300
PROBE_REF_S = 1e-3


def _probe():
    """The machine's current speed, as the time of one probe loop."""
    a = np.zeros(3)
    times = []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        for i in range(PROBE_LOOP):
            np.clip(a + i * 1e-3, 0.0, 1.0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class _Raised:
    """Outcome of a job that raised; the message is the witness."""

    def __init__(self, exc):
        self.witness = "%s: %s" % (type(exc).__name__, exc)


class Runner:
    def __init__(self, workload):
        self.jobs = workload.jobs
        self.outcomes = []           # one list per pass
        self.latencies = []          # one list per pass
        self.probes = []             # machine-speed probes, in run order

    def run_pass(self, tracer=None, probe=False):
        """Run every job once; return the pass's wall time without probes.

        With ``probe``, the machine's speed is probed after each job,
        outside the jobs' timed regions.
        """
        index = len(self.outcomes)
        outcomes, lat = [], []
        clock = time.perf_counter
        start = clock()
        probing = 0.0
        for job in self.jobs:
            t0 = clock()
            if tracer is None:
                outcome = _attempt(job, index)
            else:
                with tracer.job_span(job.name):
                    outcome = _attempt(job, index)
            lat.append(clock() - t0)
            outcomes.append(outcome)
            if probe:
                t0 = clock()
                self.probes.append(_probe())
                probing += clock() - t0
        self.outcomes.append(outcomes)
        self.latencies.append(lat)
        return clock() - start - probing

    def check(self):
        """Per job: executions, failed and wrong executions, a witness."""
        report = []
        for j, job in enumerate(self.jobs):
            failed = wrong = 0
            witness = ""
            for outcomes in self.outcomes:
                outcome = outcomes[j]
                if isinstance(outcome, _Raised):
                    verdict = workloads.Verdict(False, witness=outcome.witness)
                else:
                    verdict = job.check(outcome)
                if not verdict.ok:
                    failed += 1
                    wrong += int(verdict.wrong)
                    witness = witness or verdict.witness
            report.append({"name": job.name, "nodes": job.nodes,
                           "runs": len(self.outcomes), "failed": failed,
                           "wrong": wrong, "witness": witness,
                           "latencies_s": [lat[j] for lat in self.latencies]})
        return report


def _attempt(job, index):
    # a job boundary must keep the run going: any exception is the job's
    # failure, recorded with its message
    try:
        return job.run(index)
    except Exception as exc:     # noqa: BLE001
        return _Raised(exc)


def _timed_passes(runner, seconds, tracer=None, on_pass=None, probe=False):
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        times.append(runner.run_pass(tracer, probe))
        if on_pass is not None:
            on_pass(times[-1])
    return times


def _traced(runner, seconds, trace_path):
    untraced = runner.run_pass()
    tracer = tr.Tracer()
    per_pass, spans = [], []

    def collect(pass_s):
        per_pass.append(tr.layer_metrics(tracer.agg, tracer.spans,
                                         tracer.map_evals, pass_s))
        spans.append(tracer.spans)

    tracer.install()
    try:
        times = _timed_passes(runner, seconds, tracer, collect)
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(times) / untraced
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"untraced_pass_s": untraced, "traced_pass_s": times,
                   "per_pass": per_pass, "spans": spans}, fh)
    return times, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.build(args.workload, ROOT, args.seed, args.scratch)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(workload)
    layer = None
    if args.trace:
        times, layer = _traced(runner, args.seconds, args.trace_file)
    else:
        times = _timed_passes(runner, args.seconds, probe=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {
        "pass_s": times,
        "probe_s": runner.probes,
        "probe_ref_s": PROBE_REF_S,
        "peak_rss_mb": peak_kib / 1024.0,
        "jobs": runner.check(),
        "layer_metrics": layer,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "blas_threads": {k: os.environ.get(k) for k in (
                    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")}},
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
