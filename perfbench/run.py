"""tangenteq benchmark: time one workload end to end, or trace its layers.

    python3 perfbench/run.py --workload shipped_cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the benchmark imports ``src/``
and reads ``configs/``).  Workloads: shipped_cli, grid_refine and
nonbox_relay (see perfbench/NOTES.md).  BLAS is pinned to one thread and
each workload runs in its own worker process, a closed loop of one job
at a time.

``--trace 0`` prints the end-to-end metrics:

    setup_s      median, over several fresh processes, of the time from
                 process start to the first timed job (import, parse,
                 assemble, draw inputs)
    pass_s       one pass over the job list, each job at its median
                 execution in the run, scaled to the reference machine
                 speed (see worker.PROBE_REF_S) and by attempted nodes /
                 nodes of jobs that passed
    nodes_per_s  nodes of jobs that passed per second of that pass
    fail_ratio   (failed jobs + 1) / (jobs + 2), the smoothed failure rate
    peak_rss_mb  peak resident memory of the worker process

``--trace 1`` prints the per-layer metrics of a traced run instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results go
to ``.perfbench/results/``, traced spans to ``.perfbench/trace/``.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("shipped_cli", "grid_refine", "nonbox_relay")
SETUP_SAMPLES = 7          # fresh processes timed for setup_s, per run
DEADLINE_S = 170.0         # the whole run, set-up probes included
_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    for key in _PINS:
        env[key] = "1"
    return env


class _Worker:
    """A worker process; ``ready_s`` is start to its ``ready`` line."""

    def __init__(self, argv, deadline):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + argv,
            stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
        try:
            line = self._readline()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.stop()
            raise BenchError("worker failed during set-up")

    def _remaining(self):
        return max(self.deadline - time.monotonic(), 0.0)

    def _readline(self):
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self._remaining())
        if not ready:
            raise BenchError("worker set-up timed out")
        return self.proc.stdout.readline()

    def finish(self):
        """Wait for the worker; return its last output line as JSON, or
        None when it printed nothing after ``ready``."""
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("run exceeded %.0f s" % DEADLINE_S) from None
        if self.proc.returncode != 0:
            raise BenchError("worker exited with %d" % self.proc.returncode)
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _probe_setup(argv, count, deadline):
    """Set-up times of ``count`` fresh workers that stop after set-up."""
    times = []
    for _ in range(count):
        probe = _Worker(argv + ["--setup-only"], deadline)
        times.append(probe.ready_s)
        probe.finish()
    return times


def _tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in _TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            value = statistics.quantiles(samples, n=1000,
                                         method="inclusive")[int(p * 10) - 1]
            return {"percentile": p, "value_s": value, "samples": n}
    return {"percentile": None, "samples": n}


def _end_to_end(summary, setup):
    jobs = summary["jobs"]
    # each job at its median execution, scaled to the reference machine
    # speed by the run's median probe (see worker.PROBE_REF_S)
    speed = summary["probe_ref_s"] / statistics.median(summary["probe_s"])
    best_pass = speed * sum(statistics.median(j["latencies_s"]) for j in jobs)
    nodes = sum(j["nodes"] for j in jobs)
    good = sum(j["nodes"] for j in jobs if j["failed"] == 0)
    failed_jobs = sum(1 for j in jobs if j["failed"])
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": best_pass * nodes / max(good, 1), "unit": "s"},
        "nodes_per_s": {"value": good / best_pass, "unit": "nodes/s"},
        "fail_ratio": {"value": (failed_jobs + 1.0) / (len(jobs) + 2.0),
                       "unit": "failed/attempted"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MiB"},
    }


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "computed_B"
    if "_per_" in name or name.endswith("_ratio"):
        return "ratio"
    return "count"


def _machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "commit": _commit()}


def _commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _check_checkout():
    for need in (os.path.join("src", "tangenteq", "__init__.py"), "configs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a tangenteq checkout: %s is missing" % need)


def run(args):
    _check_checkout()
    deadline = time.monotonic() + DEADLINE_S
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    scratch = os.path.join(OUT, "tmp", "%s-%d" % (tag, os.getpid()))
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--scratch", scratch]
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setup = []
    try:
        # set-up probes before and after the measured worker, so a slow
        # spell of the machine does not hit every sample
        setup += _probe_setup(argv, probes // 2, deadline)
        trace_file = os.path.join(OUT, "trace", tag + ".json")
        worker = _Worker(argv + ["--trace", str(args.trace),
                                 "--trace-file", trace_file], deadline)
        setup.append(worker.ready_s)
        summary = worker.finish()
        if summary is None:
            raise BenchError("worker printed no summary")
        setup += _probe_setup(argv, probes - probes // 2, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    jobs = summary["jobs"]
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in summary["layer_metrics"].items()}
    else:
        metrics = _end_to_end(summary, setup)
    result = {
        "correct": not any(j["wrong"] for j in jobs),
        "attempted": sum(j["runs"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples_s=setup, pass_s=summary["pass_s"],
                  probe_s=summary["probe_s"],
                  pass_tail=_tail(summary["pass_s"]),
                  job_tail=_tail([t for j in jobs for t in j["latencies_s"]]),
                  jobs=jobs, env=dict(summary["env"], **_machine()))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in sorted(metrics.items()):
        print("%-40s %.6g %s" % (name, m["value"], m["unit"]))
    print("%d passes, median pass wall time %.4g s, pass tail %s"
          % (len(summary["pass_s"]), statistics.median(summary["pass_s"]),
             json.dumps(record["pass_tail"])))
    if summary["probe_s"]:
        print("median speed probe %.4g ms (reference %.4g ms)"
              % (1e3 * statistics.median(summary["probe_s"]),
                 1e3 * summary["probe_ref_s"]))
    print("job latency tail %s" % json.dumps(record["job_tail"]))
    for j in jobs:
        if j["failed"]:
            print("FAILED %s (%d/%d runs%s): %s"
                  % (j["name"], j["failed"], j["runs"],
                     ", wrong output" if j["wrong"] else "", j["witness"]))
    print(json.dumps(result))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        return run(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
