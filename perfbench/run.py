"""Certification benchmark for binomharm.

    python3 perfbench/run.py
    python3 perfbench/run.py --workload catalog --seed 3 --seconds 40 --trace 0

Without ``--workload`` it makes an untraced and a traced run of every
workload, checks every output, and exits non-zero if any check fails.
With ``--workload`` it makes one run; its last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics that BENCHMARK.json lists with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  ``--seconds`` defaults to the
``run_seconds`` of BENCHMARK.json.

Each batch runs in a fresh interpreter (batch.py) against ``src/`` of the
checkout this file sits in.  See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import mpmath
import mpmath.libmp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SETUPS_PER_BATCH = 3
# every batch of a run must end this long after the run started, so a
# hung batch still lets the run exit within 180 s
RUN_LIMIT_S = 170

END_TO_END = {  # name -> unit; the JSON result carries the ones that
    # BENCHMARK.json lists, and every one is printed
    "setup_s": "s", "wall_ref_s": "s", "ops_ok_frac": "frac",
    "peak_rss_mb": "MB", "setup_raw_s": "s", "wall_s": "s", "cpu_s": "s",
    "op_s_p50": "s", "op_s_p75": "s", "ref_ms": "ms",
}


class BenchFault(RuntimeError):
    """The benchmark itself could not run or measure."""


def environment(seed):
    env = {"python": platform.python_version(), "seed": seed,
           "nproc": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count(),
           "mpmath": mpmath.__version__,
           "mpmath_backend": mpmath.libmp.BACKEND,
           "gmpy2": importlib.util.find_spec("gmpy2") is not None,
           "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:  # a checkout without .git has no commit; do not look above it
        env["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES":
                 os.path.dirname(ROOT)}).stdout.strip() or None
    except OSError:
        env["git_commit"] = None
    env["src_sha256"] = src_fingerprint()
    return env


def src_fingerprint():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "binomharm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_batch(extra_args, deadline):
    """Run batch.py in a fresh interpreter and return its JSON result.

    ``deadline`` is a ``time.monotonic()`` value the batch must end by."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("BINOMHARM_DIGITS", None)
    os.makedirs(OUT, exist_ok=True)
    fd, path = tempfile.mkstemp(dir=OUT, suffix=".json")
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "batch.py"), "--out", path]
    # a new process group, so a timeout also ends any pool workers
    proc = subprocess.Popen(cmd + extra_args, cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        os.unlink(path)
        raise BenchFault(f"batch {extra_args} timed out")
    try:
        if code != 0:
            raise BenchFault(f"batch {extra_args} exited with {code}")
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


class Run:
    """One benchmark run: measurements plus every failed check."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.faults = []
        self.reports = None  # catalog reports of the first batch, by key
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def fault(self, msg):
        self.faults.append(msg)
        print(f"CHECK FAILED [{self.workload} seed {self.seed}]: {msg}")

    def batch(self, trace):
        res = run_batch(["--workload", self.workload, "--seed",
                         str(self.seed), "--trace", str(trace)],
                        self.deadline)
        for rec in res["records"]:
            self.attempted += 1
            if rec["why"]:
                self.failed += 1
                self.fault(f"op {rec['key']}: {rec['why']}")
        if res.get("unknown_metrics"):
            self.fault(f"spans outside the known layer metrics: "
                       f"{res['unknown_metrics']}")
        if self.workload in ("catalog", "catalog_2w"):
            self.check_catalog(res["records"])
        return res

    def check_catalog(self, records):
        counts = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
        for rec in records:
            if rec["report"] is not None:
                counts[rec["report"]["verdict"]] += 1
        if counts != wl.CATALOG_SUMMARY:
            self.fault(f"catalog summary {counts} != {wl.CATALOG_SUMMARY}")
        reports = {rec["key"]: rec["report"] for rec in records}
        if self.reports is None:
            self.reports = reports
        else:
            self.same("reports", self.reports, reports, "an earlier batch")

    def same(self, what, want, got, other):
        """Fault unless dicts ``want`` and ``got`` agree key for key."""
        diff = sorted(k for k in set(want) | set(got)
                      if want.get(k) != got.get(k))
        if diff:
            self.fault(f"{what} differ from {other} at the same seed: "
                       f"{diff[:8]}")
        else:
            print(f"{what} match {other} at the same seed")

    def result(self, metrics):
        return {"correct": not self.faults, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def listed(values, units, names):
    """The metrics ``names`` (as BENCHMARK.json lists them) for JSON."""
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchFault(f"metrics {missing} were not measured")
    return {n: {"value": values[n], "unit": units(n)} for n in names}


def measure(workload, seed, seconds, names):
    """End-to-end metrics: batches back to back for ``seconds``."""
    run = Run(workload, seed)
    setups, batches = [], []

    def sample_setup():
        # spread over the run, between the batches
        setups.extend(run_batch(["--setup-only"], run.deadline)
                      for _ in range(SETUPS_PER_BATCH))

    t0 = time.perf_counter()
    while not batches or time.perf_counter() - t0 < seconds:
        sample_setup()
        b = run.batch(trace=0)
        batches.append(b)
        print(f"batch {len(batches)}: wall {b['wall_s']:.4f} s, probe scale "
              f"{b['scale']:.4f}, wall_ref {b['wall_s'] * b['scale']:.4f} s")
    sample_setup()
    lat = [rec["latency_s"] for b in batches for rec in b["records"]]
    _, p50, p75 = statistics.quantiles(lat, n=4, method="inclusive")
    values = {
        # times in reference seconds: scaled by the speed probe
        "setup_s": statistics.median(s["setup_s"] * s["setup_scale"]
                                     for s in setups),
        "wall_ref_s": statistics.median(b["wall_s"] * b["scale"]
                                        for b in batches),
        "ops_ok_frac": 1 - run.failed / run.attempted,
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        # raw times, printed only: on a shared box they drift with the
        # machine's speed
        "setup_raw_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "cpu_s": statistics.median(b["cpu_s"] for b in batches),
        "op_s_p50": p50,
        "op_s_p75": p75,
        "ref_ms": 1e3 * statistics.median(b["ref_s"] for b in batches),
    }
    print(f"{workload}: {len(batches)} batch(es), {len(lat)} op samples, "
          f"{len(setups)} set-up samples, ops_failed_frac "
          f"{run.failed / run.attempted:.4f}")
    for name, v in values.items():
        print(f"metric {name} = {v:.6g} {END_TO_END[name]}")
    return run, listed(values, END_TO_END.get, names)


def measure_traced(workload, seed, names):
    """Per-layer metrics from one traced batch; a second traced batch at
    the same seed must repeat its exact counts."""
    run = Run(workload, seed)
    traced = run.batch(trace=1)
    again = run.batch(trace=1)
    layers = dict(traced["layers"])
    # an estimate that cannot be swamped by run-to-run noise: the cost of
    # one wrapper call, timed in the traced process, times the span count
    layers["trace.overhead_s"] = traced["span_cost_s"] * len(traced["spans"])
    busy = sum(rec["latency_s"] for rec in traced["records"])
    layers["verifier.pool.idle_frac"] = \
        1 - busy / (traced["workers"] * traced["wall_s"])
    counts = [{k: res["layers"][k] for k in layertrace.EXACT_COUNTS
               if not (workload == "catalog_2w"
                       and k in layertrace.SCHEDULE_DEPENDENT)}
              for res in (traced, again)]
    run.same("exact counts", *counts, "a second traced batch")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"),
              "w") as fh:
        json.dump(traced["spans"], fh)
    print(f"{workload} traced: wall {traced['wall_s']:.4f} s and "
          f"{again['wall_s']:.4f} s, {len(traced['spans'])} spans of "
          f"{traced['span_cost_s'] * 1e6:.2f} us each")
    for name in sorted(layers):
        print(f"metric {name} = {layers[name]:.6g} {layer_unit(name)}")
    return run, listed(layers, layer_unit, names)


def layer_unit(name):
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".s") or name.endswith("_s") or ".s." in name:
        return "s"
    return "count"


def main(argv=None):
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "binomharm", "__init__.py")):
        print(f"no binomharm package under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = {trace: [m["name"] for m in spec[key]]
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    try:
        if args.workload:
            run, result = one_run(args.workload, args.seed, args.seconds,
                                  args.trace, names[args.trace], env)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        ok, runs = True, {}
        for workload in wl.WORKLOADS:
            for trace in (0, 1):
                run, result = one_run(workload, args.seed, args.seconds,
                                      trace, names[trace], env)
                runs[workload, trace] = run
                ok = ok and result["correct"]
        # the README determinism contract: same reports, any worker count
        run2w = runs["catalog_2w", 0]
        run2w.same("catalog_2w reports", runs["catalog", 0].reports,
                   run2w.reports, "the catalog reports")
        ok = ok and not run2w.faults
        print("all checks passed" if ok else "SOME CHECKS FAILED")
        return 0 if ok else 1
    except BenchFault as exc:
        print(f"benchmark fault: {exc}", file=sys.stderr)
        return 3


def one_run(workload, seed, seconds, trace, names, env):
    """One run; its result, with the environment, also goes to ``out/``."""
    if trace:
        run, metrics = measure_traced(workload, seed, names)
    else:
        run, metrics = measure(workload, seed, seconds, names)
    result = run.result(metrics)
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"env": env, **result}, fh, indent=1)
    return run, result


if __name__ == "__main__":
    sys.exit(main())
