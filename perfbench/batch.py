"""One batch of one workload, in a fresh interpreter.

    python3 perfbench/batch.py --workload W --seed N --trace 0|1 --out F
    python3 perfbench/batch.py --setup-only --out F

run.py starts this with ``src`` on PYTHONPATH, so every batch pays the
cold caches (``ball_arith.constant``, ``_emtail.build_poly``) that each
``binomharm`` command pays.  The batch writes one JSON file: timings and
the speed probe's scale for them, one record per op with its own
pass/fail judgement, and with tracing the per-layer metrics and every
span.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


# The speed probe.  On a shared machine the same code can run 1.5x faster
# or slower from one minute to the next, so raw times of unchanged code
# drift by more than any useful bound.  A fixed reference loop, timed on
# the same CPU while the batch runs, measures that speed; scaling a time
# by REF_NOMINAL_S / (reference time) gives it in reference seconds, which
# a change to binomharm moves and the machine's speed barely does.
REF_NOMINAL_S = 0.001  # the reference loop's typical time on the baseline box
PROBE_INTERVAL_S = 0.05
REFS_AFTER = 16  # reference loops timed after a set-up or a pool batch


def _ref_loop():
    """About 1 ms of each kind of arithmetic in binomharm's hot loops:
    big-integer ratios, Fraction ratios, a fixed-point harmonic step (as
    in ``HarmonicStream.partial_sum_fixed``) and mpmath's ``mpf``."""
    from fractions import Fraction  # not before _setup has timed imports
    from mpmath.libmp import from_int, mpf_add, mpf_div, round_floor
    u, s = 1 << 700, 0
    for n in range(1, 250):
        u = u * (2 * n + 1) // (2 * n + 3)
        s += u >> 350
    for n in range(1, 150):
        r = Fraction(2 * n + 1, 2 * n + 3)
        u = u * r.numerator // r.denominator
    p, v, d = 200, 1 << 200, 0
    for n in range(1, 60):
        s += (v * d) >> p
        r = Fraction((2 * n + 1) ** 2, (2 * n + 2) * (2 * n + 3))
        v = v * r.numerator // r.denominator
        dd = Fraction(1, n + 1)
        d += (dd.numerator << p) // dd.denominator
    x = from_int(0)
    for n in range(1, 75):
        x = mpf_add(x, mpf_div(from_int(1), from_int(n * n + 1), 200,
                               round_floor), 200, round_floor)
    return s + u, x


def _time_ref():
    t0 = time.perf_counter()
    _ref_loop()
    return time.perf_counter() - t0


def _scale(ref_times):
    """Reference seconds per second over the span the samples cover."""
    return statistics.fmean(REF_NOMINAL_S / t for t in ref_times)


class SpeedProbe:
    """Times the reference loop every PROBE_INTERVAL_S in a thread while a
    batch runs.  The thread holds the GIL for the ~1 ms of each sample, so
    the batch pays about 2% and the sample sees the CPU the batch is on."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(_time_ref())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _pin_to_one_cpu():
    """Keep a one-process batch and its probe thread on a single CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _setup():
    """Import the package and build the registry: the set-up a user pays.

    Returns its time and the probe scale from reference loops timed just
    after it: a probe thread would add too much to the 0.1 s it times.
    """
    t0 = time.perf_counter()
    from binomharm import registry, series_engine, verifier  # noqa: F401
    registry.make_registry()
    setup_s = time.perf_counter() - t0
    return setup_s, _scale([_time_ref() for _ in range(REFS_AFTER)])


def _judge_report(rep, expected, digits=None) -> str:
    """Why a verify report is wrong, or '' when it is right.

    Independent of the report's own ``ok`` field.
    """
    if rep["verdict"] != expected:
        return f"verdict {rep['verdict']} != expected {expected}"
    if digits is not None and rep["digits_requested"] != digits:
        return f"digits_requested {rep['digits_requested']} != {digits}"
    if rep["verdict"] == "PASS" and \
            rep["agreed_digits"] < rep["digits_requested"]:
        return (f"PASS with {rep['agreed_digits']} agreed digits < "
                f"{rep['digits_requested']} requested")
    return ""


def _strip(rep):
    return {k: v for k, v in rep.items() if k != "wall_time"}


def run_catalog(ops, workers, tracer):
    from binomharm import registry, verifier
    reg = registry.make_registry()
    ids = [op["id"] for op in ops]
    records = []
    try:
        out = verifier.verify_all(ids=ids, workers=workers)
        reports = out["reports"]
        if len(reports) != len(ops):
            raise RuntimeError(f"{len(reports)} reports for {len(ops)} ids")
        if tracer is not None:
            tracer.take_spans(reports)
        for op, rep in zip(ops, reports):
            why = "" if rep["id"] == op["id"] else \
                f"report for {rep['id']} in the slot of {op['id']}"
            why = why or _judge_report(rep, reg[op["id"]].expected_verdict)
            records.append({"key": op["key"], "latency_s": rep["wall_time"],
                            "why": why, "report": _strip(rep)})
    except Exception as exc:  # noqa: BLE001 - one entry must not end the run
        # verify_all loses every report when one entry raises, so find the
        # culprits one op at a time; this run is counted as failed anyway
        print(f"verify_all raised {exc!r}; retrying op by op",
              file=sys.stderr)
        records = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                rep = verifier.verify_all(ids=[op["id"]],
                                          workers=1)["reports"][0]
                why = _judge_report(rep, reg[op["id"]].expected_verdict)
            except Exception as exc2:  # noqa: BLE001
                rep, why = None, f"raised {exc2!r}"
            records.append({"key": op["key"],
                            "latency_s": time.perf_counter() - t0,
                            "why": why,
                            "report": _strip(rep) if rep else None})
    return records


def run_deep_digits(ops):
    from binomharm import registry, verifier
    reg = registry.make_registry()
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            if "r" in op:
                entry = registry.build_template_entry(op["id"], op["r"])
            else:
                entry = reg[op["id"]]
            rep = verifier.verify_identity(entry, digits=wl.DEEP_DIGITS)
            why = _judge_report(rep, entry.expected_verdict, wl.DEEP_DIGITS)
        except Exception as exc:  # noqa: BLE001
            why = f"raised {exc!r}"
        records.append({"key": op["key"],
                        "latency_s": time.perf_counter() - t0, "why": why})
    return records


def run_tail_audit(ops):
    from binomharm import registry, series_engine
    reg = registry.make_registry()
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            stream, strategy = reg[op["id"]].make_stream()
            probes = series_engine.empirical_tail_check(
                stream, strategy, probes=wl.AUDIT_PROBES, prec=wl.AUDIT_PREC)
            bad = [p["N"] for p in probes if p["ok"] is not True]
            why = f"probes not ok at N={bad}" if bad else ""
            if [p["N"] for p in probes] != list(wl.AUDIT_PROBES):
                why = f"probed N={[p['N'] for p in probes]}"
        except Exception as exc:  # noqa: BLE001
            why = f"raised {exc!r}"
        records.append({"key": op["key"],
                        "latency_s": time.perf_counter() - t0, "why": why})
    return records


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workers = 2 if args.workload == "catalog_2w" else 1
    if workers == 1:
        _pin_to_one_cpu()
    setup_s, setup_scale = _setup()
    result = {"setup_s": setup_s, "setup_scale": setup_scale}
    if not args.setup_only:
        ops = wl.make_ops(args.workload, args.seed)
        tracer = None
        if args.trace:
            import layertrace
            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        # a batch that forks a pool runs no probe thread, as forking a
        # process with threads is unsafe; reference loops timed after it
        # give it a rough scale instead
        probe = SpeedProbe() if workers == 1 else contextlib.nullcontext()
        cpu0, _ = _rusage()
        with probe:
            t0 = time.perf_counter()
            if args.workload in ("catalog", "catalog_2w"):
                records = run_catalog(ops, workers, tracer)
            elif args.workload == "deep_digits":
                records = run_deep_digits(ops)
            else:
                records = run_tail_audit(ops)
            wall_s = time.perf_counter() - t0
        cpu1, peak_rss_mb = _rusage()
        refs = probe.samples if workers == 1 else \
            [_time_ref() for _ in range(REFS_AFTER)]
        result.update(wall_s=wall_s, cpu_s=cpu1 - cpu0,
                      peak_rss_mb=peak_rss_mb, records=records,
                      workers=workers, scale=_scale(refs),
                      ref_s=statistics.median(refs))
        if tracer is not None:
            result["layers"], result["unknown_metrics"] = \
                layertrace.layer_metrics(tracer.spans)
            result["span_cost_s"] = layertrace.span_cost()
            result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
