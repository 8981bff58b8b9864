"""Outside-in tracing of the binomharm layers, installed by the benchmark.

Wrappers go around the public functions of each layer.  Where a caller
reaches a function through a name bound in its own module (``from .x
import f``), the wrapper replaces that name in the caller's module; a
method is wrapped on the class that defines it.  Nothing under ``src/``
changes.

Each call records one span ``(sid, parent, name, start, end, op,
attrs)``.  Spans stay in memory; the batch writes them out at the end.
In a process-pool worker (forked after installation) the spans of each
task ride back to the parent inside the task's report, under
``SPANS_KEY``, and the parent takes them out again.
"""

import functools
import os
import time

SPANS_KEY = "_perfbench_spans"

STREAM_KINDS = ("HarmonicStream", "PureRatioStream", "SurdHarmonicStream",
                "ShiftedStream", "Thm24Stream")
TAIL_KINDS = ("geometric", "pseries", "alternating", "asymptotic",
              "asymptotic-composite")
LAYERS = ("verifier", "registry", "series_engine", "emtail", "ball_arith")

# every metric computed from spans; a span that would add any other name
# (a new stream class or tail kind) is reported by layer_metrics as
# unknown, so a refactor cannot make per-layer time vanish silently.
# run.py adds trace.overhead_s and verifier.pool.idle_frac.
SPAN_METRICS = (
    *(f"series_engine.partial_sum.s.{k}" for k in STREAM_KINDS),
    "series_engine.partial_sum.calls",
    "series_engine.terms_computed", "series_engine.terms_used",
    "series_engine.terms_useful_frac",
    "series_engine.check_step.s", "series_engine.check_step.calls",
    *(f"series_engine.tail_ball.s.{k}" for k in TAIL_KINDS),
    "series_engine.tail_ball.calls",
    "series_engine.sum_to_precision.self_s",
    "series_engine.empirical_tail_check.s",
    "series_engine.empirical_tail_check.calls",
    "emtail.tail_enclosure.s", "emtail.tail_enclosure.calls",
    "emtail.build_poly.calls", "emtail.build_poly.cold",
    "emtail.build_poly.cold_s", "emtail.build_poly.warm_s",
    "ball_arith.constant.calls", "ball_arith.constant.cold",
    "ball_arith.constant.cold_s", "ball_arith.constant.warm_s",
    "registry.closed_form.s", "registry.closed_form.calls",
    "registry.make_stream.s", "registry.make_stream.calls",
    "registry.make_registry.s", "registry.make_registry.calls",
    "verifier.verify_identity.s", "verifier.verify_identity.calls",
    "verifier.ladder_rungs",
    "verifier.agreed_digits.s", "verifier.agreed_digits.calls",
    *(f"{layer}.self_s" for layer in LAYERS),
)

# counts that must repeat exactly between two traced batches at one seed
EXACT_COUNTS = (
    "series_engine.terms_computed", "series_engine.terms_used",
    "series_engine.partial_sum.calls", "series_engine.check_step.calls",
    "series_engine.tail_ball.calls", "verifier.ladder_rungs",
    "emtail.build_poly.cold", "ball_arith.constant.cold",
)
# first-seen-in-process counts; in a pool they depend on which worker
# happens to take which entry
SCHEDULE_DEPENDENT = ("emtail.build_poly.cold", "ball_arith.constant.cold")


class TraceFault(RuntimeError):
    """A layer boundary the tracer was told to wrap does not exist."""


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._op = None
        self._n_ids = 0
        self._n_ops = 0
        self._seen = set()
        # a forked pool worker starts with an empty span buffer; the
        # first-use set is kept, as the program's caches are inherited too
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.spans = []
        self._stack = []
        self._op = None

    def first_seen(self, key) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def wrap(self, name, fn, attrs=None, opens_op=False):
        """``fn`` recording a span per call; ``attrs(args, kwargs)`` runs
        before the call, so it can see first-use state."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_op = opens_op and tracer._op is None
            if own_op:
                tracer._n_ops += 1
                tracer._op = f"{os.getpid()}.{tracer._n_ops}"
            tracer._n_ids += 1
            sid = f"{os.getpid()}.{tracer._n_ids}"
            parent = tracer._stack[-1] if tracer._stack else None
            extra = attrs(args, kwargs) if attrs else None
            op = tracer._op
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, op, extra))
                if own_op:
                    tracer._op = None
            if (own_op and isinstance(result, dict)
                    and os.getpid() != tracer.pid):
                result[SPANS_KEY] = tracer.spans
                tracer.spans = []
            return result

        return traced

    def patch(self, owner, attr, name, **kw):
        fn = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if fn is None:
            raise TraceFault(f"{getattr(owner, '__name__', owner)}.{attr} "
                             f"not found")
        setattr(owner, attr, self.wrap(name, fn, **kw))

    def take_spans(self, reports):
        """Move the spans a pool worker attached to ``reports`` to here."""
        for rep in reports:
            self.spans.extend(tuple(s) for s in rep.pop(SPANS_KEY, ()))


def span_cost(calls=5000, repeats=7) -> float:
    """Seconds one span adds to a call: a traced no-op against a bare one,
    the best of ``repeats`` timings of ``calls`` calls each."""
    def noop():
        return None

    traced = Tracer().wrap("span_cost", noop)
    best = {}
    for fn in (noop, traced):
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            dt = time.perf_counter() - t0
            best[fn] = min(best.get(fn, dt), dt)
    return max(best[traced] - best[noop], 0.0) / calls


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported binomharm."""
    from binomharm import _emtail, genfunc, registry, series_engine, verifier

    def const_attrs(args, kwargs):
        name = _arg(args, kwargs, 0, "name")
        prec = _arg(args, kwargs, 1, "prec")
        key = (str(getattr(name, "value", name)), prec)
        return {"cold": tracer.first_seen(("constant",) + key)}

    def poly_attrs(args, kwargs):
        r = _arg(args, kwargs, 0, "recipe")
        key = (r.key, r.P, r.Q, r.e, r.dkind, _arg(args, kwargs, 1, "prec"))
        return {"cold": tracer.first_seen(("build_poly",) + key)}

    def partial_attrs(args, kwargs):
        stream, n = args[0], _arg(args, kwargs, 1, "N")
        return {"kind": type(stream).__name__,
                "terms": n - stream.first_index + 1}

    def tail_attrs(args, kwargs):
        return {"kind": args[0].kind}

    # verifier
    tracer.patch(verifier, "verify_identity", "verifier.verify_identity",
                 opens_op=True)
    tracer.patch(verifier, "agreed_digits", "verifier.agreed_digits")
    tracer.patch(verifier, "sum_to_precision",
                 "series_engine.sum_to_precision")
    tracer.patch(verifier, "make_registry", "registry.make_registry")
    tracer.patch(registry, "make_registry", "registry.make_registry")
    # series_engine
    tracer.patch(series_engine, "empirical_tail_check",
                 "series_engine.empirical_tail_check", opens_op=True)
    tracer.patch(series_engine.TermStream, "partial_sum",
                 "series_engine.partial_sum", attrs=partial_attrs)
    for cls in _subclasses(series_engine.TailStrategy):
        if "tail_ball" in vars(cls):
            tracer.patch(cls, "tail_ball", "series_engine.tail_ball",
                         attrs=tail_attrs)
        if "check_step" in vars(cls):
            tracer.patch(cls, "check_step", "series_engine.check_step")
    # _emtail, called as module attributes
    tracer.patch(_emtail, "tail_enclosure", "emtail.tail_enclosure")
    tracer.patch(_emtail, "build_poly", "emtail.build_poly",
                 attrs=poly_attrs)
    # ball_arith.constant, in every module that binds it
    for mod in (registry, series_engine, _emtail, genfunc):
        tracer.patch(mod, "constant", "ball_arith.constant",
                     attrs=const_attrs)
    # registry: closed forms and the stream factories entries call
    tracer.patch(registry.ClosedForm, "value", "registry.closed_form")
    tracer.patch(registry, "family_stream", "registry.make_stream")
    tracer.patch(registry, "gf_series_stream", "registry.make_stream")
    for attr in [a for a in vars(registry) if a.startswith("_stream_")]:
        tracer.patch(registry, attr, "registry.make_stream")


def layer_metrics(spans) -> tuple:
    """Per-layer metrics from a list of spans (see README.md), and the
    sorted names outside SPAN_METRICS that some span would have added."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])

    def nested_in_same(s):
        p = s[1]
        while p is not None and p in by_id:
            if by_id[p][2] == s[2]:
                return True
            p = by_id[p][1]
        return False

    m = dict.fromkeys(SPAN_METRICS, 0)

    def add(key, v):
        m[key] = m.get(key, 0) + v

    max_n = {}
    for s in spans:
        sid, _, name, t0, t1, op, attrs = s
        dur = t1 - t0
        self_s = dur - child_time.get(sid, 0.0)
        add(f"{name.split('.')[0]}.self_s", self_s)
        if nested_in_same(s):
            continue
        if name == "series_engine.sum_to_precision":
            add("series_engine.sum_to_precision.self_s", self_s)
            add("verifier.ladder_rungs", 1)
        elif name in ("emtail.build_poly", "ball_arith.constant"):
            add(f"{name}.calls", 1)
            if attrs["cold"]:
                add(f"{name}.cold", 1)
                add(f"{name}.cold_s", dur)
            else:
                add(f"{name}.warm_s", dur)
        else:
            kind = f".{attrs['kind']}" if attrs and "kind" in attrs else ""
            add(f"{name}.s{kind}", dur)
            add(f"{name}.calls", 1)
        if name == "series_engine.partial_sum":
            add("series_engine.terms_computed", attrs["terms"])
            max_n[op] = max(max_n.get(op, 0), attrs["terms"])
    m["series_engine.terms_used"] = sum(max_n.values())
    computed = m["series_engine.terms_computed"]
    m["series_engine.terms_useful_frac"] = (
        m["series_engine.terms_used"] / computed if computed else 0.0)
    return ({k: m[k] for k in SPAN_METRICS},
            sorted(set(m) - set(SPAN_METRICS)))
