"""Span recording for the traced benchmark run, and the per-layer metrics
derived from it.

The untraced run hands the library its own objects through a `NullTracer`,
whose hooks are plain calls. The traced run hands it proxies instead: every
session, density and algorithm the benchmark passes in is wrapped so that
each call records a span (name, start, end, parent span, trial id and, for
answering calls, the batch size). Spans stay in memory until the run ends
and are then written to one JSON-lines file; `layer_metrics` reads that file
back. A layer's self time is its span time minus the time of its child
spans, so the self times of all layers plus `bench.other_ms` (the self time
of the trial spans) add up to the traced trial time.
"""

import json
from contextlib import contextmanager
from functools import partial
from time import perf_counter_ns

# Span name -> the layer it times. Self time of span NAME is reported as
# NAME + "_ms"; the root span of every trial is reported as bench.other_ms.
LAYERS = (
    "oracle.build",        # HiddenInstance + open_session
    "oracle.answer",       # OracleSession.submit_round
    "locate.plan",         # locate_* self time
    "select.plan",         # build_schedule + select_* self time
    "rank_sort.plan",      # sort_rank self time
    "rank_sort.opponent",  # AdversarySession.submit_round
    "rank_sort.check",     # forced_query_count self time
    "cake.density",        # random_density
    "cake.answer",         # density cut/eval answering
    "cake.plan",           # proportional_protocol / run_proportional self time
    "cake.verify",         # verify_proportional
    "reductions.answer",   # division batches answered by the lazy adversary
    "reductions.verify",   # run_reduction self time outside the protocol
    "reductions.view",     # comparison adapters
    "harness.run",         # run_experiment self time
    "harness.render",      # emit_report
    "cli.main",            # cli.main self time
)
TRIAL = "bench.trial"

# Per-layer metrics with their units, in the order they are printed.
PER_LAYER_UNITS = dict(
    [(name + "_ms", "ms") for name in LAYERS]
    + [("bench.other_ms", "ms"),
       ("bench.trial_ms", "ms"),
       ("oracle.queries", "count"),
       ("oracle.rounds", "count"),
       ("oracle.answer_ns_per_query", "ns/query"),
       ("rank_sort.opponent_queries", "count"),
       ("cake.queries", "count"),
       ("reductions.rank_probes", "count"),
       ("bench.trace_overhead", "ratio")])


class NullTracer:
    """Hooks of the untraced run: the library gets its own objects."""

    trial = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, session, name):
        return session

    def wrap_densities(self, densities, name):
        return densities

    @contextmanager
    def patched(self, points):
        yield


class Tracer:
    """Records one span per hooked call, nested by call order.

    Single-threaded by design: the benchmark runs one client in one thread,
    so the innermost open span is the parent of the next one.
    """

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, trial, count]
        self.trial = -1
        self._open = -1

    def call(self, name, fn, *args, **kwargs):
        return self.counted(name, 0, fn, *args, **kwargs)

    def counted(self, name, count, fn, *args, **kwargs):
        parent = self._open
        span = [name, 0, 0, parent, self.trial, count]
        self._open = len(self.spans)
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._open = parent

    def wrap(self, session, name):
        return _SessionProxy(session, name, self)

    def wrap_densities(self, densities, name):
        return [_DensityProxy(d, name, self) for d in densities]

    @contextmanager
    def patched(self, points):
        """Time module-level functions the library calls internally, for
        layers the benchmark cannot hand in (the CLI builds its own)."""
        saved = []
        try:
            for module, attr, name in points:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, partial(self.call, name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class _SessionProxy:
    """Stands in for a session: times every batch and records its size."""

    def __init__(self, target, name, tracer):
        self._target = target
        self._name = name
        self._tracer = tracer

    def submit_round(self, queries):
        if not hasattr(queries, "__len__"):
            queries = tuple(queries)
        return self._tracer.counted(self._name, len(queries),
                                    self._target.submit_round, queries)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class _DensityProxy:
    """Stands in for an agent's density: times every cut and eval answer."""

    def __init__(self, target, name, tracer):
        self._target = target
        self._name = name
        self._tracer = tracer

    def cut(self, alpha):
        return self._tracer.counted(self._name, 1, self._target.cut, alpha)

    def prefix(self, y):
        return self._tracer.counted(self._name, 1, self._target.prefix, y)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def write_trace(path, header, trial_kinds, spans):
    """One header line, one line mapping trial ids to kinds, one per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(json.dumps({str(t): kind for t, kind in trial_kinds.items()}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_trace(path):
    with open(path) as fh:
        header = json.loads(fh.readline())
        kinds = {int(t): kind for t, kind in json.loads(fh.readline()).items()}
        spans = [json.loads(line) for line in fh]
    return header, kinds, spans


def layer_metrics(path, reps, untraced_ns):
    """Per-layer metrics from a trace file, per replay of the traced trials.

    `reps` is how many times the same trials were replayed traced, and
    `untraced_ns` the time the same replays took untraced.
    """
    _, kinds, spans = read_trace(path)
    self_ns = dict.fromkeys(LAYERS + (TRIAL,), 0)
    counts = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    trial_ns = 0
    rank_probes = 0
    for i, (name, start, end, _, trial, count) in enumerate(spans):
        if name not in self_ns:
            raise ValueError("unknown span name in trace: %r" % (name,))
        self_ns[name] += end - start - child_ns[i]
        if name == TRIAL:
            trial_ns += end - start
            continue
        counts[name] += count
        calls[name] += 1
        if name == "oracle.answer" and kinds[trial] == "reduce":
            rank_probes += count
    out = {name + "_ms": self_ns[name] / reps / 1e6 for name in LAYERS}
    queries = counts["oracle.answer"]
    out.update({
        "bench.other_ms": self_ns[TRIAL] / reps / 1e6,
        "bench.trial_ms": trial_ns / reps / 1e6,
        "oracle.queries": queries // reps,
        "oracle.rounds": calls["oracle.answer"] // reps,
        "oracle.answer_ns_per_query":
            self_ns["oracle.answer"] / queries if queries else 0.0,
        "rank_sort.opponent_queries": counts["rank_sort.opponent"] // reps,
        "cake.queries": counts["cake.answer"] // reps,
        "reductions.rank_probes": rank_probes // reps,
        "bench.trace_overhead": trial_ns / untraced_ns - 1,
    })
    return out
