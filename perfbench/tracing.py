"""Span tracing applied to drsim from outside the package.

The traced run replaces drsim functions with timing wrappers for the length
of one `patched()` block and restores the originals afterwards, so the
program's own code carries no tracing. A function imported by name into
another module (`penalized_lstsq` in `causality` and `gamgen`, `fit_entity`
and `tariff_profile` in `gamgen`) is replaced in every namespace that holds
it; methods are replaced on their classes.

Each span records its id, name, start, end, parent span id and run id. Spans
stay in memory until the run ends; `write_spans` saves them.
"""

import contextlib
import functools
import gzip
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

# the benchmark calls drsim.cli itself; its stage calls become pipeline.* spans
UNTRACED_MODULE = "drsim.cli"

# methods that carry per-call layer work
TRACED_METHODS = (
    ("drsim.splines", "CubicSplineBasis", "design"),
    ("drsim.gamgen", "GamGenerator", "sample"),
    ("drsim.gamgen", "GamGenerator", "mean_profile"),
)

# private functions traced because a layer metric counts their calls
TRACED_PRIVATE = (("drsim.neuralgen", "_train_once"),)


def _rows_and_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        data = fh.read()
    return {"dataio.rows_read": max(data.count(b"\n") - 1, 0), "dataio.bytes_read": len(data)}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        return {"dataio.bytes_read": len(fh.read())}


# span name -> fn(args, kwargs, result) -> counter increments, applied after
# the span has closed so the counting is not part of the span's time
COUNTERS = {
    "dataio.read_consumption_csv": _rows_and_bytes,
    "dataio.read_temperature_csv": _rows_and_bytes,
    "dataio.load_prepared": _file_bytes,
    "splines.penalized_lstsq": lambda a, k, r: {"splines.ridge_fallbacks": int(r.ridge_used)},
    "clustering.nmf_factorize": lambda a, k, r: {"clustering.nmf_iterations": len(r.errors) - 1},
    "neuralgen._train_once": lambda a, k, r: {"neuralgen.restarts_failed": int(r[4] is not None)},
}


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, run)
        self.counts = Counter()
        self.run_id = None
        self._ids = itertools.count(1)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.run_id))

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.run_id))
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced


def _short(module_name):
    return module_name[len("drsim."):]


def _targets():
    """Span name of every traced module-level function, keyed by the function."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("drsim.") or mod_name == UNTRACED_MODULE or mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod_name
                    and not attr.startswith("_")):
                found[obj] = f"{_short(mod_name)}.{attr}"
    for mod_name, attr in TRACED_PRIVATE:
        found[getattr(sys.modules[mod_name], attr)] = f"{_short(mod_name)}.{attr}"
    return found


@contextlib.contextmanager
def patched(tracer):
    """Trace drsim functions and methods inside the block, then restore them."""
    undo = []
    try:
        wrappers = {fn: tracer.wrap(name, fn) for fn, name in _targets().items()}
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("drsim.") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for mod_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(f"{_short(mod_name)}.{cls_name}.{attr}", original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def summarize(spans):
    """Per span name: the list of durations, and the total self time."""
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    durations = defaultdict(list)
    self_s = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        durations[name].append(end - start)
        self_s[name] += end - start - child_time[sid]
    return durations, self_s


def write_spans(spans, path):
    """Save spans as gzip CSV: id,name,start,end,parent,run."""
    with gzip.open(path, "wt") as fh:
        fh.write("id,name,start,end,parent,run\n")
        for sid, name, start, end, parent, run in spans:
            fh.write(f"{sid},{name},{start!r},{end!r},{'' if parent is None else parent},{run}\n")
