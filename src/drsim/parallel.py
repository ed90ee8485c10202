"""One fork pool for work that splits into independent items.

map_forked(fn, items) is [fn(x) for x in items], spread over the usable
CPUs. The job reaches the workers through fork: fn and items sit in a
module-level slot while the pool runs, so nothing is pickled on the way in
and closures over large arrays cost nothing to send. Only results,
exceptions and warnings travel back; the parent issues each item's
warnings again, in item order, under its own filters. Fork, unlike spawn or
forkserver, also needs no __main__ guard in the calling script.
"""

import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

_job = None          # (fn, items) of the running map_forked call, read by workers
_in_worker = False   # set in pool workers, so a nested call runs in-process


def usable_cpus():
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def worker_count(n_items):
    """Processes map_forked uses for n_items; 1 or fewer means in-process."""
    n = min(n_items, usable_cpus())
    if _in_worker or "fork" not in multiprocessing.get_all_start_methods():
        return min(n, 1)
    return n


def _mark_worker():
    global _in_worker
    _in_worker = True


def _travels(obj):
    try:
        pickle.loads(pickle.dumps(obj))
    except Exception:
        return False
    return True


def _call(index):
    """(None, fn(items[index]), warnings) or (exception, None, warnings), run in
    a worker; warnings are (category, message, filename, lineno) tuples."""
    fn, items = _job
    # filters are inherited from the parent through fork, so record what it would show
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = None, fn(items[index])
        except Exception as exc:
            if not _travels(exc):  # an exception that cannot travel back still names itself
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            outcome = exc, None
    sent = []
    for w in caught:
        category, message = w.category, str(w.message)
        if not _travels(category):  # a warning class that cannot travel back names itself
            category, message = UserWarning, f"{category.__name__}: {message}"
        sent.append((category, message, w.filename, w.lineno))
    return *outcome, sent


def map_forked(fn, items):
    """[fn(x) for x in items] on min(len(items), usable CPUs) fork workers.

    Results come back in item order. The call runs in-process when that is
    one worker, when the platform cannot fork, or when the caller is itself a
    pool worker. Every item runs to the end; then the warnings the items
    raised are issued again in item order, and the first exception in item
    order is raised, so which error surfaces does not depend on timing. A
    worker that dies raises BrokenProcessPool. The slot holds one job, so
    threads must not call this concurrently.
    """
    global _job
    items = list(items)
    workers = worker_count(len(items))
    if workers < 2:
        return [fn(x) for x in items]
    _job = (fn, items)
    try:
        # unlike multiprocessing.Pool, the executor raises BrokenProcessPool
        # when a worker dies (killed, say, for memory) instead of waiting forever
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 _mark_worker) as pool:
            outcomes = list(pool.map(_call, range(len(items))))
    finally:
        _job = None
    registry = {}  # as in-process, a "default" filter shows a repeat at one place once
    for _, _, sent in outcomes:
        for category, message, filename, lineno in sent:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    for exc, _, _ in outcomes:
        if exc is not None:
            raise exc
    return [result for _, result, _ in outcomes]
