"""One fork pool for work that splits into independent items.

map_forked(fn, items) is [fn(x) for x in items], spread over the usable
CPUs. The job reaches the workers through fork: fn and items sit in a
module-level slot while the pool runs, so nothing is pickled on the way in
and closures over large arrays cost nothing to send. Only results,
exceptions and warnings travel back; the parent issues each item's
warnings again, in item order, under its own filters. Fork, unlike spawn or
forkserver, also needs no __main__ guard in the calling script.

imap_forked(fn, items) is the lazy form, (fn(x) for x in items) on the same
pool, its items reaching the workers the same way; at most two items per
worker are in flight or waiting to be taken at a time.
"""

import collections
import contextlib
import itertools
import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

_job = None          # the running pool's function of an item index, read by workers
_in_worker = False   # set in pool workers, so a nested call runs in-process
_AHEAD = 2           # items per worker that imap_forked keeps in flight or waiting


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


def _call(arg):
    """(None, _job(arg), warnings) or (exception, None, warnings), run in a
    worker; warnings are (category, message, filename, lineno) tuples."""
    # filters are inherited from the parent through fork, so record what it would show
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = None, _job(arg)
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


@contextlib.contextmanager
def _pool(fn, items, workers):
    """A fork pool of workers processes whose _call(i) runs fn(items[i]). On
    leaving, the items not yet started are cancelled and the running ones awaited."""
    global _job
    _job = lambda index: fn(items[index])
    try:
        # unlike multiprocessing.Pool, the executor raises BrokenProcessPool
        # when a worker dies (killed, say, for memory) instead of waiting forever
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _mark_worker)
        try:
            yield pool
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _job = None


def _issue(sent, registry):
    """Issue again, under the caller's filters, the warnings _call sent."""
    for category, message, filename, lineno in sent:
        warnings.warn_explicit(message, category, filename, lineno, registry=registry)


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
    items = list(items)
    workers = worker_count(len(items))
    if workers < 2:
        return [fn(x) for x in items]
    with _pool(fn, items, workers) as pool:
        outcomes = list(pool.map(_call, range(len(items))))
    registry = {}  # as in-process, a "default" filter shows a repeat at one place once
    for _, _, sent in outcomes:
        _issue(sent, registry)
    for exc, _, _ in outcomes:
        if exc is not None:
            raise exc
    return [result for _, result, _ in outcomes]


def imap_forked(fn, items):
    """fn(x) for each x of the sequence items, lazily and in item order, on
    min(len(items), usable CPUs) fork workers.

    Never more than two items per worker run ahead of the consumer, and as
    many results at most wait in the parent. The map runs in-process, one
    item at a time, where map_forked would. Each result comes after the
    warnings its item raised have been issued again; the first exception
    in item order is raised when the consumer reaches it. A consumer that
    stops early, or an exception, ends the pool: items not yet started are
    dropped and the running ones awaited. fn and items travel by fork, as
    in map_forked. While the consumer holds the map, the slot holds its
    job: it must not start another pool.
    """
    workers = worker_count(len(items))
    if workers < 2:
        for x in items:
            yield fn(x)
        return
    with _pool(fn, items, workers) as pool:
        indices = iter(range(len(items)))
        pending = collections.deque(pool.submit(_call, index)
                                    for index in itertools.islice(indices, _AHEAD * workers))
        registry = {}
        while pending:
            exc, result, sent = pending.popleft().result()
            pending.extend(pool.submit(_call, index) for index in itertools.islice(indices, 1))
            _issue(sent, registry)
            if exc is not None:
                raise exc
            yield result
