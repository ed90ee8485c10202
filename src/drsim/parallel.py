"""One fork pool for work that splits into independent items.

map_forked(fn, items) is [fn(x) for x in items], spread over the usable
CPUs; imap_forked(fn, items) is the same map streamed, at most two items per
worker ahead of its consumer. Both take the per-item outcomes of one loop,
so one rule holds on any CPU count: results come in item order, each item's
warnings are issued again in item order under the caller's filters, and the
first exception in item order is raised, by map_forked once every item has
run, by imap_forked when its consumer reaches it.

The job reaches the workers through fork: fn and items sit in a
module-level slot while the pool runs, so nothing is pickled on the way in
and closures over large arrays cost nothing to send. Only results,
exceptions and warnings travel back; an exception keeps its worker's
traceback as its cause. Fork, unlike spawn or forkserver, also
needs no __main__ guard in the calling script.
"""

import collections
import contextlib
import itertools
import multiprocessing
import os
import pickle
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor

_job = None          # the running pool's function of an item index, read by workers
_in_worker = False   # set in pool workers, so a nested call runs in-process
_AHEAD = 2           # items per worker in flight or waiting ahead of the consumer


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


class _RemoteTraceback(Exception):
    """A pool worker's traceback, as the cause of the exception it raised."""


def _call(arg):
    """(None, _job(arg), None, warnings) or (exception, None, its traceback,
    warnings), run in a worker; warnings are (category, message, filename,
    lineno) tuples."""
    # filters are inherited from the parent through fork, so record what it would show
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = None, _job(arg), None
        except Exception as exc:
            if not _travels(exc):  # an exception that cannot travel back still names itself
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            outcome = exc, None, traceback.format_exc()
    sent = []
    for w in caught:
        category, message = w.category, str(w.message)
        if not _travels(category):  # a warning class that cannot travel back names itself
            category, message = UserWarning, f"{category.__name__}: {message}"
        sent.append((category, message, w.filename, w.lineno))
    return *outcome, sent


def _outcomes(fn, items):
    """(exception or None, fn(x)) for each x of the sequence items, in item order.

    Items run in-process where worker_count says so, else on a fork pool
    whose _call(i) runs fn(items[i]), at most _AHEAD items per worker ahead
    of the consumer; an item's warnings are issued before its outcome is
    yielded, and a worker's exception has the worker's traceback as its
    cause. Closing the generator cancels the items not yet started and
    awaits the running ones.
    """
    workers = worker_count(len(items))
    if workers < 2:
        for x in items:
            try:
                outcome = None, fn(x)
            except Exception as exc:
                outcome = exc, None
            yield outcome
        return
    global _job
    # unlike multiprocessing.Pool, the executor raises BrokenProcessPool when
    # a worker dies (killed, say, for memory) instead of waiting forever; a
    # fork pool forks all its workers at the first submit, after _job is set
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _mark_worker)
    _job = lambda index: fn(items[index])
    try:
        indices = iter(range(len(items)))
        pending = collections.deque(pool.submit(_call, index)
                                    for index in itertools.islice(indices, _AHEAD * workers))
        registry = {}  # as in-process, a "default" filter shows a repeat at one place once
        while pending:
            exc, result, remote, sent = pending.popleft().result()
            pending.extend(pool.submit(_call, index) for index in itertools.islice(indices, 1))
            for category, message, filename, lineno in sent:
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            if exc is not None:
                exc.__cause__ = _RemoteTraceback(remote)
            yield exc, result
    finally:
        _job = None
        pool.shutdown(cancel_futures=True)


def map_forked(fn, items):
    """[fn(x) for x in items] on min(len(items), usable CPUs) fork workers.

    The call runs in-process when that is one worker, when the platform
    cannot fork, or when the caller is itself a pool worker. Either way the
    results come in item order, every item runs to the end and has its
    warnings issued again in item order, and then the first exception in item
    order is raised: neither the error nor the items that ran depend on
    timing or the CPU count. A worker that dies raises BrokenProcessPool. The
    slot holds one job, so threads must not call this concurrently.
    """
    outcomes = list(_outcomes(fn, list(items)))
    for exc, _ in outcomes:
        if exc is not None:
            raise exc
    return [result for _, result in outcomes]


def imap_forked(fn, items):
    """fn(x) for each x of the sequence items, lazily and in item order, on
    the workers map_forked would use.

    At most two items per worker run ahead of the consumer, and as many
    results at most wait in the parent. Each result comes after its item's
    warnings; the first exception in item order is raised when the consumer
    reaches it. A consumer that stops early, or an exception, ends the map:
    items not yet started are dropped and the running ones awaited. While
    the consumer holds the map, the slot holds its job: it must not start
    another pool.
    """
    with contextlib.closing(_outcomes(fn, items)) as outcomes:
        for exc, result in outcomes:
            if exc is not None:
                raise exc
            yield result
