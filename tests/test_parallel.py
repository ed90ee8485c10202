import functools
import gc
import multiprocessing
import os
import signal
import threading
import time
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool

import pytest

from drsim import parallel

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="platform cannot fork"
)


@pytest.fixture()
def cpus(monkeypatch):
    def force(n):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)

    return force


@needs_fork
def test_results_in_item_order_for_uneven_items(cpus):
    cpus(2)

    def slow_first(i):
        time.sleep(0.05 * (4 - i))
        return i * i, os.getpid()

    results = parallel.map_forked(slow_first, range(5))
    assert [r for r, _ in results] == [0, 1, 4, 9, 16]
    pids = {pid for _, pid in results}
    assert os.getpid() not in pids and len(pids) == 2


@needs_fork
def test_first_failure_in_item_order_is_raised_after_every_item_ran(cpus, tmp_path):
    cpus(2)

    def job(i):
        if i == 1:
            time.sleep(0.2)    # fails last in time, first in item order
            raise ZeroDivisionError("item one")
        if i == 3:
            raise KeyError("item three")
        (tmp_path / f"done{i}").touch()
        return i

    with pytest.raises(ZeroDivisionError, match="^item one$"):
        parallel.map_forked(job, range(5))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["done0", "done2", "done4"]


class TwoArgError(Exception):
    """Pickles, but unpickling calls TwoArgError(message) and fails."""

    def __init__(self, what, item):
        super().__init__(f"{what}, {item}")


def raise_two_arg(i):
    if i:
        raise TwoArgError("stuck", i)
    return i


def failure_within(seconds, fn, items):
    """The exception map_forked(fn, items) raises, failing the test if none comes in time."""
    outcome = []

    def call():
        try:
            parallel.map_forked(fn, items)
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "map_forked hung"
    (exc,) = outcome
    return exc


@needs_fork
def test_exception_that_cannot_travel_back_names_itself(cpus):
    # unchecked, the parent could not rebuild it and would report a broken pool
    cpus(2)
    exc = failure_within(30, raise_two_arg, range(2))
    assert type(exc) is RuntimeError and str(exc) == "TwoArgError: stuck, 1"


def die_on_one(i):
    if i == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


@needs_fork
def test_killed_worker_raises_instead_of_hanging(cpus):
    cpus(2)
    assert isinstance(failure_within(30, die_on_one, range(3)), BrokenProcessPool)


def test_one_cpu_runs_in_process(cpus):
    cpus(1)
    assert parallel.map_forked(lambda i: (i, os.getpid()), range(3)) == [
        (i, os.getpid()) for i in range(3)
    ]


def test_no_fork_runs_in_process(cpus, monkeypatch):
    cpus(2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert parallel.worker_count(4) == 1
    assert parallel.map_forked(lambda i: os.getpid(), range(3)) == [os.getpid()] * 3


def test_in_process_failure_raises_at_once(cpus):
    cpus(1)
    ran = []

    def job(i):
        ran.append(i)
        if i == 1:
            raise ValueError("item one")

    with pytest.raises(ValueError, match="item one"):
        parallel.map_forked(job, range(3))
    assert ran == [0, 1]


@needs_fork
def test_nested_call_runs_in_the_worker(cpus):
    cpus(2)

    def outer(i):
        return os.getpid(), parallel.map_forked(lambda j: os.getpid(), range(3))

    for worker, inner in parallel.map_forked(outer, range(2)):
        assert worker != os.getpid()
        assert inner == [worker] * 3


def test_empty_items():
    assert parallel.map_forked(lambda i: i, []) == []
    assert parallel.worker_count(0) == 0


class Payload:
    def __init__(self, value):
        self.value = value


def add_value(payload, i):
    return payload.value + i


def fail_with_value(payload, i):
    raise ValueError(payload.value + i)


@pytest.mark.parametrize("n", [1, 2])
def test_no_reference_to_the_job_survives(cpus, n):
    cpus(n)
    job = functools.partial(add_value, Payload(3))
    ref = weakref.ref(job.args[0])
    assert parallel.map_forked(job, range(2)) == [3, 4]
    del job
    gc.collect()
    assert ref() is None
    assert parallel._job is None


@needs_fork
def test_no_reference_survives_a_failure(cpus):
    cpus(2)
    job = functools.partial(fail_with_value, Payload(0))
    ref = weakref.ref(job.args[0])
    with pytest.raises(ValueError):
        parallel.map_forked(job, range(2))
    del job
    gc.collect()
    assert ref() is None
    assert parallel._job is None


def warn_once(i):
    warnings.warn(f"item {i} warns")
    return i


@pytest.mark.parametrize("n", [1, 2])
def test_warnings_of_pooled_items_reach_the_caller(cpus, n):
    cpus(n)
    with warnings.catch_warnings(record=True) as caught:
        assert parallel.map_forked(warn_once, range(2)) == [0, 1]
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "item 0 warns"), (UserWarning, "item 1 warns")
    ]
    assert {w.filename for w in caught} == {__file__}


def warn_the_same(i):
    warnings.warn("every item warns", RuntimeWarning)


@pytest.mark.parametrize("n", [1, 2])
def test_default_filter_shows_a_repeat_once(cpus, n):
    cpus(n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        parallel.map_forked(warn_the_same, range(3))
    assert [str(w.message) for w in caught] == ["every item warns"]


@needs_fork
def test_caller_filters_apply_to_pooled_warnings(cpus):
    cpus(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", message="item 1")
        parallel.map_forked(warn_once, range(3))
    assert [str(w.message) for w in caught] == ["item 0 warns", "item 2 warns"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="item 0 warns"):
            parallel.map_forked(warn_once, range(2))


@needs_fork
def test_warnings_come_back_before_the_first_failure_is_raised(cpus):
    cpus(2)

    def job(i):
        warnings.warn(f"item {i} warns")
        if i == 1:
            raise ValueError("item one")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="item one"):
            parallel.map_forked(job, range(3))
    assert [str(w.message) for w in caught] == [f"item {i} warns" for i in range(3)]


@needs_fork
def test_warning_class_that_cannot_travel_back_names_itself(cpus):
    class LocalWarning(UserWarning):
        pass

    def job(i):
        warnings.warn(f"item {i}", LocalWarning)

    cpus(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parallel.map_forked(job, range(2))
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "LocalWarning: item 0"), (UserWarning, "LocalWarning: item 1")
    ]


@needs_fork
def test_streamed_results_in_item_order_when_a_later_item_finishes_first(cpus):
    cpus(2)

    def slow_first(i):
        time.sleep(0.2 if i == 0 else 0.0)
        return i, time.monotonic(), os.getpid()

    results = list(parallel.imap_forked(slow_first, range(4)))
    assert [i for i, _, _ in results] == [0, 1, 2, 3]
    assert results[1][1] < results[0][1]
    assert os.getpid() not in {pid for _, _, pid in results}


@pytest.mark.parametrize("n", [1, 2])
def test_items_start_at_most_the_window_ahead(cpus, tmp_path, n):
    # each item returns how many have started; item 0 waits for the window to
    # fill (two items per worker on two CPUs, itself among them), then gives a
    # further item time to start, which none may until its result is taken
    cpus(n)
    window = 4 if parallel.worker_count(n) == 2 else 1

    def started():
        return len(list(tmp_path.iterdir()))

    def job(i):
        (tmp_path / f"started{i}").touch()
        if i == 0:
            deadline = time.monotonic() + 10
            while started() < window and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
        return started()

    counts = list(parallel.imap_forked(job, list(range(20))))
    assert counts[0] == window
    assert all(count <= i + 2 * n for i, count in enumerate(counts))


@needs_fork
def test_streamed_first_failure_in_item_order_is_raised_when_reached(cpus):
    cpus(2)

    def job(i):
        if i == 1:
            time.sleep(0.2)    # fails last in time, first in item order
            raise ZeroDivisionError("item one")
        if i == 2:
            raise KeyError("item two")
        return i

    got = []
    with pytest.raises(ZeroDivisionError, match="^item one$"):
        for result in parallel.imap_forked(job, range(5)):
            got.append(result)
    assert got == [0]
    assert parallel._job is None


@needs_fork
def test_consumer_that_stops_early_ends_the_pool(cpus, tmp_path):
    cpus(2)

    def job(i):
        time.sleep(0.05)
        (tmp_path / f"ran{i}").touch()
        return os.getpid()

    results = parallel.imap_forked(job, list(range(100)))
    worker = next(results)
    results.close()
    assert parallel._job is None
    ran = len(list(tmp_path.iterdir()))
    assert ran < 10
    time.sleep(0.2)
    assert len(list(tmp_path.iterdir())) == ran    # no item starts after the close
    with pytest.raises(ProcessLookupError):        # the workers were joined
        os.kill(worker, 0)


@needs_fork
@pytest.mark.parametrize("mapper", [parallel.map_forked, parallel.imap_forked],
                         ids=["map_forked", "imap_forked"])
def test_items_pickle_cannot_carry_reach_the_workers_by_fork(cpus, mapper):
    cpus(2)
    locks = [threading.Lock() for _ in range(4)]
    results = list(mapper(lambda lock: (lock.acquire(blocking=False), os.getpid()), locks))
    # each worker acquired its own copy of each lock
    assert [acquired for acquired, _ in results] == [True] * 4
    assert os.getpid() not in {pid for _, pid in results}
    assert not any(lock.locked() for lock in locks)


def warn_late_first(i):
    time.sleep(0.1 if i == 0 else 0.0)
    warnings.warn(f"item {i} warns")
    return i


@pytest.mark.parametrize("n", [1, 2])
def test_streamed_warnings_are_issued_in_item_order(cpus, n):
    cpus(n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in parallel.imap_forked(warn_late_first, range(3)):
            # each result comes after its item's warnings, and after no later item's
            assert [str(w.message) for w in caught] == [f"item {j} warns" for j in range(i + 1)]
    assert {w.filename for w in caught} == {__file__}


@pytest.mark.parametrize("n, items", [(1, 3), (2, 1)])
def test_streamed_map_runs_in_process_on_one_cpu_or_one_item(cpus, n, items):
    cpus(n)
    assert list(parallel.imap_forked(lambda i: (i, os.getpid()), range(items))) == [
        (i, os.getpid()) for i in range(items)
    ]


@needs_fork
def test_streamed_map_runs_in_process_inside_a_worker(cpus):
    cpus(2)

    def outer(i):
        return os.getpid(), list(parallel.imap_forked(lambda j: os.getpid(), range(3)))

    for worker, inner in parallel.map_forked(outer, range(2)):
        assert worker != os.getpid()
        assert inner == [worker] * 3
