import random
import sys
import threading

import pytest

from stealthlab import lanes

WAIT_S = 10     # every wait's timeout: a wait that runs out fails its test


class Injected(Exception):
    pass


def recording(log, i, value=None):
    """A job that records its index in `log` when it starts."""
    def job():
        log.append(i)
        return value
    return job


def failing(log, i):
    def job():
        log.append(i)
        raise Injected(i)
    return job


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_results_come_in_job_order(n):
    assert lanes.run([lambda i=i: i * i for i in range(n)]) == [
        i * i for i in range(n)]


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_jobs_start_no_thread(n, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(lanes, "ThreadPoolExecutor", no_pool)
    threads = []
    jobs = [lambda: threads.append(threading.current_thread())] * n
    assert lanes.run(jobs) == [None] * n
    assert threads == [threading.current_thread()] * n


@pytest.mark.parametrize("n", [2, 3, 5])
def test_even_jobs_run_here_and_odd_ones_on_one_worker(n):
    threads = [None] * n

    def job(i):
        threads[i] = threading.current_thread()
        return i

    before = threading.active_count()
    assert lanes.run([lambda i=i: job(i) for i in range(n)]) == list(range(n))
    here = threading.current_thread()
    assert len(set(threads)) == 2
    assert set(threads[::2]) == {here} and here not in threads[1::2]
    assert threading.active_count() == before


@pytest.mark.parametrize("low", [0, 1])
def test_the_lower_index_error_wins(low):
    # jobs `low` and `low + 1` fail on different lanes, the higher one first
    started = []
    higher_failed = threading.Event()

    def low_job():
        started.append(low)
        assert higher_failed.wait(WAIT_S)
        raise Injected(low)

    def higher_job():
        started.append(low + 1)
        higher_failed.set()
        raise Injected(low + 1)

    jobs = [recording(started, i) for i in range(6)]
    jobs[low], jobs[low + 1] = low_job, higher_job
    with pytest.raises(Injected) as raised:
        lanes.run(jobs)
    assert raised.value.args == (low,)
    assert sorted(started) == list(range(low + 2))


@pytest.mark.parametrize("fails", [0, 1], ids=["calling-lane", "worker"])
@pytest.mark.parametrize("error", [Injected, KeyboardInterrupt])
def test_a_failure_stops_both_lanes(fails, error):
    # job `fails` raises while the other lane runs its first job, which
    # finishes after the failure: no job above the two starts
    started = []
    other_running, failing_now = threading.Event(), threading.Event()

    def failing_job():
        started.append(fails)
        assert other_running.wait(WAIT_S)
        failing_now.set()
        raise error(fails)

    def other_job():
        started.append(1 - fails)
        other_running.set()
        assert failing_now.wait(WAIT_S)

    jobs = [recording(started, i) for i in range(6)]
    jobs[fails], jobs[1 - fails] = failing_job, other_job
    with pytest.raises(error):
        lanes.run(jobs)
    assert sorted(started) == [0, 1]


def test_the_lowest_failure_wins_under_fast_switching():
    # whatever the interleaving, the lowest failing job starts and its
    # error is raised, and no lane starts a job above its own failure
    rng = random.Random(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(300):
            n = rng.randint(2, 9)
            fails = {i for i in range(n) if rng.random() < 0.3}
            started = []
            jobs = [failing(started, i) if i in fails
                    else recording(started, i, i) for i in range(n)]
            if fails:
                with pytest.raises(Injected) as raised:
                    lanes.run(jobs)
                assert raised.value.args == (min(fails),)
                for lane in (0, 1):
                    stop = min((i for i in fails if i % 2 == lane), default=n)
                    assert all(i <= stop for i in started if i % 2 == lane)
            else:
                assert lanes.run(jobs) == list(range(n))
    finally:
        sys.setswitchinterval(interval)
