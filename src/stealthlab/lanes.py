"""The package's one thread policy: `run(jobs)` returns `[job() for job in
jobs]`, the calling thread running the even-indexed jobs and one worker
thread the odd ones, each lane in index order; fewer than two jobs start no
thread. numpy releases the GIL in its GEMMs, draws and large ufuncs, so the
lanes overlap. Jobs share no random stream, so their bits do not depend on
the timing, and never call `run`, so at most one worker is alive.

A lane starts no job above one that has failed on either lane, and a Ctrl-C
on the calling thread stops the worker before its next job. Once the worker
is idle, the lowest failing job's error is raised, as if the jobs ran in
order.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor


def run(jobs: Sequence[Callable[[], object]]) -> list:
    if len(jobs) < 2:
        return [job() for job in jobs]
    results: list = [None] * len(jobs)
    # each lane's failing index, len(jobs) while it has none: a lane writes
    # only its own entry, and a failed job's result slot holds its error
    failed = [len(jobs), len(jobs)]

    def lane(first: int) -> None:
        for i in range(first, len(jobs), 2):
            if i > min(failed):
                return
            try:
                results[i] = jobs[i]()
            except BaseException as error:
                results[i], failed[first] = error, i
                return

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="lane") as pool:
        worker = pool.submit(lane, 1)
        try:
            lane(0)
            worker.result()
        except BaseException:
            failed[0] = -1      # a Ctrl-C outside a job: stop the worker
            raise
    if min(failed) < len(jobs):
        raise results[min(failed)]
    return results
