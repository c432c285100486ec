"""One thread pool for the chunked passes outside training, for synthetic
data and for the input pipeline of training.

numpy releases the GIL inside BLAS calls and large array loops, so the
independent units of the Fisher, correlation and evaluation passes (one
forward per chunk, one record-only backward per chunk and logit-gradient
set) and of a synthetic stream (one draw and mixing GEMM per split and
class) overlap on several cores.  Each random stream is consumed by exactly one unit, in
serial order; large buffers are made on the calling thread.
``ordered_map`` returns results in input order, and every caller
accumulates them on its own thread in that order, so results are
bit-identical for every pool size.  ``prefetched`` runs one job ahead of
its caller: training gathers the next batch and builds its first-layer
input (``Layer.prepare``) there while the current step runs.  The pool is
created on first use.
"""

import os

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no CPU affinity on this platform
    WORKERS = os.cpu_count() or 1

_pool = None  # (size, executor)


def _executor():
    """The pool, made again when ``WORKERS`` changed since it was made."""
    global _pool
    if _pool is None or _pool[0] != WORKERS:
        # Imported here, so that importing rewc does not pay for it (about
        # 8 ms: concurrent.futures brings in logging).
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool[1].shutdown()
        _pool = (WORKERS, ThreadPoolExecutor(WORKERS, thread_name_prefix="rewc"))
    return _pool[1]


def ordered_map(fn, items):
    """``[fn(x) for x in items]`` run on the pool.  Returns once every call
    has ended; the first exception in input order reaches the caller with
    its type."""
    pool = _executor()
    futures = [pool.submit(fn, x) for x in items]
    for f in futures:
        f.exception()  # waits for the call without raising its exception
    return [f.result() for f in futures]


def prefetched(fn, items):
    """Yields ``fn(x)`` for each of ``items`` in order, running the next
    item's call on the pool while the caller works on the current one.
    ``items`` is read on the calling thread.  A call's exception reaches the
    caller with its type.  Closing the generator (``contextlib.closing``)
    waits for the call in flight, so a caller that stops early, also by an
    exception, leaves no job running."""
    pool = _executor()
    jobs = (pool.submit(fn, x) for x in items)
    job = next(jobs, None)
    try:
        while job is not None:
            out = job.result()
            job = next(jobs, None)
            yield out
    finally:
        if job is not None:
            job.exception()  # waits for the call without raising its exception
