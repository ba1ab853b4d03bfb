"""One thread pool for the array loops that numpy runs without the GIL: the
raycast and the k-NN screen.

Work is split into items that each write only their own result, so the
results do not depend on the CPU count.
"""

import os
import threading


def map_in_order(fn, items, most: int) -> list:
    """``[fn(item) for item in items]``, run on as many threads as the
    process's CPU affinity mask has CPUs, and at most ``most``.

    Items are handed out in order as threads free up, the calling thread
    being one of them. A failure raises what the serial loop would raise
    first, and no item starts once a failure is seen or the calling thread
    is interrupted. Fewer than two items or workers run in that serial
    loop, on no thread.
    """
    items = list(items)
    workers = min(len(items), most)
    if workers > 1:  # reading the mask is a system call, which a single-query screen skips
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(workers, cpus or 1)
    if workers < 2:
        return [fn(item) for item in items]
    results, errors = [None] * len(items), {}
    lock, pending = threading.Lock(), iter(range(len(items)))

    def work() -> None:
        while True:
            with lock:
                i = None if errors else next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                return

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    try:
        for t in threads:
            t.start()
        work()
        for t in threads:
            t.join()
    except BaseException as exc:  # raised outside fn: an interrupt
        errors[-1] = exc  # one atomic store, and no worker takes a further item
        raise
    if errors:  # items start in order, so every item before this one ran
        raise errors[min(errors)]
    return results
