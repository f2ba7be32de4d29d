"""Run-time pieces every layer shares: the two error bases, the size budget
and the ordered map that works on the calling thread plus up to
MMI_LAB_THREADS - 1 worker threads.  This module imports no other
``mmi_lab`` module.

Every error raised for a bad setting or bad data derives from exactly one
base, and the base sets the command line's exit code: :class:`ConfigError`
exit 2, :class:`DataError` exit 3.  Both are ``ValueError`` subclasses.  Any
other exception is a bug (exit 1, with a traceback).
"""

from __future__ import annotations

import os
from threading import Lock, Thread, local


class ConfigError(ValueError):
    """Invalid or inconsistent configuration: exit 2."""


class DataError(ValueError):
    """Unusable measurement data for the requested analysis: exit 3."""


MAX_ELEMENTS = 1 << 26  # per array a setting or flag sizes: 512 MiB of float64


def check_size(elements: float, what: str) -> None:
    """Raise ConfigError ``what`` unless ``elements`` <= MAX_ELEMENTS (NaN fails)."""
    if not elements <= MAX_ELEMENTS:
        raise ConfigError(what)


def max_threads() -> int:
    """Worker cap from the MMI_LAB_THREADS environment variable (default 1)."""
    value = os.environ.get("MMI_LAB_THREADS", "1")
    if not (value.isascii() and value.isdigit() and int(value) > 0):
        raise ConfigError(f"MMI_LAB_THREADS must be a positive integer, got {value!r}")
    return int(value)


_worker = local()


def _ordered_map(fn, items) -> list:
    """``[fn(x) for x in items]`` on the calling thread and up to
    ``max_threads() - 1`` worker threads.

    Every thread takes its next item from one shared iterator and puts the
    result in the item's slot, so results keep the order of ``items``.
    Once a call raises, no thread starts another item; every worker is
    joined, then the first exception is raised.  A call from inside a map,
    on a worker or on the caller during its share, runs serially, so there
    is never a map inside a map and never more than MMI_LAB_THREADS threads
    at work.
    """
    items = list(items)
    threads = min(max_threads(), len(items))
    if threads < 2 or getattr(_worker, "busy", False):
        return [fn(x) for x in items]
    results = [None] * len(items)
    pending, lock, errors = iter(enumerate(items)), Lock(), []

    def work():
        _worker.busy = True
        try:
            while not errors:
                with lock:
                    k, x = next(pending, (None, None))
                if k is None:
                    return
                results[k] = fn(x)
        except BaseException as exc:  # raised on the calling thread below
            errors.append(exc)
        finally:
            _worker.busy = False

    workers = [Thread(target=work) for _ in range(threads - 1)]
    for t in workers:
        t.start()
    try:
        work()
    finally:
        for t in workers:
            t.join()
    if errors:
        raise errors[0]
    return results
