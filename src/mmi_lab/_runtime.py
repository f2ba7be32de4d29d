"""Run-time pieces every layer shares: the two error bases, the size budget
and the worker pool.  This module imports no other ``mmi_lab`` module.

Every error raised for a bad setting or bad data derives from exactly one
base, and the base sets the command line's exit code: :class:`ConfigError`
exit 2, :class:`DataError` exit 3.  Both are ``ValueError`` subclasses.  Any
other exception is a bug (exit 1, with a traceback).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


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


_worker = threading.local()


def _ordered_map(fn, items) -> list:
    """``[fn(x) for x in items]`` on up to ``max_threads()`` threads.

    Results keep the order of ``items``.  A call from inside a worker runs
    serially, so there is never a pool inside a pool and never more than
    MMI_LAB_THREADS threads at work.
    """
    items = list(items)
    workers = min(max_threads(), len(items))
    if workers < 2 or getattr(_worker, "busy", False):
        return [fn(x) for x in items]

    def work(x):
        _worker.busy = True
        return fn(x)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items))
