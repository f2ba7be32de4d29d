"""In-memory span tracer that instruments a package from the outside.

A span is a dict with ``id``, ``name``, ``start``, ``end``, ``parent`` (the
id of the enclosing span on the same thread, or None), ``counts`` and
``error``.  Spans stay in memory; the caller writes them out at the end.

``Tracer.patch`` replaces a function in every loaded module of its package
that binds it, so a copy made by ``from .x import f`` is traced as well, and
``Tracer.restore`` puts every original back.  Times come from
``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is shared by all
processes on one machine, so spans recorded in child processes can be
grafted under a span of the parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.monotonic):
        self.spans: list[dict] = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields the span dict."""
        stack = self._stack()
        rec = {"id": next(self._ids), "name": name, "start": self._clock(),
               "end": None, "parent": stack[-1] if stack else None,
               "counts": {}, "error": False}
        self.spans.append(rec)
        stack.append(rec["id"])
        try:
            yield rec
        except BaseException:
            rec["error"] = True
            raise
        finally:
            stack.pop()
            rec["end"] = self._clock()

    def wrap(self, name: str, func, count=None):
        """Traced stand-in for ``func``.

        ``count(arguments, result)`` returns the span's counts, where
        ``arguments`` maps every parameter name (defaults applied) to its
        value.
        """
        sig = inspect.signature(func) if count is not None else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = func(*args, **kwargs)
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec["counts"] = count(bound.arguments, result)
            return result

        return traced

    def graft(self, spans: list[dict], parent: int) -> None:
        """Adopt spans recorded elsewhere (another process) under ``parent``."""
        new_id = {s["id"]: next(self._ids) for s in spans}
        for s in spans:
            self.spans.append({**s, "id": new_id[s["id"]],
                               "parent": (parent if s["parent"] is None
                                          else new_id[s["parent"]])})

    # -- patching ------------------------------------------------------------

    def patch(self, module: str, attr: str, name: str, count=None) -> None:
        """Trace ``module.attr`` (``attr`` may be ``Class.method``) as ``name``."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[leaf]
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, leaf, type(raw)(self.wrap(name, raw.__func__, count)))
            else:
                self._set(owner, leaf, self.wrap(name, raw, count))
            return
        raw = getattr(owner, leaf)
        traced = self.wrap(name, raw, count)
        package = module.partition(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, traced)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        """Put back every attribute ``patch`` replaced, newest first."""
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
