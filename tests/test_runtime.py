"""The exit-code contract: every error the package raises for a bad setting or
bad data derives from exactly one of the two bases in ``mmi_lab._runtime``,
which imports no other package module; any other exception is a bug, and
``cli.main`` lets it out as a traceback.  The ordered map works on the
calling thread plus MMI_LAB_THREADS - 1 workers, and its first exception
reaches the caller once every worker is joined."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mmi_lab
from mmi_lab import _runtime
from mmi_lab._runtime import ConfigError, DataError
from mmi_lab.characterize import CharacterizationError
from mmi_lab.core import DegenerateDistributionError, ModeIndexError
from mmi_lab.matrix import MatrixError
from mmi_lab.tagstream import StreamFormatError, TimeTagStream

# each error class and the base that decides its exit code
BASES = {
    ConfigError: ConfigError,
    MatrixError: ConfigError,
    ModeIndexError: ConfigError,
    DataError: DataError,
    StreamFormatError: DataError,
    CharacterizationError: DataError,
    DegenerateDistributionError: DataError,
}


@pytest.mark.parametrize("cls", BASES, ids=lambda cls: cls.__name__)
def test_every_error_class_has_exactly_one_base(cls):
    assert issubclass(cls, ValueError)
    assert [base for base in (ConfigError, DataError) if issubclass(cls, base)] == [BASES[cls]]


def test_mode_index_error_is_still_an_index_error():
    assert issubclass(ModeIndexError, IndexError)


def test_the_table_holds_every_error_class_of_the_package():
    modules = [importlib.import_module(f"mmi_lab.{m.name}")
               for m in pkgutil.iter_modules(mmi_lab.__path__)]
    found = {obj for module in modules for obj in vars(module).values()
             if isinstance(obj, type) and issubclass(obj, Exception)
             and obj.__module__.startswith("mmi_lab")}
    assert found == set(BASES)


def test_runtime_imports_no_package_module():
    tree = ast.parse(Path(_runtime.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.append(node.module)
    assert imported and not [name for name in imported if name.split(".")[0] == "mmi_lab"]


def test_a_value_error_from_a_kernel_is_a_traceback_not_a_data_error(tmp_path):
    stream = tmp_path / "s.ttag"
    TimeTagStream(np.arange(4, dtype=np.uint8), np.array([0, 10, 20, 30], np.uint64),
                  4).write_file(stream)
    src = Path(mmi_lab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "from mmi_lab import cli, pipeline\n"
            "def kernel(*args, **kwargs):\n"
            "    raise ValueError('injected kernel bug')\n"
            "pipeline.extract_coincidences = kernel\n"
            f"sys.exit(cli.main(['analyze', 'mmi', '--stream', {str(stream)!r}, "
            f"'--out', {str(tmp_path / 'o')!r}]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 1
    assert out.stderr.startswith("Traceback (most recent call last):")
    assert out.stderr.endswith("ValueError: injected kernel bug\n")
    assert "data error" not in out.stderr
    assert not (tmp_path / "o").exists()


def bounded(fn, timeout=60.0):
    """``fn()`` on a thread of its own, joined within ``timeout`` seconds:
    ``(caller thread, result, exception)``."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except Exception as exc:
            out["error"] = exc

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive()
    return caller, out.get("result"), out.get("error")


def test_ordered_map_under_contention(monkeypatch):
    # eight threads on fewer cores and a switch every microsecond: each item
    # runs once, results keep their order, a nested map stays on its
    # thread, and no more than MMI_LAB_THREADS calls are ever at work
    monkeypatch.setenv("MMI_LAB_THREADS", "8")
    lock, calls, active, most = threading.Lock(), Counter(), [0], [0]

    def fn(x):
        with lock:
            calls[x] += 1
            active[0] += 1
            most[0] = max(most[0], active[0])
        me = threading.current_thread()
        inner = _runtime._ordered_map(lambda y: (threading.current_thread() is me, y), range(3))
        sum(range(x % 200))
        with lock:
            active[0] -= 1
        return x * x, inner

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, results, error = bounded(lambda: _runtime._ordered_map(fn, range(3000)))
    finally:
        sys.setswitchinterval(interval)
    assert error is None
    assert [r for r, _ in results] == [x * x for x in range(3000)]
    assert all(inner == [(True, 0), (True, 1), (True, 2)] for _, inner in results)
    assert sorted(calls) == list(range(3000)) and set(calls.values()) == {1}
    assert 1 <= most[0] <= 8


def test_ordered_map_works_on_the_caller_and_every_worker(monkeypatch):
    # eight items that each wait until eight calls are at work: they pass
    # only if the caller takes one and the other seven run on workers
    monkeypatch.setenv("MMI_LAB_THREADS", "8")
    barrier, threads = threading.Barrier(8, timeout=30), []

    def fn(x):
        barrier.wait()
        threads.append(threading.current_thread())
        return x

    caller, results, error = bounded(lambda: _runtime._ordered_map(fn, range(8)))
    assert error is None and results == list(range(8))
    assert len(set(threads)) == 8 and caller in threads
    assert not any(t.is_alive() for t in threads)


class Boom(Exception):
    pass


@pytest.mark.parametrize("raiser", ["worker", "caller"])
def test_an_exception_reaches_the_caller_after_every_worker_is_joined(monkeypatch, raiser):
    # the first four items wait until the caller and its three workers hold
    # one each; then the raiser's item raises, and no thread starts many more
    monkeypatch.setenv("MMI_LAB_THREADS", "4")
    barrier, threads, started, caller = threading.Barrier(4, timeout=30), [], [], []

    def fn(x):
        started.append(x)
        if x >= 4:
            time.sleep(0.001)
            return x
        barrier.wait()
        me = threading.current_thread()
        threads.append(me)
        if (me is caller[0]) == (raiser == "caller"):
            raise Boom(raiser)
        return x

    def run():
        caller.append(threading.current_thread())
        return _runtime._ordered_map(fn, range(2000))

    _, results, error = bounded(run)
    assert results is None and isinstance(error, Boom) and error.args == (raiser,)
    assert len(set(threads)) == 4 and caller[0] in threads
    assert not any(t.is_alive() for t in threads)
    assert len(started) < 2000
