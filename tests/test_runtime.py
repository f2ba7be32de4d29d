"""The exit-code contract: every error the package raises for a bad setting or
bad data derives from exactly one of the two bases in ``mmi_lab._runtime``,
which imports no other package module; any other exception is a bug, and
``cli.main`` lets it out as a traceback."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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
