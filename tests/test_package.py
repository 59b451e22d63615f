"""The package layout: the series layer loads on first use, halfq is a leaf.

The fresh-interpreter checks run a child Python with the package's source
directory on its path, so what the parent process imported does not count.
"""

import ast
import os
import subprocess
import sys

import pytest

import quivermoduli
import quivermoduli.halfq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(quivermoduli.__file__)))
SERIES_NAMES = ("SlopeSeries", "adams", "pleth_exp", "pleth_log", "series_exp", "series_log")


def fresh(*args: str) -> str:
    """stdout of a new interpreter run with args that imports the package from SRC.

    It must exit 0 and write nothing to stderr.
    """
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_cli_import_leaves_the_series_layer_out():
    # the CLI reads the common argv form in one pass and builds argparse only for
    # the rest, and the value types are __slots__ classes, so neither argparse nor
    # dataclasses may come back into the import
    modules, unwanted = fresh(
        "-c",
        "import sys, quivermoduli.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('quivermoduli')))\n"
        "print(sorted({'argparse', 'dataclasses'} & set(sys.modules)))",
    ).splitlines()
    assert "quivermoduli.cli" in modules and "quivermoduli.invariants" in modules
    assert "quivermoduli.series" not in modules
    assert unwanted == "[]"


def test_cli_help_exits_0():
    assert fresh("-m", "quivermoduli.cli", "--help").startswith("usage: ")


def test_first_access_loads_the_series_layer():
    out = fresh(
        "-c",
        "import sys, quivermoduli\n"
        "before = 'quivermoduli.series' in sys.modules\n"
        "quivermoduli.pleth_log\n"
        "print(before, 'quivermoduli.series' in sys.modules)"
    )
    assert out.split() == ["False", "True"]


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_series_names_are_the_series_module_objects(name):
    from quivermoduli import series

    assert getattr(quivermoduli, name) is getattr(series, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from quivermoduli import *", namespace)
    assert len(quivermoduli.__all__) == 61
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(quivermoduli.__all__)
    assert namespace["SlopeSeries"] is quivermoduli.series.SlopeSeries


def test_dir_lists_the_series_names():
    names = dir(quivermoduli)
    assert set(SERIES_NAMES) <= set(names)
    assert set(quivermoduli.__all__) <= set(names)
    assert names == sorted(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quivermoduli.no_such_name
    assert not hasattr(quivermoduli, "__no_such_dunder__")


def test_halfq_imports_nothing_from_the_package():
    with open(quivermoduli.halfq.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    relative = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert relative == []
    assert not hasattr(quivermoduli.halfq, "SlopeSeries")
