"""The package namespace: every public name resolves on first use to the
object its module defines, and importing the package loads no module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nncomplete


def test_every_export_is_the_object_of_its_module():
    for name in nncomplete.__all__:
        module = importlib.import_module(f"nncomplete.{nncomplete._EXPORTS[name]}")
        assert getattr(nncomplete, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from nncomplete import *", namespace)
    assert set(nncomplete.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(nncomplete, name) for name in nncomplete.__all__)


def test_dir_lists_every_export():
    assert set(nncomplete.__all__) <= set(dir(nncomplete))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nncomplete.no_such_name


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(Path(nncomplete.__file__).parents[1]))
    code = "import sys, nncomplete; print(' '.join(m for m in sys.modules if m.startswith('nncomplete.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "\n"
