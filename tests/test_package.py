"""The package namespace: every public name resolves on first access to the
object its submodule defines, and then stays a plain module global."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import groupbuy_inventory as gb


def run_fresh(script):
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", gb.__all__)
def test_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"groupbuy_inventory.{gb._EXPORTS[name]}")
    assert getattr(gb, name) is getattr(module, name)


def test_dir_lists_all():
    assert set(gb.__all__) <= set(dir(gb))
    assert "__version__" in dir(gb)


def test_star_import_binds_all():
    namespace = {}
    exec("from groupbuy_inventory import *", namespace)
    assert set(gb.__all__) <= set(namespace)


def test_submodule_resolves_before_any_other_access():
    # The benchmark's trace replay patches names on gb.sweep.
    run_fresh(
        "import sys\n"
        "import groupbuy_inventory as gb\n"
        "assert gb.sweep is sys.modules['groupbuy_inventory.sweep']\n"
        "assert gb.sweep.run_sweep is gb.run_sweep"
    )


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gb.no_such_name
    assert not hasattr(gb, "no_such_name")


def test_name_becomes_a_module_global_on_first_access():
    run_fresh(
        "import groupbuy_inventory as gb\n"
        "from groupbuy_inventory import sweep\n"
        "assert 'run_sweep' not in vars(gb)\n"
        "gb.run_sweep\n"
        "assert vars(gb)['run_sweep'] is sweep.run_sweep"
    )


@pytest.mark.parametrize(
    "path", sorted(Path(gb.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_module_parses_under_the_oldest_supported_python(path):
    # pyproject.toml declares requires-python >= 3.10.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
