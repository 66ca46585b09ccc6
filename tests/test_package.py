"""The package namespace: every public name resolves to its home module's
object on first use, and `import pocbounds` by itself loads no submodule."""

import importlib
import os
import subprocess
import sys

import pytest

import pocbounds


@pytest.mark.parametrize("name", pocbounds.__all__)
def test_each_public_name_is_its_home_modules_object(name):
    value = getattr(pocbounds, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("pocbounds.")
    assert getattr(home, name) is value


def test_dir_lists_every_public_name():
    assert set(pocbounds.__all__) <= set(dir(pocbounds))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pocbounds import *", namespace)
    for name in pocbounds.__all__:
        assert namespace[name] is getattr(pocbounds, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'pocbounds'.*'no_such_name'"):
        pocbounds.no_such_name
    assert not hasattr(pocbounds, "no_such_name")


def test_submodules_import_by_name():
    from pocbounds import engine, model, oracle, simgen

    assert (engine.bound, model.Interval) == (pocbounds.bound, pocbounds.Interval)
    assert (oracle.tight_bounds, simgen.run_simulation) == (
        pocbounds.tight_bounds,
        pocbounds.run_simulation,
    )


def test_import_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = (
        "import sys, pocbounds; "
        "print(sorted(m for m in sys.modules if m.startswith('pocbounds'))); "
        "pocbounds.Interval; "
        "print(sorted(m for m in sys.modules if m.startswith('pocbounds')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["['pocbounds']", "['pocbounds', 'pocbounds.model']"]
