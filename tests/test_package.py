"""The lazy package namespace: ``import symgeo`` loads no submodule, and
each public name resolves to its defining module's object on access."""

import os
import subprocess
import sys

import pytest

import symgeo

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(symgeo.__file__)))


def test_import_symgeo_loads_no_submodule():
    probe = ("import sys, symgeo\n"
             "print(sorted(m for m in sys.modules if m.startswith('symgeo.')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", symgeo.__all__)
def test_public_name_is_the_defining_modules_object(name):
    value = getattr(symgeo, name)
    # plain constants carry no __module__; every one of them is linalg's
    owner = sys.modules[getattr(value, "__module__", "symgeo.linalg")]
    assert owner.__name__.startswith("symgeo.")
    assert getattr(owner, name) is value


def test_dir_lists_every_public_name():
    assert "__all__" in dir(symgeo)
    assert set(symgeo.__all__) <= set(dir(symgeo))


def test_submodules_import_from_the_package():
    from symgeo import jets, linalg, maslov, metaplectic, scan, symplectic
    assert [m.__name__ for m in (jets, linalg, maslov, metaplectic, scan,
                                 symplectic)] == [
        "symgeo.jets", "symgeo.linalg", "symgeo.maslov", "symgeo.metaplectic",
        "symgeo.scan", "symgeo.symplectic"]
    assert symgeo.maslov is maslov and "symgeo.maslov" in sys.modules


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        symgeo.no_such_name
    assert not hasattr(symgeo, "jsonio_typo")
