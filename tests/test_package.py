"""The lazy package namespace: ``import symgeo`` loads no submodule, and
each public name resolves to its defining module's object on access."""

import os
import subprocess
import sys

import pytest

import symgeo
import symgeo.jets

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(symgeo.__file__)))


def _loaded_after(statement: str) -> str:
    """The symgeo submodules loaded in a fresh interpreter by ``statement``."""
    probe = (f"import sys; {statement}\n"
             "print(sorted(m for m in sys.modules if m.startswith('symgeo.')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.strip()


def test_import_symgeo_loads_no_submodule():
    assert _loaded_after("import symgeo") == "[]"


def test_import_symgeo_jets_loads_no_jets_submodule():
    assert _loaded_after("import symgeo.jets") == "['symgeo.jets']"


@pytest.mark.parametrize("name", symgeo.jets.__all__)
def test_jets_name_is_the_defining_modules_object(name):
    value = getattr(symgeo.jets, name)
    owner = sys.modules[value.__module__]
    assert owner.__name__.startswith("symgeo.jets.")
    assert getattr(owner, name) is value


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
