"""The value-class contract: every record class of symgeo compares, hashes
and prints by its fields, refuses assignment, and survives copy and pickle
without running its checks again."""

import copy
import pickle
from fractions import Fraction as F

import numpy as np
import pytest

from symgeo.jets.metasymplectic import CovectorSlot, IntegralPlaneModel, ModelVector
from symgeo.jets.symtensor import JetSignature, SymTensor
from symgeo.linalg import Matrix, Signature, _trusted
from symgeo.maslov import LagrangianTuple, LerayLift
from symgeo.metaplectic import Mp1Context, Mp1Element
from symgeo.scan import ChiSpec, SampledImmersion
from symgeo.symplectic import LagrangianFrame, Subspace, SymplecticSpace

_OMEGA = "Matrix(rows=2, cols=2, num=((0, 1), (-1, 0)), den=1, mode='exact', tol=1e-09)"
_SPACE = f"SymplecticSpace(omega={_OMEGA})"
_X = "Matrix(rows=2, cols=1, num=((2,), (1,)), den=2, mode='exact', tol=1e-09)"
_Y = "Matrix(rows=2, cols=1, num=((0,), (1,)), den=1, mode='exact', tol=1e-09)"
_BASE = f"LagrangianFrame(space={_SPACE}, frame={_Y})"
_CTX = f"Mp1Context(space={_SPACE}, base={_BASE})"
_SIG = "JetSignature(n=1, m=1, k=2)"
_THETA = "SymTensor(n=1, m=1, degree=2, coeffs=(Fraction(2, 1),))"


def _instances() -> dict:
    """One small instance per class, by class name."""
    sp = SymplecticSpace.standard(1)
    x, y = Matrix.exact([[1], [F(1, 2)]]), Matrix.exact([[0], [1]])
    sig = JetSignature(1, 1, 2)
    theta = SymTensor(1, 1, 2, (F(2),))
    objs = [
        Matrix.exact([[1, F(1, 2)], [0, 3]]), Signature(2, 1, 0), sp,
        Subspace(sp, x), LagrangianFrame(sp, x),
        LagrangianTuple.of(LagrangianFrame(sp, x), LagrangianFrame(sp, y)),
        LerayLift.from_direction(1, 1, 1), Mp1Context.standard(1),
        Mp1Element(Mp1Context.standard(1), 1, Matrix.exact([[1, 1], [0, 1]])),
        sig, theta, CovectorSlot(sig, (F(1, 3),)), ModelVector(sig, (F(1),), theta),
        IntegralPlaneModel(sig, x), ChiSpec(1, 2.0),
        SampledImmersion(1, 2, "line", [[0.0], [1.0]], [[0.0, 0.0], [1.0, 1.0]]),
    ]
    return {type(o).__name__: o for o in objs}


# class name -> (fields, the fields == and hash read, repr), as the classes
# had them when they were frozen dataclasses
_CONTRACT = {
    "Matrix": ("rows cols num den mode tol", "rows cols num den mode",
               "Matrix(rows=2, cols=2, num=((2, 1), (0, 6)), den=2, mode='exact', "
               "tol=1e-09)"),
    "Signature": ("pos zero neg", None, "Signature(pos=2, zero=1, neg=0)"),
    "SymplecticSpace": ("omega", None, _SPACE),
    "Subspace": ("space frame", None, f"Subspace(space={_SPACE}, frame={_X})"),
    "LagrangianFrame": ("space frame", None,
                        f"LagrangianFrame(space={_SPACE}, frame={_X})"),
    "LagrangianTuple": ("members", None,
                        f"LagrangianTuple(members=(LagrangianFrame(space={_SPACE}, "
                        f"frame={_X}), {_BASE}))"),
    "LerayLift": ("theta_tilde direction", None,
                  "LerayLift(theta_tilde=3.9269908169872414, "
                  "direction=(Fraction(1, 1), Fraction(1, 1), 1))"),
    "Mp1Context": ("space base", None, _CTX),
    "Mp1Element": ("ctx w g", None,
                   f"Mp1Element(ctx={_CTX}, w=1, g=Matrix(rows=2, cols=2, "
                   "num=((1, 1), (0, 1)), den=1, mode='exact', tol=1e-09))"),
    "JetSignature": ("n m k", None, _SIG),
    "SymTensor": ("n m degree coeffs", None, _THETA),
    "CovectorSlot": ("sig coeffs", None,
                     f"CovectorSlot(sig={_SIG}, coeffs=(Fraction(1, 3),))"),
    "ModelVector": ("sig x theta", None,
                    f"ModelVector(sig={_SIG}, x=(Fraction(1, 1),), theta={_THETA})"),
    "IntegralPlaneModel": ("sig frame", None,
                           f"IntegralPlaneModel(sig={_SIG}, frame={_X})"),
    "ChiSpec": ("n scale y_coeffs", None, "ChiSpec(n=1, scale=2.0, y_coeffs=(1.0,))"),
    "SampledImmersion": ("param_dim ambient_dim topology params points frames "
                         "grid_shape", None,
                         "SampledImmersion(param_dim=1, ambient_dim=2, "
                         "topology='line', params=array([[0.],\n       [1.]]), "
                         "points=array([[0., 0.],\n       [1., 1.]]), frames=None, "
                         "grid_shape=None)"),
}
_MUTABLE = {"SampledImmersion"}


class _Other:
    """Equal to nothing else; numpy defers to it, so an array compares
    False with it instead of elementwise."""

    __array_ufunc__ = None


def _values(obj) -> list:
    return [getattr(obj, f) for f in obj._fields]


def _same(a, b) -> bool:
    """Equal classes and fields; arrays, which ``==`` cannot reduce to one
    truth value, by their entries."""
    return type(a) is type(b) and all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v
        for u, v in zip(_values(a), _values(b)))


def test_contract_covers_every_value_class():
    assert set(_instances()) == set(_CONTRACT)


@pytest.mark.parametrize("name", _CONTRACT)
def test_equality_and_hash_read_the_compared_fields(name):
    obj = _instances()[name]
    fields, compared, _ = _CONTRACT[name]
    compared = (compared or fields).split()
    assert obj._fields == tuple(fields.split())
    assert obj == _trusted(type(obj), *_values(obj))
    for k, field in enumerate(obj._fields):
        values = _values(obj)
        values[k] = _Other()
        assert (obj == _trusted(type(obj), *values)) is (field not in compared)
    if name in _MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(obj) == hash(tuple(getattr(obj, f) for f in compared))


def test_matrix_tol_is_not_part_of_the_value():
    m = Matrix.exact([[1, 2]])
    loose = Matrix(m.rows, m.cols, m.num, m.den, m.mode, 0.5)
    assert m == loose and hash(m) == hash(loose) and repr(m) != repr(loose)


def test_subspace_and_lagrangian_frame_with_equal_fields_differ():
    sp = SymplecticSpace.standard(1)
    f = Matrix.exact([[1], [2]])
    sub, lag = Subspace(sp, f), LagrangianFrame(sp, f)
    assert _values(sub) == _values(lag)
    assert sub != lag and lag != sub and sub == Subspace(sp, f)


@pytest.mark.parametrize("name", _CONTRACT)
def test_repr_lists_every_field(name):
    assert repr(_instances()[name]) == _CONTRACT[name][2]


@pytest.mark.parametrize("name", sorted(set(_CONTRACT) - _MUTABLE))
def test_fields_cannot_be_assigned_or_deleted(name):
    obj = _instances()[name]
    before = repr(obj)
    for attr in (*obj._fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(obj, attr, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
            delattr(obj, attr)
    assert repr(obj) == before


def test_sampled_immersion_stays_mutable():
    s = _instances()["SampledImmersion"]
    s.topology = "loop"
    del s.grid_shape
    assert s.topology == "loop" and not hasattr(s, "grid_shape")


@pytest.mark.parametrize("name", _CONTRACT)
def test_copies_and_pickles_equal_the_original_without_rerunning_checks(
        name, monkeypatch):
    obj = _instances()[name]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a copy ran the constructor or the checks")

    cls = type(obj)
    monkeypatch.setattr(cls, "__init__", refuse)
    if hasattr(cls, "__post_init__"):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj))):
        assert twin is not obj and _same(twin, obj) and twin == obj
        if name not in _MUTABLE:
            assert hash(twin) == hash(obj)


def test_sampled_immersions_compare_arrays_by_entries():
    s = _instances()["SampledImmersion"]
    params, points = [[0.0], [1.0]], [[0.0, 0.0], [1.0, 1.0]]
    moved = SampledImmersion(1, 2, "line", params, [[0.0, 0.0], [1.0, 2.0]])
    framed = SampledImmersion(1, 2, "line", params, points,
                              frames=[[[1.0], [1.0]]] * 2)
    assert s == copy.deepcopy(s) and not s != copy.deepcopy(s)
    assert s != moved and not s == moved
    assert s != framed and framed != s and framed == copy.deepcopy(framed)
    tilted = copy.deepcopy(framed)
    tilted.frames[1, 0, 0] = 2.0
    assert framed != tilted
