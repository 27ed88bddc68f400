"""symgeo: exact symplectic linear algebra and index calculators.

``import symgeo`` loads no submodule: a public name imports its defining module
on first access (PEP 562).  Only the float paths load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, exports: dict) -> tuple:
    """``__all__``, ``__getattr__`` and ``__dir__`` (PEP 562) of the package
    with globals ``namespace`` and submodules ``exports`` (module -> names);
    a name's first access imports its module and keeps the object."""
    package = namespace["__name__"]
    module_of = {name: mod for mod, names in exports.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in module_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module_of[name]}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted({*namespace, *module_of})

    return list(module_of), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "linalg": "EXACT Matrix Signature inverse kernel_basis rank rref spans_equal "
              "sym_signature",
    "witt": "ideal_power_member_real witt_of_form_complex witt_of_form_real",
    "symplectic": "LagrangianFrame Subspace SymplecticSpace classify_subspace "
                  "det_squared float_lagrangian graph_lagrangian intersect_frames "
                  "lagrangian_from_angles line_lagrangian loop_degree "
                  "random_lagrangian random_symplectic standard_gram",
    "maslov": "LagrangianTuple LerayLift arnold_triple_lines kashiwara_index "
              "kashiwara_index_float kashiwara_signature kashiwara_space "
              "leray_cyclic_sum leray_m tuple_reduce wall_invariant",
    "metaplectic": "Mp1Context Mp1Element mp1_identity mp1_inverse mp1_mul "
                   "mp2_member random_mp1",
    "jets": "JetSignature SymTensor delta_spencer jet_dim lagrangian_pde_dims "
            "legendrian_pde_dims max_isotropic meta_orthogonal metasymplectic_eval "
            "multi_indices singularity_condition spencer_sequence_audit "
            "symbol_layer_dim",
    "scan": "ChiSpec SampledImmersion check_lagrangian check_legendrian "
            "corank_profile immersion_from_csv immersion_from_json loop_maslov "
            "reeb_field",
    "bordism": "g_singular_bordism split_check weak_bordism_group",
    "selftest": "run_selftest",
})
