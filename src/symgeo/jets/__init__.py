"""Jet spaces.  ``import symgeo.jets`` loads no submodule: a public name
imports its defining module on first access (PEP 562)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "symtensor": "JetSignature SymTensor delta_spencer jet_dim lambda_dim "
                 "model_dim multi_indices spencer_sequence_audit symbol_layer_dim",
    "metasymplectic": "CovectorSlot IntegralPlaneModel ModelVector lambda_basis "
                      "max_isotropic meta_orthogonal meta_orthogonal_frame "
                      "metasymplectic_eval singularity_condition span_matrix "
                      "vectors_from_matrix",
    "pde_audit": "lagrangian_pde_dims legendrian_pde_dims",
})
