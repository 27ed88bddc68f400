"""symgeo: exact symplectic linear algebra and index calculators."""

from .linalg import (APPROX, EXACT, Matrix, ModeMixError, Signature,
                     SymmetricForm, inverse, kernel_basis, rank, rref,
                     span_contains, spans_equal, sym_signature)
from .witt import (WittComplex, WittReal, ideal_power_member_real,
                   witt_of_form_complex, witt_of_form_real, witt_of_signature)
from .symplectic import (LagrangianFrame, Subspace, SymplecticSpace,
                         classify_subspace, det_squared, eigen_angles,
                         graph_lagrangian, intersect_frames,
                         lagrangian_from_angles, line_lagrangian, loop_degree,
                         random_lagrangian, random_symplectic, standard_gram,
                         symplectic_complement)
from .maslov import (LagrangianTuple, LerayLift, QuadraticSpace,
                     arnold_index_pair, arnold_index_triple,
                     arnold_triple_lines, kashiwara_index,
                     kashiwara_space, leray_cyclic_sum, leray_m, tuple_reduce,
                     wall_invariant)
from .metaplectic import (Mp1Context, Mp1Element, mp1_central_check,
                          mp1_identity, mp1_inverse, mp1_mul, mp2_member,
                          random_mp1)
from .jets import (JetSignature, SymTensor, delta_spencer, jet_dim,
                   lagrangian_pde_dims, legendrian_pde_dims, max_isotropic,
                   meta_orthogonal, metasymplectic_eval, multi_indices,
                   singularity_condition, spencer_sequence_audit,
                   symbol_layer_dim)
from .scan import (ChiSpec, SampledImmersion, check_lagrangian,
                   check_legendrian, corank_profile, immersion_from_csv,
                   immersion_from_json, loop_maslov, reeb_field)
from .bordism import (BordismGroup, g_singular_bordism, split_check,
                      weak_bordism_group)
from .selftest import run_selftest

__version__ = "0.1.0"
