"""Exact-arithmetic model of the automorphism 2-group of the T-duality 2-group.

Subpackages:
  intlinalg   exact integer/rational linear algebra and U(1) phases
  groups      the split pseudo-orthogonal group O+-(n,n,Z)
  twogroup    objects, morphisms, the canonical section and multiplicators
  kinvariant  the classifying 3-cocycle, its 2-torsion witness, double cover
  crossedmod  the T-duality crossed module and axiom checkers
  tdcorr      T-duality local cocycle data and the action on it
  cli         command-line verification front end
"""

from .intlinalg import (
    IntMat,
    Phase,
    RatVec,
    diag_vec,
    phase_bilinear,
    strict_lower_split,
    unimodular_inverse,
)
from .groups import (
    PseudoOrthogonal,
    check_membership,
    embed_gl,
    embed_so,
    enumerate_n1,
    flip_element,
    minus_identity,
    perm_v,
    random_word,
    rotation_n1,
    standard_generators,
)
from .twogroup import (
    Mor,
    Obj,
    b_matrix,
    beta_multiplicator,
    eval_mor,
    mor_hcompose,
    mor_vcompose,
    obj_inverse,
    obj_product,
    obj_unit,
    section,
)
from .kinvariant import (
    DoubleCoverElement,
    check_cocycle_identity,
    check_two_torsion,
    check_vanishing_on_subgroup,
    double_cover_mul,
    gamma,
    k_cocycle,
    k_eval,
    twisted_action,
)

__version__ = "0.1.0"
