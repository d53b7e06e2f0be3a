"""Additive codes with a binary block and a quaternary block.

Construction of cyclic codes from generator polynomial data, binary images
under the Gray and Nechaev-Gray maps, linearity analysis of those images,
and brute-force enumeration oracles that cross-check every structural
statement at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DomainError,
    InternalError,
    PreconditionError,
    Z2Z4Error,
)
from .polyring import (
    BezoutPair,
    BinPoly,
    QuatPoly,
    bezout_lift,
    cyclic_reduce,
    ext_gcd2,
    gcd2,
    graeffe_lift,
    lift_to_quat,
    reduce_mod2,
)
from .cyclofield import (
    cyclotomic_cosets,
    divisors_of_xn_minus_1_z2,
    factor_xn_minus_1_z2,
    factor_xn_minus_1_z4,
    tensor_square,
)
from .additive import (
    Code,
    CodeType,
    GeneratorMatrix,
    MixedVector,
    OracleReport,
    StandardForm,
    gray_image_is_linear,
    gray_is_linear_oracle,
    resolve_capacity,
    standard_form,
)
from .cycliccode import (
    CyclicGenerators,
    ResidueWord,
    code_type,
    enumerate_all_cyclic,
    enumerate_code,
    order_two_generators,
    realize,
    three_generator_form,
    violations,
)
from .linimage import (
    BinaryBlockCode,
    DoubleCyclicGenerators,
    LinearityReport,
    double_cyclic_span,
    ext_psi_image,
    family_g_subgroup,
    gray_linear_criterion,
    is_double_cyclic,
    psi_image_generators,
    search_by_type,
    wolfmann_linear,
    z4_gray_linear_oracle,
)
