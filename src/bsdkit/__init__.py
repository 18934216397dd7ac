"""bsdkit: numerics for the four classical bounded symmetric domains.

Points and membership, automorphism group actions, generic norms and their
polarizations, a catalog of proper holomorphic polynomial map families,
isotropy-invariant coefficient spectra, and a seeded verification harness
for every identity the pieces are supposed to satisfy.
"""

from .autgroups import (
    IV_FACTOR_CANDIDATES,
    AutElement,
    act,
    aut_element,
    aut_from_json,
    aut_to_json,
    automorphy_factor,
    check_membership,
    identity_element,
    isotropy,
    iv_action_denominator,
    product,
    random_automorphism,
    random_isotropy_params,
    transvection_type1,
)
from .domains import (
    Classification,
    DomainSpec,
    Point,
    borel_lift_iv,
    classify_point,
    format_spec,
    generic_norm,
    origin,
    parse_spec,
    point,
    polarized_norm,
    sample_point,
)
from .errors import (
    ActionSingularityError,
    BsdkitError,
    ConfigurationError,
    DomainError,
    NumericError,
    ParameterError,
    SamplingError,
    ShapeError,
)
from .invariants import (
    INDISTINGUISHABLE,
    INEQUIVALENT,
    DistinguishResult,
    coefficient_operator,
    distinguish,
    invariant_spectrum,
)
from .linalg import (
    det,
    pfaffian,
    random_unitary,
)
from .polymaps import (
    CATALOG_IDS,
    PolyMap,
    catalog,
    coeff_distance,
    conjugate,
    embed_map,
    eval_map,
    homogeneous_parts,
    pad_map,
    polymap,
    polymap_from_json,
    polymap_to_json,
    select_map,
)
from .verify import (
    VerificationReport,
    check_F_U_lemma,
    check_coefficient_lemma,
    check_composition_rule,
    check_factorization,
    check_family_continuity,
    check_isotropy_consistency,
    check_properness,
    run_all,
    summarize,
)

__version__ = "0.1.0"
