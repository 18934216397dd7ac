"""Automorphism groups in action.

Builds isotropies, transvections, and random boost-times-isotropy elements,
verifies their defining relations, and demonstrates the transformation law
of the polarized generic norm under the group action.
"""

import numpy as np

from bsdkit import (
    act,
    automorphy_factor,
    check_membership,
    isotropy,
    origin,
    parse_spec,
    point,
    polarized_norm,
    product,
    random_automorphism,
    random_isotropy_params,
    sample_point,
    transvection_type1,
)

spec = parse_spec("I:2,2")
print(f"=== automorphisms of {spec} ===")

# Isotropies fix the origin; transvections move it wherever we like.
iso = isotropy(spec, random_isotropy_params(spec, seed=1))
print("isotropy membership residual:", check_membership(iso).max_residual)
print("isotropy fixes origin:", np.linalg.norm(act(iso, origin(spec)).value))

z0 = sample_point(spec, "interior", seed=2)
tv = transvection_type1(z0)
moved = act(tv, origin(spec))
print("transvection sends 0 to target, error:", np.linalg.norm(moved.value - z0.value))

# The action composes in the row convention: act(MN, Z) = act(N, act(M, Z)).
m, n = random_automorphism(spec, 3), random_automorphism(spec, 4)
z = sample_point(spec, "interior", seed=5)
lhs = act(product(m, n), z).value
rhs = act(n, act(m, z)).value
print("composition law error:", np.linalg.norm(lhs - rhs))

# The polarized norm transforms by the automorphy factor:
# S(MZ, MW) = S(Z, W) * F_M(Z, W).
w = sample_point(spec, "interior", seed=6)
factor = automorphy_factor(m, z, w)
lhs = polarized_norm(act(m, z), act(m, w))
rhs = polarized_norm(z, w) * factor
print(f"norm transformation law: |lhs - rhs| = {abs(lhs - rhs):.2e}")

# On the scalar disc the transvection is the familiar hyperbolic matrix.
disc = parse_spec("I:1,1")
half = transvection_type1(point(disc, [[0.5]]))
print("\ndisc transvection for z0 = 0.5 (times sqrt(3)/2):")
print(np.round(half.matrix * np.sqrt(0.75), 6))
