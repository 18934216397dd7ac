"""The catalog of proper holomorphic polynomial maps.

Evaluates the classic examples, shows that each sends the source boundary
into the target boundary, and inspects the one-parameter family f_t whose
ends are (embeddings of) two genuinely different quadratic maps.
"""

import numpy as np

from bsdkit import (
    catalog,
    classify_point,
    coeff_distance,
    eval_map,
    generic_norm,
    homogeneous_parts,
    pad_map,
    point,
    sample_point,
)

# The ball Whitney map doubles the dimension minus one: B^2 -> B^3.
whitney = catalog("whitney-ball", n=2)
p = point(whitney.source, [[0.3, 0.4]])
print("whitney-ball(2) at (0.3, 0.4):", np.round(eval_map(whitney, p).value[0].real, 4))

# Properness in action: boundary goes to boundary.
for map_id, params in [("gen-whitney", {"r": 2, "s": 2}), ("h_t", {"t": 0.5})]:
    f = catalog(map_id, **params)
    worst = 0.0
    for k in range(50):
        z = sample_point(f.source, "boundary", [10, k])
        image = eval_map(f, z)
        assert classify_point(image, 1e-7).region == "boundary"
        worst = max(worst, abs(generic_norm(image)))
    print(f"{map_id}{tuple(params.values())}: max |target norm| over 50 boundary points = {worst:.2e}")

# f_t interpolates between two quadratic maps into the 4x4 domain.
f0 = catalog("f_t", t=0.0)
print("\nf_t(0) equals the padded symmetric-square-style map:",
      coeff_distance(f0, pad_map(catalog("g-sec4"), f0.target)) == 0.0)

f_half = catalog("f_t", t=0.5)
parts = homogeneous_parts(f_half)
print("f_t(0.5) homogeneous degrees:", sorted(parts))
print("degree-1 slots:", sorted(parts[1].entries))

# Coefficients move continuously in t.
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    f = catalog("f_t", t=t)
    top_right = f.entries.get((0, 3), {})
    c = next(iter(top_right.values())) if top_right else 0.0
    print(f"  t={t:4.2f}: linear corner coefficient = {abs(c):.4f} (sqrt(t) = {np.sqrt(t):.4f})")
