"""A tour of the four classical bounded symmetric domains.

Samples points, classifies them, and evaluates generic norms — the defining
polynomial that is 1 at the origin and vanishes exactly on the boundary.
"""

from bsdkit import classify_point, generic_norm, origin, parse_spec, point, sample_point

for text in ("I:2,3", "II:3", "III:2", "IV:3"):
    spec = parse_spec(text)
    print(f"\n=== domain {spec} (points are {spec.shape[0]}x{spec.shape[1]} matrices) ===")

    center = origin(spec)
    print(f"  origin: region={classify_point(center).region}, norm={generic_norm(center):.3f}")

    interior = sample_point(spec, "interior", seed=7)
    cls = classify_point(interior)
    print(f"  interior sample: margin={cls.margin:.4f}, norm={generic_norm(interior):.4f}")

    boundary = sample_point(spec, "boundary", seed=8)
    cls = classify_point(boundary)
    print(f"  boundary sample: margin={cls.margin:+.2e}, norm={generic_norm(boundary):+.2e}")

# Kind IV needs both defining inequalities: on the real axis the quartic norm
# (1 - x^2)^2 stays positive past x = 1, but |Z|^2 < 1 fails there.
spec = parse_spec("IV:2")
for x in (0.5, 1.0, 1.2):
    p = point(spec, [[x, 0.0]])
    print(f"\nIV:2 at Z=({x}, 0): region={classify_point(p).region}, "
          f"norm={generic_norm(p):+.4f}")

# Shrinking any boundary point of the matrix kinds moves it inside.
spec = parse_spec("III:3")
b = sample_point(spec, "boundary", seed=9)
shrunk = point(spec, 0.9 * b.value)
print(f"\nIII:3 boundary point scaled by 0.9: region={classify_point(shrunk).region}")
