"""Walkthrough: constructing a prime-structured direction family exactly.

Each direction is (m, n) Q (p_1 ... p_kappa) / R with slope in [1/4, 1/2],
kappa distinct window primes, and a dyadic normalizer Q placing the length in
[1/10, 10].  Rescaling by one integer clears every denominator at once.  All
arithmetic is exact; the serialized family is byte-stable under its seed.

Run:  python demos/02_direction_family.py      (under 1 s)
"""

from primedir import directions

spec = directions.DirectionSpec(N=8, eps=0.5, seed=7)
ds = directions.construct_directions(spec)
ds = directions.rescale_to_integers(ds)

print(f"family of N={spec.N}: kappa={ds.kappa}, window={list(ds.prime_window)}")
print(f"scale denominator R = {ds.scale_denominator}")
print(f"rescaling constant A~ has {len(str(ds.A_tilde))} digits\n")

for i, rec in enumerate(ds.vectors):
    primes = [ds.prime_window[j] for j in rec.prime_subset]
    x, y = rec.v  # exact Fractions
    print(
        f"  v{i}: (m,n)=({rec.m},{rec.n})  Q=2^{rec.q_exponent}  primes={primes}  "
        f"|v|~{float(x * x + y * y) ** 0.5:.4f}"
    )

angle = directions.min_angle(ds)
print(f"\nsmallest angle: pair (v{angle.i}, v{angle.j}), sin = {angle.sin:.3e}")
print(f"guaranteed floor 1/(100 N^4) = {1 / (100 * spec.N**4):.3e}")

blob = directions.serialize(ds)
again = directions.rescale_to_integers(directions.construct_directions(spec))
print(f"\nserialized {len(blob)} bytes; rebuild with same seed is byte-identical:",
      directions.serialize(again) == blob)

print("\ninteger vectors (first two):")
for ix, iy in ds.integer_vectors[:2]:
    print(f"  ({ix},\n   {iy})")
