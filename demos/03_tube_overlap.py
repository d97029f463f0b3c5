"""Walkthrough: how few tubes of a constructed family can share a point.

For each direction v of a family, the level-s tube set is the union of slabs
|v . beta - b/r| <= 2^(-C1 s), minus a tiny ball at the origin.  A family of N
parallel copies lets all N slabs coincide: overlap N.  The constructed family
keeps the worst case near the pairwise minimum (2): every candidate maximum is
certified on the exact pairwise intersection lattices, and the witness point
replays.

The thickness exponent C1 is derived from the rescaling constant A so the
"every zero-index slab passes through the origin" degeneracy stays inside the
excluded ball - the computable face of the requirement that C1 = C1(A) be
sufficiently large.

Run:  python demos/03_tube_overlap.py      (under 1 s)
"""

from primedir import directions, incidence

ds = directions.rescale_to_integers(
    directions.construct_directions(directions.DirectionSpec(N=8, eps=0.5, seed=7))
)
win = incidence.default_window("ktilde")
print(f"N = {len(ds.vectors)}, derived C1 = {incidence.default_c1(ds)}, window [-1,1]^2\n")

for s in (1, 2, 3):
    fams = incidence.families_from_direction_set(ds, s=s)
    rep = incidence.max_overlap_scan(fams, win)
    # the parallel baseline: copies of the first family share every tube
    repb = incidence.max_overlap_scan(fams[:1] * len(fams), win)
    wit = ""
    if rep.witness is not None:
        wit = f" witness ({float(rep.witness[0]):.4f}, {float(rep.witness[1]):.4f})"
        assert incidence.replay_witness(rep, fams) == rep.max_overlap
    print(
        f"s={s}: constructed max overlap {rep.max_overlap}{wit}  "
        f"vs parallel baseline {repb.max_overlap}  "
        f"({rep.candidates_checked} exact candidates, shared_centers={rep.shared_centers})"
    )

