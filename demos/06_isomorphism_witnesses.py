"""Isomorphism search with explicit, independently verified witnesses."""

from modiso import (
    IsoWitness,
    build,
    group_isomorphic,
    make_field,
    nilpotent_algebra_iso,
    verify_witness,
)
from modiso.modalg import radical_section

# the order-243 series pair is isomorphic (odd n): find generator images
G, H = build("T:2,5"), build("T:3,5")
w = group_isomorphic(G, H)
print("order-243 pair:", type(w).__name__)
for name, img in zip(G.presentation.generators, w.images):
    print(f"  {name} -> element {img} = {H.label(img)}")
print("independently verified:", verify_witness(w, G, H))

# the even case is genuinely non-isomorphic: the search exhausts
G6, H6 = build("T:2,6"), build("T:3,6")
print("\norder-729 pair:", group_isomorphic(G6, H6))

# radical sections of the order-8 pair: separated over GF(2), isomorphic
# over GF(4)
F2, F4 = make_field(2, 1), make_field(2, 2)
for F in (F2, F4):
    lam = radical_section(build("D8"), F, 1, 3)
    gam = radical_section(build("Q8"), F, 1, 3)
    r = nilpotent_algebra_iso(lam, gam)
    print(f"\nsections over {F}:", type(r).__name__)
    if isinstance(r, IsoWitness):
        for i, (src, img) in enumerate(zip(r.source_gens, r.images)):
            print(f"  generator {src} -> {img}")
        print("verified:", verify_witness(r, lam, gam))
