"""Characteristic series, conjugacy data, and the Jennings series."""

from collections import Counter

from modiso import build
from modiso.groups import (
    abelian_type,
    center,
    char_series,
    conjugacy_classes,
    exponent,
    is_metacyclic,
    jennings_series,
    maximal_elem_abelian_classes,
    min_generators,
)

G = build("T:1,4")  # order 81, maximal class
cs = char_series(G)
print("order", G.n, " nilpotency class", cs.nilpotency_class,
      " |Z| =", cs.center.order, " |G'| =", cs.derived.order)
print("abelianization:", abelian_type(G.full_subgroup(), cs.derived))
print("class profile (length -> count):",
      dict(Counter(c.length for c in conjugacy_classes(G))))

D = jennings_series(G)
print("dimension subgroup orders:", [S.order for S in D])
print("minimal generators:", min_generators(G), " exponent:", exponent(G))

# the order-8 pair that motivates everything else
for spec in ("D8", "Q8"):
    H = build(spec)
    print(f"\n{spec}: maximal elementary abelian classes by rank:",
          maximal_elem_abelian_classes(H))
    ok, witness = is_metacyclic(H)
    print(f"{spec}: metacyclic?", ok,
          "(cyclic normal subgroup of order %d)" % witness.order if ok else "")
print("\nboth have center of type", abelian_type(center(build("D8"))))
