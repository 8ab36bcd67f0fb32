"""The modular group algebra: radical filtration, sections, kernel sizes."""

from modiso import build, fingerprint, make_field
from modiso import modalg
from modiso.groups import jennings_series
from modiso.invariants import predicted_jennings_dims

F2 = make_field(2, 1)
G = build("D8")

# the radical powers of FG come from a Jennings basis g_i of G: the monomials
# ∏(g_i - 1)^(a_i) of weight >= m span Δ^m, over every field of characteristic p
powers = modalg.augmentation_powers(G, F2)
print("radical power dimensions:", [P.dim for P in powers])
print("section dims:", modalg.jennings_dims(G, F2),
      " predicted from the group side:", predicted_jennings_dims(G))

# Jennings' recursion D_n = [D_(n-1), G]·℧_1(D_⌈n/p⌉) gives the dimension
# subgroups D_n = G ∩ (1 + Δ^n); their ranks fix the Jennings prediction above
D = jennings_series(G)
print("dimension subgroup orders:", [S.order for S in D])

# the radical section between the first and third powers, as a
# structure-constant algebra; its powers are images of radical powers,
# (Δ/Δ^3)^m = (Δ^m + Δ^3)/Δ^3, so its degree and square are read off them
S = modalg.radical_section(G, F2, 1, 3)
print("\nsection dim", S.dim, " nilpotency degree", S.nilpotency_degree(),
      " square dim", S.power_subspace().dim)
kill, survive = modalg.kernel_size_power_map(S, 1)
print("squares vanish for", kill, "of", kill + survive, "elements")

# two more algebra dimensions the fingerprint reads off the group side:
# |G:G'| + d(G') and dim Δ^(n+1) + d_n (the algebra-side constructions are
# the test oracles in tests/oracles.py)
fp = fingerprint(G, F2)
print("\nsmall group ring dimension:", fp.small_group_ring_dim)
print("Zassenhaus ideal dims Z_1, Z_2, ... while D_n != 1:", fp.zassenhaus_dims)
