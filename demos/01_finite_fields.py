"""Exact arithmetic in small finite fields and echelon-form subspaces."""

import numpy as np

from modiso import make_field
from modiso.gfq import EchelonBuilder

# GF(4) with the standard modulus x^2 + x + 1. Elements are integer codes
# whose base-2 digits are coordinates in 1, w; w itself is the code p = 2,
# and arithmetic reads the code tables ADD, MUL and INV
F4 = make_field(2, 2)
w = F4.p
print("field:", F4, "modulus coefficients (ascending):", F4.modulus)
w2 = int(F4.MUL[w, w])
print("w * w =", w2, "= w + 1 =", int(F4.ADD[w, 1]),
      "   w^2 + w + 1 =", int(F4.ADD[F4.ADD[w2, w], 1]))
print("inverse of w:", int(F4.INV[w]), "  check:", int(F4.MUL[w, F4.INV[w]]))
print("multiplication table of GF(4):\n", F4.MUL)

# subspaces are reduced-row-echelon bases, built by inserting blocks of rows
# into an EchelonBuilder; Subspace.builder extends one, so adding another's
# rows gives the sum
F3 = make_field(3, 1)


def span(rows):
    b = EchelonBuilder(F3, 3)
    b.add_block(np.array(rows, dtype=np.uint8))
    return b.freeze()


P1 = span([(1, 0, 0), (0, 1, 0)])
L = span([(0, 1, 1)])
b = P1.builder()
b.add_block(L.rows)
total = b.freeze()
print("\na plane and a line off it in GF(3)^3 sum to dimension", total.dim)

# membership is one block test: a row is in the span when it sifts to zero
probes = np.array([(1, 1, 0), (1, 1, 1)], dtype=np.uint8)
print("rows", probes.tolist(), "in the plane?", P1.contains_rows(probes).tolist())
