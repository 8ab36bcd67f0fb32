"""Group presentations: the word grammar and coset enumeration."""

from modiso import Presentation, parse_word, print_word, todd_coxeter

gens = ("a", "b", "c")
w = parse_word("[b,a]*c^-1", gens)
print("parsed [b,a]*c^-1 ->", w, "->", print_word(w, gens))
print("(a*b)^-2 ->", print_word(parse_word("(a*b)^-2", gens), gens))

# the dihedral group of order 8 from its standard presentation
P = Presentation.parse(("r", "s"), ("r^4", "s^2", "(s*r)^2"))
G = todd_coxeter(P)
print("\n<r,s | r^4, s^2, (sr)^2> has order", G.n)
print("element words:", [G.label(i) for i in range(G.n)])
print("orders:", G.element_orders().tolist())

# a 3-group of maximal class, straight from the family constructor
from modiso import build

T = build("T:1,4")
print("\nT:1,4 has order", T.n, "on generators", T.presentation.generators)
print("first ten element words:", [T.label(i) for i in range(10)])
