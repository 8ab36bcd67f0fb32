import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modiso.errors import CapExceeded, SpecParseError
from modiso.families import build
from modiso.groups import (
    abelian_type,
    center,
    char_series,
    exponent,
    is_metacyclic,
)


def test_max_class_3_orders_and_class():
    for i, n in [(1, 4), (2, 4), (3, 4), (4, 4), (5, 5), (6, 5), (7, 5)]:
        G = build(f"T:{i},{n}")
        assert G.n == 3**n
        assert char_series(G).nilpotency_class == n - 1
        assert center(G).order == 3


def test_max_class_3_parameter_guards():
    with pytest.raises(ValueError):
        build("T:5,4")
    with pytest.raises(ValueError):
        build("T:1,3")
    with pytest.raises(ValueError):
        build("T:8,5")
    with pytest.raises(ValueError):
        build("T:1,8")  # 3^8 over the default order cap


def test_broche_case2_small():
    G = build("B2G:1,2")
    assert G.n == 16
    assert char_series(G).nilpotency_class == 2


def test_broche_case1_center_equals_derived():
    for m in (1, 2):
        for variant in ("G", "H"):
            G = build(f"B1{variant}:{m}")
            assert G.n == 2**(3 * m)
            cs = char_series(G)
            assert center(G) == cs.derived
            assert abelian_type(center(G)) == (2**m,)
            assert abelian_type(G.full_subgroup(), center(G)) == (2**m, 2**m)


def test_broche_parameter_guards():
    with pytest.raises(ValueError):
        build("B2G:2,2")  # needs n > m
    with pytest.raises(ValueError):
        build("B1X:1")


def test_metacyclic_semidirect_example():
    G = build("Meta:2,3,1,0,5")
    assert G.n == 16
    ok, _ = is_metacyclic(G)
    assert ok


def test_metacyclic_inconsistent_parameters():
    # r = 3 is not a valid action on C_16 of order dividing 2 (3^2 = 9 != 1 mod 16),
    # so the presentation collapses and the order assertion fires
    with pytest.raises(ValueError):
        build("Meta:2,4,1,0,3")
    with pytest.raises(ValueError):
        build("Meta:2,3,1,4,5")
    with pytest.raises(ValueError):
        build("Meta:2,3,1,0,2")


def test_mini_language_basics():
    assert build("D8").n == 8
    assert build("Q8").n == 8
    assert build("C:8").n == 8
    assert build("Ab:4,2").n == 8
    assert build("EA:3,2").n == 9
    assert build("Meta:2,3,1,0,5").n == 16
    assert build("T:4,5").n == 243
    assert build("B1G:1").n == 8
    assert build("B2H:1,2").n == 16
    assert build("X:C:2*D8").n == 16
    assert build("X:C:2*C:2*C:2").n == 8


def test_mini_language_presentation_file(tmp_path):
    path = tmp_path / "d8.json"
    path.write_text(json.dumps(
        {"generators": ["r", "s"], "relators": ["r^4", "s^2", "(s*r)^2"]}),
        encoding="utf-8")
    assert build(f"Pres:{path}").n == 8


def test_mini_language_errors():
    for bad in ["D9", "T:4", "Meta:2,3", "nope", "X:D8", "Ab:"]:
        with pytest.raises(SpecParseError):
            build(bad)
    with pytest.raises(ValueError):
        build("C:4096")  # order cap


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="DQCAbEMetaTBXPrs:,*128^ ", max_size=16))
def test_mini_language_total_on_junk(text):
    # arbitrary spec strings either build a group or raise one of the three
    # documented error types
    try:
        G = build(text)
        assert G.n >= 1
    except (SpecParseError, ValueError, CapExceeded, OSError):
        pass


SMALL_INT = st.integers(min_value=-3, max_value=6)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(st.just("EA"), st.tuples(SMALL_INT, SMALL_INT)),
                 st.tuples(st.just("Meta"), st.tuples(*[SMALL_INT] * 5))))
def test_ea_and_meta_need_a_prime(head_params):
    # a p-group of the declared order for a prime p, or a documented error
    head, params = head_params
    try:
        G = build(f"{head}:{','.join(map(str, params))}")
    except (SpecParseError, ValueError, CapExceeded):
        return
    p, exp = params[0], params[1] if head == "EA" else params[1] + params[2]
    assert G.prime_power() == (p, exp)


def test_abelian_specs_within_the_cap_build():
    # relator order: with the commutators scanned last these needed 163k-532k
    # cosets, over the default coset cap
    for spec, order in [("Ab:243,9", 2187), ("Ab:81,27", 2187), ("Ab:729,3", 2187),
                        ("Ab:243,3,3", 2187), ("Ab:256,8", 2048), ("X:C:729*C:3", 2187)]:
        assert build(spec).n == order, spec


def test_paper_pairs():
    # the comparison pairs, in (G, H) order
    for g, h, order in [("D8", "Q8", 8), ("B2G:1,2", "B2H:1,2", 16),
                        ("B1G:1", "B1H:1", 8), ("T:2,4", "T:3,4", 81)]:
        G, H = build(g), build(h)
        assert G.n == H.n == order
    G, H = build("B2G:1,2"), build("B2H:1,2")
    assert char_series(G).nilpotency_class == char_series(H).nilpotency_class == 2


def test_b1_pair_m1_is_q8_and_d8_like():
    G, H = build("B1G:1"), build("B1H:1")
    # G has a unique involution (quaternion); H has several (dihedral)
    from modiso.groups import omega
    assert omega(G, 1).order == 2
    assert omega(H, 1).order == 8
    assert exponent(G) == exponent(H) == 4


def test_direct_product_commutes_across_factors():
    G = build("X:D8*Q8")
    assert G.n == 64
    k = 2  # generators per factor
    for a in G.gens[:k]:
        for b in G.gens[k:]:
            assert G.mul[a, b] == G.mul[b, a]


def test_every_family_order_formula():
    cases = {
        "T:1,4": 81, "T:7,5": 243,
        "B1G:2": 64, "B1H:2": 64,
        "B2G:1,3": 32, "B2H:2,3": 128,
        "Meta:3,2,1,0,4": 27,
        "EA:2,4": 16,
    }
    for spec, order in cases.items():
        assert build(spec).n == order
