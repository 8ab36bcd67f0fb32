import importlib.util
import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modiso.errors import CapExceeded, SpecParseError
from modiso.families import build
from modiso.iso import IsoWitness, group_isomorphic, verify_witness
from modiso.words import (
    EXPONENT_CAP,
    Presentation,
    _table_group,
    parse_word,
    print_word,
    todd_coxeter,
    word_concat,
    word_inverse,
)

from conftest import (CORPUS_MEDIUM, CORPUS_SMALL, adversarial_presentation, build_corpus_group,
                      run_optimized)
from oracles import checked_group, todd_coxeter_rescan

# perfbench's seeded rewrite, read from the checkout (perfbench is not a package)
_spec = importlib.util.spec_from_file_location(
    "workloads", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GENS = ("a", "b", "c")


def letters(text):
    return parse_word(text, GENS)


def test_commutator_expansion():
    # [b,a] -> b^-1 a^-1 b a, so "[b,a]*c^-1" is b^-1 a^-1 b a c^-1
    w = parse_word("[b,a]*c^-1", GENS)
    assert w == (-2, -1, 2, 1, -3)


def test_zero_exponent_is_identity():
    assert parse_word("a^0", GENS) == ()


def test_negative_power_of_product():
    assert parse_word("(a*b)^-2", GENS) == (-2, -1, -2, -1)


def test_nested_commutator():
    w = parse_word("[[b,a],a]", GENS)
    inner = parse_word("[b,a]", GENS)
    expect = word_inverse(inner) + (-1,) + inner + (1,)
    assert w == expect


def test_free_reduction():
    assert parse_word("a*a^-1", GENS) == ()
    assert parse_word("a*b*b^-1*a", GENS) == (1, 1)


def test_parse_errors_report_position():
    with pytest.raises(SpecParseError) as ei:
        parse_word("a*q", GENS)
    assert ei.value.position == 2
    with pytest.raises(SpecParseError):
        parse_word("a*", GENS)
    with pytest.raises(SpecParseError):
        parse_word("(a*b", GENS)
    with pytest.raises(SpecParseError):
        parse_word("a^", GENS)
    with pytest.raises(SpecParseError):
        parse_word(f"a^{1 << 21}", GENS)


def test_power_length_is_capped_by_expanded_length():
    # len(w) * |e| is checked before the power is expanded
    assert len(letters(f"a^{EXPONENT_CAP}")) == EXPONENT_CAP
    assert letters(f"(a*b)^-{EXPONENT_CAP // 2}") == (-2, -1) * (EXPONENT_CAP // 2)
    k = EXPONENT_CAP // 3
    assert letters(f"(a*b*a^-1)^{k}") == (1,) + (2,) * k + (-1,)
    for text in (f"(a*b)^{EXPONENT_CAP // 2 + 1}", f"(a*b)^-{EXPONENT_CAP // 2 + 1}",
                 f"(a^{EXPONENT_CAP})^{EXPONENT_CAP}"):
        with pytest.raises(SpecParseError, match="power too long"):
            letters(text)


def test_exponent_literals_beyond_int_conversion_are_parse_errors():
    # int() refuses more than 4300 digits, leading zeros included, and
    # digits such as '²'
    assert letters("a^" + "0" * 5000 + "3") == (1, 1, 1)
    assert letters("a^-" + "0" * 5000) == ()
    with pytest.raises(SpecParseError, match="exponent overflow"):
        letters("a^" + "1" * 5000)
    with pytest.raises(SpecParseError, match="expected an integer exponent"):
        letters("a^\u00b2")


def test_deep_nesting_is_a_parse_error():
    assert letters("(" * 50 + "a" + ")" * 50) == (1,)
    with pytest.raises(SpecParseError, match="nested too deeply"):
        letters("(" * 5000 + "a" + ")" * 5000)


@settings(max_examples=150)
@given(st.lists(st.integers(min_value=1, max_value=3).flatmap(
    lambda g: st.sampled_from([g, -g])), max_size=12))
def test_print_parse_roundtrip(raw):
    # free-reduce the raw letters first; round trip must be exact on normal forms
    stack = []
    for x in raw:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    w = tuple(stack)
    assert parse_word(print_word(w, GENS), GENS) == w


@settings(max_examples=300)
@given(st.text(alphabet="ab c*^()[]-0123456789,x", max_size=24))
def test_parser_total_on_junk(text):
    # arbitrary input either parses or raises the grammar error, nothing else
    try:
        parse_word(text, GENS)
    except SpecParseError:
        pass


def test_presentation_json_roundtrip(tmp_path):
    P = Presentation.parse(("a", "b"), ("a^4", "b^2", "[b,a]*a^-2"))
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(P.to_json()), encoding="utf-8")
    Q = Presentation.load(path)
    assert Q == P


def test_presentation_load_rejects_bad_files(tmp_path):
    path = tmp_path / "pres.json"
    with pytest.raises(SpecParseError, match="bad presentation file"):
        Presentation.load(path)  # missing
    for text in ('{"generators": ["a"], ', "[" * 5000 + "]" * 5000):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SpecParseError, match="bad presentation file"):
            Presentation.load(path)
    for data in ({"generators": ["a"], "relators": [5]}, {"generators": "ab", "relators": []},
                 {"generators": [["a"]], "relators": []}, {"generators": ["a"]}, ["a"]):
        with pytest.raises(SpecParseError, match="string lists"):
            Presentation.from_json(data)


def test_presentation_validation():
    with pytest.raises(SpecParseError, match="unique"):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError):
        Presentation(("a",), ((2,),))
    # a name the grammar cannot read back as that one generator
    for names in (("",), ("a b",), ("x^2",), ("a", "a*a"), ("a", " a"), ("1a",)):
        with pytest.raises(SpecParseError, match="not an identifier"):
            Presentation(names, ())


IDENTIFIER = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)


def _round_trips(P, data):
    letter = st.integers(1, len(P.generators)).flatmap(lambda g: st.sampled_from([g, -g]))
    w = word_concat(data.draw(st.lists(letter, max_size=12)))
    return parse_word(print_word(w, P.generators), P.generators) == w


@settings(max_examples=150)
@given(st.lists(IDENTIFIER, min_size=1, max_size=4, unique=True), st.data())
def test_identifier_names_round_trip(names, data):
    # identifier names are accepted, and a printed word parses back to itself
    assert _round_trips(Presentation(tuple(names), ()), data)


@settings(max_examples=150)
@given(st.lists(st.text(alphabet="ab_1 ^*()[],x", max_size=4), min_size=1, max_size=3),
       st.data())
def test_presentation_names_round_trip_or_are_rejected(names, data):
    # any other name list is rejected as a parse error or round-trips too
    try:
        P = Presentation(tuple(names), ())
    except SpecParseError:
        return
    assert _round_trips(P, data)


def test_todd_coxeter_dihedral():
    P = Presentation.parse(("r", "s"), ("r^4", "s^2", "(s*r)^2"))
    G = todd_coxeter(P)
    assert G.n == 8
    orders = sorted(G.element_orders().tolist())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_todd_coxeter_relators_hold_and_deterministic():
    P = Presentation.parse(("r", "s"), ("r^4", "s^2", "(s*r)^2"))
    G1 = todd_coxeter(P)
    G2 = todd_coxeter(P)
    assert (G1.mul == G2.mul).all()
    for w in P.relators:
        assert G1.word_image(w, G1.gens) == G1.id


def test_todd_coxeter_infinite_hits_cap():
    P = Presentation.parse(("a",), ())
    with pytest.raises(CapExceeded):
        todd_coxeter(P, coset_cap=10)


def test_todd_coxeter_empty_generators():
    with pytest.raises(ValueError):
        todd_coxeter(Presentation((), ()))


def test_todd_coxeter_quaternion_and_coincidences():
    P = Presentation.parse(("i", "j"), ("i^4", "j^2*i^-2", "j^-1*i*j*i"))
    G = todd_coxeter(P)
    assert G.n == 8
    assert sorted(G.element_orders().tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_todd_coxeter_collapse_to_trivial():
    P = Presentation.parse(("a", "b"), ("a*b^-1", "a^2", "b^3"))
    G = todd_coxeter(P)
    assert G.n == 1


def test_element_words_are_defining_words():
    P = Presentation.parse(("r", "s"), ("r^4", "s^2", "(s*r)^2"))
    G = todd_coxeter(P)
    for g in range(G.n):
        assert G.word_image(G.elem_words[g], G.gens) == g


def test_table_columns_are_regular_actions_of_element_words(corpus_small):
    # column v of the table is u -> u*v; reading v's word letter by letter
    # through the generator columns must give the same permutation
    for spec, G in corpus_small + [("T:2,5", build("T:2,5"))]:
        ar = np.arange(G.n)
        column = {}
        for i, g in enumerate(G.gens):
            column[i + 1], column[-i - 1] = G.mul[:, g], G.mul[:, G.inv[g]]
        for v, word in enumerate(G.elem_words):
            action = ar
            for x in word:
                action = column[x][action]
            assert np.array_equal(G.mul[:, v], action), (spec, v)


# presentations whose cyclic subgroup H = <h> is special: no single-letter
# power relator (H trivial, Q8), h trivial in G (a^7 and a^2*b*a^-1*b^-1
# force a = 1, G = C4), h of order 4 below its relator's E = 12 (D8), and
# groups that are not p-groups
SPECIAL_PRESENTATIONS = {
    "no power relator": (("x", "y"), ("x^2*y^-2", "x^2*(x*y)^-2")),
    "h trivial": (("a", "b"), ("a^7", "b^4", "a^2*b*a^-1*b^-1")),
    "h below E": (("r", "s"), ("r^12", "s^2", "(s*r)^2", "r^8")),
    "S3": (("a", "b"), ("a^3", "b^2", "b^-1*a*b*a")),
    "C3xS3": (("a", "b", "c"), ("a^3", "b^2", "b^-1*a*b*a", "c^3", "[c,a]", "[c,b]")),
}


def _hlt_cases():
    # each case is a thunk, so that a faulty enumeration fails the case that
    # builds it and not the collection
    def corpus(spec, seed=None):
        P = build_corpus_group(spec).presentation
        return P if seed is None else adversarial_presentation(P, random.Random(seed))

    for spec in CORPUS_MEDIUM + ["T:2,6", "T:3,6", "T:2,7", "T:3,7"]:
        yield pytest.param(lambda spec=spec: corpus(spec), id=spec)
        if not spec.startswith("C:"):  # a rewrite needs two generators
            for seed in range(3):
                yield pytest.param(lambda spec=spec, seed=seed: corpus(spec, seed),
                                   id=f"{spec}-rewrite{seed}")
    for spec, doc in workloads.load_json("presentations.json").items():
        for seed in range(1, 6):
            yield pytest.param(lambda doc=doc, seed=seed: Presentation.from_json(
                workloads.rewrite_presentation(doc, random.Random(seed))), id=f"{spec}-bench{seed}")
    for name, spec in SPECIAL_PRESENTATIONS.items():
        yield pytest.param(lambda spec=spec: Presentation.parse(*spec), id=name)
    yield pytest.param(lambda: Presentation.parse(("a",), ("a^729",)), id="C:729")
    yield pytest.param(lambda: build("Ab:27,9").presentation, id="Ab:27,9")


@pytest.mark.parametrize("P", list(_hlt_cases()))
def test_power_relator_marks_match_rescanning_hlt(P):
    # enumerating the cosets of <h>, lifting them and renumbering by the
    # relator walk must give HLT's table on the trivial subgroup: the same
    # elements in the same order, so the same table, generators and words.
    # (The name is kept from the marked-cycle HLT this test first checked,
    # so that each case keeps its id.)
    P = P()
    G, H = todd_coxeter(P), todd_coxeter_rescan(P)
    assert np.array_equal(G.mul, H.mul)
    assert G.gens == H.gens
    assert G.elem_words == H.elem_words


def test_special_presentations_have_their_orders():
    # the cases above are what their names say
    orders = {name: todd_coxeter(Presentation.parse(*spec)).n
              for name, spec in SPECIAL_PRESENTATIONS.items()}
    assert orders == {"no power relator": 8, "h trivial": 4, "h below E": 8, "S3": 6, "C3xS3": 18}


def test_adversarial_rewrite_of_ab_729_3_builds():
    # seed 1 gives the relators x8^3, (x8*w7^-1)^729 and [x8, w7]; HLT on the
    # trivial subgroup defined more than 10^5 cosets for its 2,187 elements
    G = build("Ab:729,3")
    P = adversarial_presentation(G.presentation, random.Random(1))
    H = todd_coxeter(P)
    assert H.n == 2187
    w = group_isomorphic(H, G)
    assert isinstance(w, IsoWitness) and verify_witness(w, H, G)


# -- the regularity proof ---------------------------------------------------------

D8_PRESENTATION = Presentation.parse(("r", "s"), ("r^4", "s^2", "(s*r)^2"))


def _square_action():
    """D8 on the four vertices of a square, as columns r, r^-1, s, s^-1: a
    transitive action in which every relator closes, but a reflection fixes
    vertex 0, so it is not regular."""
    v = np.arange(4)
    r, s = (v + 1) % 4, (-v) % 4
    return np.array([r, (v - 1) % 4, s, s], dtype=np.int32)


def test_regularity_rejects_a_transitive_non_regular_action():
    act = _square_action()
    # every check before the regularity one passes
    for x in range(4):
        assert np.array_equal(act[x ^ 1][act[x]], np.arange(4))
    with pytest.raises(ValueError, match="not regular"):
        _table_group(D8_PRESENTATION, act)


def test_regularity_rejects_columns_that_are_not_mutually_inverse():
    # a^3 closes under the 3-cycle, but its inverse column repeats it
    cycle = np.array([1, 2, 0], dtype=np.int32)
    act = np.array([cycle, cycle], dtype=np.int32)
    with pytest.raises(ValueError, match="mutually inverse"):
        _table_group(Presentation.parse(("a",), ("a^3",)), act)


def test_regularity_is_checked_under_optimize():
    # python -O strips asserts; the checks of a built table must still run
    out = run_optimized(
        "from test_words import D8_PRESENTATION, _square_action\n"
        "from modiso.words import _table_group\n"
        "try:\n"
        "    _table_group(D8_PRESENTATION, _square_action())\n"
        "except ValueError as err:\n"
        "    print('rejected:', err)\n")
    assert out.startswith("rejected:"), out


def test_proven_group_passes_the_table_checks(corpus_small):
    # the group a presentation builds is accepted by every check of the
    # public constructor, and has the same identity, inverses and generators
    for spec, G in corpus_small + [("T:2,5", build("T:2,5"))]:
        H = checked_group(np.array(G.mul), gens=G.gens)
        assert (H.id, H.gens) == (G.id, G.gens), spec
        assert np.array_equal(H.inv, G.inv), spec
