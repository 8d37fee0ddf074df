import random
import time

import pytest

from megs import words
from megs.datum import NumericalDatum, generator_portrait, generator_portraits
from megs.portraits import Portrait, leaf_count
from megs.words import (
    BranchElement,
    ExceedsCap,
    GroupWord,
    GuardExceeded,
    WordError,
    abelianization,
    commutator_word,
    dependency,
    evaluate,
    evaluate_branch,
    first_level_sections,
    is_trivial,
    order,
    parse_word,
    word_to_text,
)

GS = NumericalDatum.from_text("p = 3; E1 = (1, 2)")
PAIR = NumericalDatum.from_text("p = 3; E1 = (1, 2); E2 = (2, 1)")
CONST = NumericalDatum.from_text("p = 3; E1 = (1, 1); E2 = (1, 1)")


def random_word(rng, datum, syllables):
    w = GroupWord.identity(datum.p)
    for _ in range(syllables):
        if rng.random() < 0.4:
            w = w * GroupWord.rooted(datum.p, rng.randint(1, datum.p - 1))
        else:
            j = rng.choice(datum.nonempty_families)
            i = rng.randint(1, len(datum.family(j)))
            w = w * GroupWord.generator(datum, j, i, rng.randint(1, datum.p - 1))
    return w


def test_parse_basic_forms():
    w = parse_word("a b[1,1]^2 a^-1", GS)
    assert w.a_exponent == 0
    assert word_to_text(w, GS) == "a b[1]^2 a^2"
    assert parse_word("b[1]", GS) == parse_word("b[1,1]", GS)
    assert parse_word("()", GS) == GroupWord.identity(3)
    assert parse_word("", GS) == GroupWord.identity(3)


def test_parse_errors():
    with pytest.raises(WordError):
        parse_word("c", GS)
    with pytest.raises(WordError):
        parse_word("b[2,1]", GS)
    with pytest.raises(WordError):
        parse_word("b[1,2]", GS)
    with pytest.raises(WordError):
        parse_word("a^", GS)


def test_text_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        w = random_word(rng, PAIR, rng.randint(1, 6))
        assert parse_word(word_to_text(w, PAIR), PAIR) == w


def test_evaluate_is_a_homomorphism():
    rng = random.Random(4)
    for _ in range(30):
        w1 = random_word(rng, PAIR, rng.randint(1, 5))
        w2 = random_word(rng, PAIR, rng.randint(1, 5))
        assert evaluate(w1 * w2, PAIR, 3) == evaluate(w1, PAIR, 3) * evaluate(w2, PAIR, 3)
        assert evaluate(~w1, PAIR, 3) == ~evaluate(w1, PAIR, 3)


def test_generator_images():
    a = evaluate(parse_word("a", GS), GS, 2)
    assert a == Portrait.rooted(3, 2, 1)
    b = evaluate(parse_word("b[1,1]", GS), GS, 2)
    assert b.fixes((1,))
    assert b.section((1,)) == Portrait.rooted(3, 1, 1)


def test_abelianization_classes():
    assert abelianization(parse_word("a", GS), GS) == (1, 0)
    assert abelianization(parse_word("b[1,1]^2", GS), GS) == (0, 2)
    assert abelianization(parse_word("a b[1] a^-1 b[1]^-1", GS), GS) == (0, 0)
    w = parse_word("a^2 b[1] b[2]^2", PAIR)
    assert abelianization(w, PAIR) == (2, 1, 2)


def test_commutator_word_matches_portraits():
    x = parse_word("a b[1]", PAIR)
    y = parse_word("b[2]", PAIR)
    lhs = evaluate(commutator_word(x, y), PAIR, 3)
    from megs.portraits import commutator

    assert lhs == commutator(evaluate(x, PAIR, 3), evaluate(y, PAIR, 3))


def test_first_level_sections_match_portraits():
    rng = random.Random(5)
    tried = 0
    while tried < 20:
        w = random_word(rng, PAIR, rng.randint(2, 6))
        if w.a_exponent != 0:
            continue
        tried += 1
        sections = first_level_sections(w, PAIR)
        img = evaluate(w, PAIR, 3)
        for x in range(1, 4):
            assert img.section((x,)) == evaluate(sections[x - 1], PAIR, 2)


def test_first_level_sections_requires_stabilizing_word():
    with pytest.raises(WordError):
        first_level_sections(parse_word("a", GS), GS)


def test_order_of_generators():
    assert order(parse_word("a", GS), GS) == 3
    assert order(parse_word("b[1,1]", GS), GS) == 3
    assert order(parse_word("()", GS), GS) == 1


def test_order_spec_example():
    assert order(parse_word("a b[1,1]", GS), GS, cap=64) == 9


def test_order_matches_stabilized_portrait_order():
    rng = random.Random(6)
    for datum in (GS, PAIR):
        for _ in range(25):
            w = random_word(rng, datum, rng.randint(1, 6))
            n = order(w, datum, cap=3**8)
            assert is_trivial(w**n, datum)
            if n > 1:
                assert not is_trivial(w ** (n // 3), datum)
            for depth in range(1, 17):
                got = evaluate(w, datum, depth).order()
                assert n % got == 0
                if got == n:
                    break
            else:
                raise AssertionError("portrait order never stabilized at the claimed value")


def test_order_exceeds_cap_for_constant_pair():
    w = parse_word("a b[1,1]", CONST)
    with pytest.raises(ExceedsCap) as info:
        order(w, CONST, cap=3**6)
    assert info.value.cap == 3**6


def test_order_cap_defaults_to_p_to_the_12th_for_every_p():
    # The library used to stop at 3^12 for every p, while the CLI and the
    # README said p^12.
    p5 = NumericalDatum.from_text("p = 5; E1 = (1, 2, 0, 0)")
    with pytest.raises(ExceedsCap) as info:
        order(parse_word("a b[1]", p5), p5)
    assert info.value.cap == 5**12


def test_is_trivial():
    assert is_trivial(parse_word("b[1]^3", GS), GS)
    assert is_trivial(parse_word("a^3", GS), GS)
    assert is_trivial(parse_word("a b[1] a^-1 a b[1]^-1 a^-1", GS), GS)
    assert not is_trivial(parse_word("a b[1]", GS), GS)
    assert not is_trivial(parse_word("a b[1] a^-1 b[1]^-1", GS), GS)


def test_is_trivial_guards_trip(monkeypatch):
    w = parse_word("[a, b[1]]", GS)
    monkeypatch.setattr(words, "MAX_SECTION_DEPTH", 0)
    with pytest.raises(GuardExceeded, match="depth guard"):
        is_trivial(w, GS)
    monkeypatch.setattr(words, "MAX_SECTION_DEPTH", 30)
    monkeypatch.setattr(words, "MAX_SYLLABLES", 1)
    with pytest.raises(GuardExceeded, match="syllable guard"):
        is_trivial(w, GS)


def test_branch_element_leaf_matches_word():
    w = parse_word("a b[1]", GS)
    assert evaluate_branch(BranchElement.leaf(w), GS, 3) == evaluate(w, GS, 3)


def test_branch_element_node_sections():
    words = [parse_word(t, GS) for t in ("a", "b[1]", "a^2")]
    element = BranchElement.node(3, 0, [BranchElement.leaf(w) for w in words])
    img = evaluate_branch(element, GS, 3)
    assert img.fixes((1,))
    for x in range(1, 4):
        assert img.section((x,)) == evaluate(words[x - 1], GS, 2)


def test_branch_element_rooted_label():
    element = BranchElement.node(
        3, 1, [BranchElement.leaf(GroupWord.identity(3)) for _ in range(3)]
    )
    assert evaluate_branch(element, GS, 2) == Portrait.rooted(3, 2, 1)


def test_branch_element_nested():
    inner = BranchElement.node(
        3, 0, [BranchElement.leaf(parse_word(t, GS)) for t in ("b[1]", "()", "()")]
    )
    outer = BranchElement.node(
        3,
        0,
        [BranchElement.leaf(GroupWord.identity(3)), inner, BranchElement.leaf(GroupWord.identity(3))],
    )
    img = evaluate_branch(outer, GS, 4)
    assert img.section((2,)) == evaluate_branch(inner, GS, 3)
    assert img.section((1,)).is_identity()


def test_leaf_permutations_past_int32_trip_the_guard():
    # Leaf permutations are int32: 3^40 leaves are refused before any array
    # is built, with the error the CLI maps to exit 2.
    w = parse_word("a b[1]", GS)
    nested = BranchElement.node(3, 0, [BranchElement.leaf(w)] * 3)
    for build in (
        lambda: generator_portraits(GS, 40),
        lambda: generator_portrait(GS, 1, 1, 40),
        lambda: evaluate(w, GS, 40),
        lambda: evaluate_branch(nested, GS, 40),
        lambda: Portrait.identity(3, 40),
        lambda: Portrait.rooted(3, 40, 1),
    ):
        with pytest.raises(GuardExceeded, match="int32"):
            build()
    assert leaf_count(2, 30) == 2**30
    with pytest.raises(GuardExceeded):
        leaf_count(2, 31)


def test_powers_by_squaring_match_repeated_products():
    rng = random.Random(5)
    for datum in (GS, PAIR, CONST):
        for _ in range(10):
            w = random_word(rng, datum, rng.randint(1, 6))
            product = GroupWord.identity(datum.p)
            for e in range(13):
                assert w**e == product
                assert w ** (-e) == ~product
                product = product * w


def test_large_powers_finish_or_trip_the_syllable_guard():
    start = time.perf_counter()
    assert parse_word("b[1]^1000000", GS) == parse_word("b[1]", GS)
    with pytest.raises(GuardExceeded, match="syllable guard"):
        parse_word("(a b[1])^1000000000000", GS)
    assert time.perf_counter() - start < 1
    # Just inside the guard the power is still built.
    assert (parse_word("a b[1]", GS) ** words.MAX_SYLLABLES).syllable_length == words.MAX_SYLLABLES


def test_dependency_none_for_independent():
    assert dependency(NumericalDatum.from_text("p = 3; E1 = (1, 2)")) is None
    assert dependency(NumericalDatum.from_text("p = 3; E1 = (1, 2); E2 = (2, 2)")) is None


def test_dependency_certified_for_dependent_pair():
    d = NumericalDatum.from_text("p = 3; E1 = (1, 2); E2 = (1, 2)")
    c, t1 = dependency(d)
    assert word_to_text(c, d) == "b[1]^2"
    # t1's syllables stay as built: a^-1 is not reduced to a^2.
    assert word_to_text(t1, d) == "a^-1 b[2]^2 a"
    # The constructor verifies the depth-2 congruence through `evaluate`;
    # re-check it with products of generator portraits.
    a = Portrait.rooted(3, 2, 1)
    b1, b2 = (generator_portrait(d, j, 1, 2) for j in (1, 2))
    assert b1 ** 2 == ~a * b2 ** 2 * a
