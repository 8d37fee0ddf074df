"""Chain orders against sympy's Schreier-Sims on the generators' leaf permutations."""

import random

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from megs.chains import quotient
from megs.checks import SUITE_DATA
from megs.datum import DatumError, NumericalDatum, generator_portraits

CASES = [
    (text, level)
    for _, text in SUITE_DATA
    for level in ((2, 3) if NumericalDatum.from_text(text).p == 3 else (2,))
]


def _groups(q):
    """sympy's G and its generators, the rooted one first, as permutations of the leaves."""
    gens = [Permutation(g.leaf_permutation().tolist()) for g in generator_portraits(q.datum, q.level).values()]
    return PermutationGroup(gens), gens


def _random_p3_data(count, seed=20260817):
    """`count` distinct valid p = 3 data: up to two vectors of length 2 in each of the three families."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        fams = tuple(
            tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(rng.choice((0, 0, 1, 1, 2))))
            for _ in range(3)
        )
        try:
            datum = NumericalDatum(3, fams)
        except DatumError:
            continue
        if datum not in out:
            out.append(datum)
    return out


@pytest.mark.parametrize("text, level", CASES)
def test_full_and_derived_orders_match_sympy(text, level):
    q = quotient(NumericalDatum.from_text(text), level)
    group, _ = _groups(q)
    assert q.full().order() == group.order()
    assert q.derived().order() == group.derived_subgroup().order()


@pytest.mark.parametrize("datum", _random_p3_data(20), ids=NumericalDatum.canonical_line)
def test_full_and_derived_orders_of_random_data_match_sympy(datum):
    q = quotient(datum, 3)
    group, _ = _groups(q)
    assert q.full().order() == group.order()
    assert q.derived().order() == group.derived_subgroup().order()


GAMMA3_CASES = CASES + [(datum.canonical_line(), 3) for datum in _random_p3_data(20)]


@pytest.mark.parametrize("text, level", GAMMA3_CASES)
def test_chains_seeded_with_pivot_commutators_match_sympy(text, level):
    # K, the normal closure of the directed generators, is St_G(1), the
    # level kernel `kernel:1`. At k = 2, where `commutator_chain` reads a
    # normal generating set of St_G(2) off a greedy search, sympy's K is the
    # group of the pivots of `kernel:2`.
    q = quotient(NumericalDatum.from_text(text), level)
    group, gens = _groups(q)
    k = group.normal_closure(PermutationGroup(gens[1:]))
    k_derived = k.derived_subgroup()
    assert q.kernel(1).order() == k.order()
    assert q.chain("kernel-derived:1").order() == k_derived.order()
    assert q.chain("second-derived").order() == group.derived_subgroup().derived_subgroup().order()
    assert q.chain("kernel-gamma3:1").order() == group.commutator(k_derived, k).order()
    identity = Permutation(list(range(group.degree)))
    k2 = PermutationGroup([identity] + [Permutation(g.tolist()) for g in q.kernel(2).perms()])
    k2_derived = k2.derived_subgroup()
    assert q.chain("kernel-derived:2").order() == k2_derived.order()
    assert q.chain("kernel-gamma3:2").order() == group.commutator(k2_derived, k2).order()


@pytest.mark.parametrize("text", [text for text, level in CASES if level == 3])
def test_kernel_chains_at_level_two_match_sympy_at_depth_4(text):
    # Below depth 4, St_G(2) lies in the abelian St_G(n-1), so the k = 2
    # chains above are trivial; at depth 4 they are not, and the greedy
    # normal generators of St_G(2) decide them.
    q = quotient(NumericalDatum.from_text(text), 4)
    group, _ = _groups(q)
    k2 = PermutationGroup([Permutation(list(range(group.degree)))] + [Permutation(g.tolist()) for g in q.kernel(2).perms()])
    k2_derived = k2.derived_subgroup()
    assert q.chain("kernel-derived:2").order() == k2_derived.order() > 1
    assert q.chain("kernel-gamma3:2").order() == group.commutator(k2_derived, k2).order()


@pytest.mark.parametrize("text, level", GAMMA3_CASES)
def test_gamma3_orders_match_sympy(text, level):
    # gamma3 is [G', G], the third term of the lower central series.
    q = quotient(NumericalDatum.from_text(text), level)
    group, _ = _groups(q)
    assert q.gamma3().order() == group.commutator(group.derived_subgroup(), group).order()
