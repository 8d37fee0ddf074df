"""Chain orders against sympy's Schreier-Sims on the generators' leaf permutations."""

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from megs.chains import quotient
from megs.checks import SUITE_DATA
from megs.datum import NumericalDatum

CASES = [
    (text, level)
    for _, text in SUITE_DATA
    for level in ((2, 3) if NumericalDatum.from_text(text).p == 3 else (2,))
]


@pytest.mark.parametrize("text, level", CASES)
def test_full_and_derived_orders_match_sympy(text, level):
    q = quotient(NumericalDatum.from_text(text), level)
    group = PermutationGroup([Permutation(g.leaf_permutation().tolist()) for g in q.gen_list])
    assert q.full().order() == group.order()
    assert q.derived().order() == group.derived_subgroup().order()
