import os
import subprocess
import sys
from pathlib import Path

import pytest

from megs.datum import (
    DatumError,
    NumericalDatum,
    classify,
    exceptional_pair,
    generator_portrait,
    is_constant,
    is_symmetric,
    is_torsion,
)
from megs.portraits import Portrait


def parse(text):
    return NumericalDatum.from_text(text)


def test_parse_and_canonical_line():
    d = parse("p = 3\nE1 = (1, 2)\n")
    assert d.p == 3
    assert d.family(1) == ((1, 2),)
    assert d.canonical_line() == "p = 3; E1 = (1, 2)"


def test_parse_semicolon_form_and_round_trip():
    d = parse("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)")
    assert d.nonempty_families == (1, 2)
    assert parse(d.to_text()) == d
    assert parse(d.canonical_line()) == d


def test_parse_comments_and_blank_lines():
    d = parse("# a datum\np = 3\n\nE1 = (1, 2)  # the vector\n")
    assert d.family(1) == ((1, 2),)


PARSE_ERRORS = [
    ("E1 = (1, 2)", "datum text never defines p"),
    ("p = 4; E1 = (1, 2, 3)", "p must be an odd prime, got 4"),
    ("p = 3; E1 = (1, 2, 1)", "vector 1 of family 1 has length 3, expected 2"),
    ("p = 3; E1 = (0, 0)", "family 1 is linearly dependent"),
    ("p = 3; E4 = (1, 2)", "family index 4 outside 1..3"),
    ("p = 3; E1 = (1, 2); E1 = (2, 1)", "line 3: family 1 defined twice"),
    ("p = 3; E1 = (1, 2), (2, 1)", "family 1 is linearly dependent"),
    ("p = 3", "at least one family must be nonempty"),
    (
        "p = 5; E2 = (1, 0, 0, 0), (2, 0, 0, 0); E1 = (1, 2)",
        "vector 1 of family 1 has length 2, expected 4; family 2 is linearly dependent",
    ),
    (
        "p = 3; E1 = (1, 2), (2, 1), (1, 1)",
        "family 1 has 3 vectors, at most 2 allowed; family 1 is linearly dependent",
    ),
    ("p = 3; E1 = (1, 100000000000000000000)", "vector 1 of family 1 has entries outside 0..2"),
    # p - 1 exceeds every vector's length, so the datum is invalid whatever p
    # is, and p is not tested for primality.
    ("p = 4; E1 = (1, 2)", "vector 1 of family 1 has length 2, expected 3"),
    ("p = 2", "at least one family must be nonempty"),
]


def test_parse_errors():
    for text, message in PARSE_ERRORS:
        with pytest.raises(DatumError) as info:
            parse(text)
        assert str(info.value) == message, text


def test_direct_construction_is_validated():
    with pytest.raises(DatumError, match="^family 1 is linearly dependent$"):
        NumericalDatum(3, (((0, 0),), (), ()))
    with pytest.raises(DatumError, match="^family 1 must be a tuple of vectors"):
        NumericalDatum(3, ((0, 0), (), ()))
    with pytest.raises(DatumError, match="^expected 3 families, got 1$"):
        NumericalDatum(3, (((1, 2),),))
    with pytest.raises(DatumError, match="^p must be an odd prime, got 4$"):
        NumericalDatum(4, (((1, 2, 3),), (), (), ()))
    assert NumericalDatum(3, (((1, 2),), (), ())) == parse("p = 3; E1 = (1, 2)")


BIG_P = 2**127 - 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("p = 10000019; E1 = (1, 2)", "vector 1 of family 1 has length 2, expected 10000018"),
        ("p = 10000019", "at least one family must be nonempty"),
        (f"p = {BIG_P}; E1 = (1, 2)", f"vector 1 of family 1 has length 2, expected {BIG_P - 1}"),
    ],
)
def test_large_p_is_rejected_in_time_bounded_by_the_text(text, message):
    # Each of these once built p families or trial-divided p before failing.
    code = (
        "import sys\n"
        "from megs.datum import DatumError, NumericalDatum\n"
        "try:\n"
        "    NumericalDatum.from_text(sys.argv[1])\n"
        "except DatumError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, text], capture_output=True, text=True, timeout=20, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == message


def test_vector_predicates():
    assert is_symmetric((1, 1), 3)
    assert is_symmetric((2, 2), 3)
    assert not is_symmetric((1, 2), 3)
    assert is_symmetric((1, 0, 0, 1), 5)
    assert not is_symmetric((1, 2, 0, 0), 5)
    assert is_constant((2, 2))
    assert not is_constant((1, 2))
    assert not is_constant((0, 0))


def test_torsion_is_zero_coordinate_sum():
    assert is_torsion(parse("p = 3; E1 = (1, 2)"))
    assert not is_torsion(parse("p = 3; E1 = (1, 1)"))
    assert not is_torsion(parse("p = 3; E1 = (0, 1)"))
    assert is_torsion(parse("p = 3; E1 = (1, 2); E2 = (2, 1)"))
    assert not is_torsion(parse("p = 3; E1 = (1, 2); E2 = (2, 2)"))
    assert not is_torsion(parse("p = 5; E1 = (1, 0, 0, 1)"))
    assert is_torsion(parse("p = 5; E1 = (1, 2, 0, 2)"))


def test_single_family_sweep_p3():
    # The eight nonzero vectors: the two constant ones are symmetric and not
    # branch over the derived subgroup; the other six are branch.
    for vec in [(1, 2), (2, 1), (0, 1), (0, 2), (1, 0), (2, 0)]:
        cls = classify(parse(f"p = 3; E1 = {vec}"))
        assert cls.branch_over_derived, vec
        assert cls.csp == "HasCSP"
    for vec in [(1, 1), (2, 2)]:
        cls = classify(parse(f"p = 3; E1 = {vec}"))
        assert not cls.branch_over_derived, vec
        assert cls.branch_over_gamma3_only
        assert cls.csp == "HasCSP"


def test_classify_constant_pair():
    cls = classify(parse("p = 3; E1 = (1, 1); E2 = (1, 1)"))
    assert cls.in_G_class
    assert cls.not_branch
    assert not cls.branch_over_derived
    assert cls.csp == "OutsideTheoremScope"


def test_classify_dependent_pair():
    cls = classify(parse("p = 3; E1 = (1, 2); E2 = (1, 2)"))
    assert cls.branch_over_derived
    assert cls.dimV == 1
    assert cls.csp == "NoCSP"


def test_classify_independent_pair():
    cls = classify(parse("p = 3; E1 = (1, 2); E2 = (2, 2)"))
    assert cls.branch_over_derived
    assert cls.dimV == 2
    assert cls.csp == "HasCSP"


def test_classify_exceptional():
    cls = classify(parse("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)"))
    assert cls.in_E_class
    assert cls.branch_over_derived
    assert cls.dimV == 2
    assert cls.csp == "NoCSP"
    assert exceptional_pair(parse("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)")) == (1, 2)


def test_symmetric_pair_without_exceptional_scaling():
    # Two symmetric singletons whose 0/1 normal forms are not complementary.
    d = parse("p = 5; E1 = (1, 0, 0, 1); E2 = (1, 2, 2, 1)")
    cls = classify(d)
    assert cls.dimV == 2
    assert not cls.in_E_class
    assert cls.csp == "HasCSP"


def test_generator_portrait_sections():
    d = parse("p = 3; E1 = (1, 2)")
    b = generator_portrait(d, 1, 1, 3)
    a2 = Portrait.rooted(3, 2, 1)
    assert b.fixes((1,))
    assert b.section((1,)) == a2
    assert b.section((2,)) == a2 ** 2
    assert b.section((3,)) == b.truncate(2)


def test_generator_portrait_family_slot_moves():
    # Family j recurses at first-level vertex p - j + 1.
    d = parse("p = 3; E1 = (1, 2); E2 = (1, 2)")
    b2 = generator_portrait(d, 2, 1, 3)
    a2 = Portrait.rooted(3, 2, 1)
    assert b2.section((2,)) == b2.truncate(2)
    assert b2.section((3,)) == a2
    assert b2.section((1,)) == a2 ** 2
