import json
import random
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from megs import chains, checks
from megs.chains import ChainStore, DegreeGuardError, quotient
from megs.checks import (
    CHECK_NAMES,
    CHECKS,
    GUARD,
    REFUTED,
    SUITE_DATA,
    SUITE_WORD,
    VERIFIED,
    CheckError,
    _index_p_elements,
    _star_products,
    run_check,
    run_suite,
    suite_plan,
)
from megs.cli import main
from megs.datum import NumericalDatum, classify
from megs.portraits import Portrait

GS = NumericalDatum.from_text("p = 3; E1 = (1, 2)")
S22 = NumericalDatum.from_text("p = 3; E1 = (2, 2)")
DEP = NumericalDatum.from_text("p = 3; E1 = (1, 2); E2 = (1, 2)")
CONST = NumericalDatum.from_text("p = 3; E1 = (1, 1); E2 = (1, 1)")
P5E = NumericalDatum.from_text("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)")
P5S = NumericalDatum.from_text("p = 5; E1 = (1, 0, 0, 1)")
CONST5 = NumericalDatum.from_text("p = 5; E1 = (1, 1, 1, 1); E2 = (2, 2, 2, 2)")

STORE = ChainStore()


def run(name, datum, **kw):
    kw.setdefault("store", STORE)
    return run_check(name, datum, **kw)


def test_unknown_check_rejected():
    with pytest.raises(CheckError):
        run("no-such-check", GS)


def test_abelianization_index_verdicts():
    r = run("abelianization-index", GS, level=3)
    assert r.verdict == VERIFIED and r.expected == VERIFIED
    assert r.certificates["measured-exponent"] == 2
    assert r.certificates["predicted-exponent"] == 2
    r = run("abelianization-index", DEP, level=3)
    assert r.verdict == REFUTED and r.expected == REFUTED
    assert r.as_predicted
    assert r.certificates["measured-exponent"] < r.certificates["predicted-exponent"]
    r = run("abelianization-index", CONST, level=3)
    assert r.verdict == VERIFIED and r.expected == VERIFIED
    assert r.certificates["measured-exponent"] == 3


def test_branch_over_derived_verdicts():
    r = run("branch-over-derived", GS, level=3)
    assert r.verdict == VERIFIED and r.expected == VERIFIED
    p5s = NumericalDatum.from_text("p = 5; E1 = (1, 0, 0, 1)")
    for datum in (S22, p5s):
        r = run("branch-over-derived", datum, level=3)
        assert r.verdict == REFUTED and r.expected == REFUTED
        assert "witness" in r.certificates


def test_branch_over_gamma3_levels():
    r = run("branch-over-gamma3", S22, level=3)
    assert r.verdict == VERIFIED and r.expected == VERIFIED
    r = run("branch-over-gamma3", S22, level=4)
    assert r.verdict == REFUTED and r.expected == REFUTED
    assert r.certificates["failed-pivot-count"] == 4
    with pytest.raises(CheckError):
        run("branch-over-gamma3", CONST, level=3)


def test_second_derived_and_st1():
    assert run("second-derived", GS, level=3).verdict == VERIFIED
    assert run("st1-derived-in-gamma3", S22, level=3).verdict == VERIFIED
    r = run("st1-derived-in-gamma3", P5E, level=2)
    assert r.verdict == VERIFIED
    assert r.notes


def test_subdirect_verdicts():
    assert run("subdirect", GS, level=3).verdict == VERIFIED
    r = run("subdirect", S22, level=3)
    assert r.verdict == REFUTED and r.expected == REFUTED
    assert r.certificates["deficient-coordinates"] == [1, 2, 3]
    with pytest.raises(CheckError):
        run("subdirect", CONST, level=3)


def test_csp_positive():
    r = run("csp-positive", GS, level=None)
    assert r.verdict == VERIFIED and r.level == 3
    with pytest.raises(CheckError):
        run("csp-positive", DEP)


def test_csp_witness_dependent_certificates():
    r = run("csp-witness-dependent", DEP, level=3, aux_level=5)
    assert r.verdict == VERIFIED and r.as_predicted
    certs = r.certificates
    assert certs["agrees-to-level"] is True
    assert certs["classes-differ"] is True
    assert certs["factor-coset-in-derived"] is True
    assert certs["defect-in-level-kernel"] is True
    assert certs["defect-in-derived"] is True
    assert tuple(certs["abelianization-target"]) != tuple(certs["abelianization-factor"])
    assert any("defect" in note for note in r.notes)


def test_csp_witness_dependent_requires_dependency():
    with pytest.raises(CheckError):
        run("csp-witness-dependent", GS, level=3)


def test_csp_witness_exceptional_rejects_p3():
    with pytest.raises(CheckError) as info:
        run("csp-witness-exceptional", GS, level=2)
    assert "exceptional class is empty for p = 3" in str(info.value)


def test_run_check_without_a_store_shares_one_across_its_quotients(monkeypatch):
    # Without a store each quotient used to get its own, and the check closed
    # 8 chains instead of 6.
    closures = []
    close_chain = chains.close_chain

    def counted(*args, **kwargs):
        closures.append(args[:2])
        return close_chain(*args, **kwargs)

    monkeypatch.setattr(chains, "close_chain", counted)
    for store in (ChainStore(), None):
        closures.clear()
        report = run_check("csp-witness-exceptional", P5E, store=store)
        assert report.verdict == VERIFIED
        assert len(closures) == 6


# Levels a check opens beyond the level asked for and its aux level:
# full-section-vertex takes the level as a depth bound and opens the quotient
# two levels deeper.
EXTRA_DEPTH = {"full-section-vertex": 2}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_trips_the_degree_guard_before_any_work(name, monkeypatch):
    # The guard admits every level below the largest quotient the check
    # opens, so a closure or an evaluation before that quotient would run.
    spec = CHECKS[name]
    data = [NumericalDatum.from_text(text) for _, text in SUITE_DATA]
    datum = next(d for d in data if spec.applies(classify(d), d) is None)
    level = spec.levels(classify(datum), datum)[1]
    top = level + (spec.aux or 0) + EXTRA_DEPTH.get(name, 0)

    def fail(*args, **kwargs):
        raise AssertionError("work before the degree guard tripped")

    for target in ("megs.chains.close_chain", "megs.checks.evaluate", "megs.checks.evaluate_branch"):
        monkeypatch.setattr(target, fail)
    with pytest.raises(DegreeGuardError, match=f"degree {datum.p ** top} exceeds"):
        run_check(
            name, datum, level=level, word=SUITE_WORD if spec.word else None,
            store=ChainStore(), degree_guard=datum.p ** top - 1,
        )


def test_fractality_levels():
    r = run("fractality", S22, level=3)
    assert r.verdict == VERIFIED and r.expected == VERIFIED
    r = run("fractality", CONST, level=4)
    assert r.verdict == REFUTED and r.expected == REFUTED
    cert = r.certificates["first-defect"]
    assert cert["k"] == 2
    assert cert["full-exponent"] - cert["section-exponent"] == 1


def test_constant_vector_check():
    r = run("constant-vector", CONST, level=3, seed=11, samples=5)
    assert r.verdict == VERIFIED
    assert r.certificates["index-exponent"] == 1
    assert r.certificates["contains-derived"] is True
    with pytest.raises(CheckError):
        run("constant-vector", GS, level=3)


def test_constant_vector_closes_each_subgroup_once(monkeypatch):
    # At level 3, level - 1 is 2: the level-2 index-p subgroup of all families
    # and its derived subgroup are closed once a call, not twice. Counted on a
    # warm store, so only the closures the store does not keep are counted.
    store = ChainStore()
    first = run_check("constant-vector", CONST, level=3, store=store)
    calls = []
    close = chains.close_chain

    def counted(*args, **kwargs):
        calls.append(1)
        return close(*args, **kwargs)

    monkeypatch.setattr(chains, "close_chain", counted)
    again = run_check("constant-vector", CONST, level=3, store=store)
    # The subgroup of all families and of each one, at levels 3 and 2, each
    # closed with its derived subgroup: 2 * 2 * (1 + 2), 14 before.
    assert len(calls) == 12
    assert again.to_json() == first.to_json()


@pytest.mark.parametrize("datum, level", [(CONST, 3), (CONST, 4), (CONST5, 3)])
def test_star_products_match_the_portrait_loop(datum, level):
    # The loop the constant-vector check ran on portraits, kept as the reference.
    p = datum.p
    q = quotient(datum, level)
    kj = q.normal_closure(_index_p_elements(datum, q, (1,)))
    pivots = kj.pivots()
    rng = random.Random(5)
    want = []
    for _ in range(30):
        g = Portrait.identity(p, level)
        for _ in range(rng.randint(2, 5)):
            g = g * rng.choice(pivots) ** rng.randint(1, p - 1)
        star = twist = Portrait.identity(p, level)
        for _ in range(p):
            star = star * g.conj(twist)
            twist = twist * Portrait.rooted(p, level, 1)
        want.append(star.perm)
    got_rng = random.Random(5)
    assert np.array_equal(_star_products(p, level, kj.perms(), got_rng, 30), np.stack(want))
    assert got_rng.random() == rng.random()  # the same draws


def test_full_section_vertex_and_blocks():
    r = run("full-section-vertex", GS, word="a", level=2)
    assert r.verdict == VERIFIED
    assert r.certificates["vertex"] == [1]
    r = run("normal-closure-blocks", GS, word="a", level=4)
    assert r.verdict == VERIFIED
    with pytest.raises(CheckError):
        run("full-section-vertex", GS)


def test_weak_csp():
    r = run("weak-csp", GS, level=1)
    assert r.verdict == VERIFIED and r.expected == VERIFIED
    r = run("weak-csp", S22, level=1)
    assert r.verdict == REFUTED and r.expected is None
    assert r.as_predicted
    # The witness is the first pivot of the block product that the level
    # kernel's derived chain misses, so it pins the block product's pivot order.
    for datum in (S22, NumericalDatum.from_text("p = 3; E1 = (1, 1)")):
        r = run("weak-csp", datum)
        assert (r.level, r.aux_level) == (1, 3)
        assert r.certificates["witness"] == "3 3\n0 0 0 0 0 0 0 0 0 0 0 1 2\n"


def test_report_text_and_json_shapes():
    r = run("abelianization-index", GS, level=3)
    text = r.to_text()
    assert text == r.to_text()
    assert "check: abelianization-index" in text
    assert "verdict: Verified" in text
    data = json.loads(json.dumps(r.to_json()))
    assert data["check"] == "abelianization-index"
    assert data["as_predicted"] is True
    assert data["datum"] == GS.canonical_line()


def test_suite_plan_shape():
    rows = suite_plan()
    names = {row[0] for row in rows}
    assert "single-12" in names and "p5-exceptional" in names
    checks = {row[2] for row in rows if row[0] == "single-12"}
    assert "full-section-vertex" in checks
    assert "constant-vector" not in checks
    const_checks = {row[2] for row in rows if row[0] == "constant-pair"}
    assert "constant-vector" in const_checks
    assert "branch-over-gamma3" not in const_checks
    for row in rows:
        assert row[2] in CHECK_NAMES
        assert isinstance(row[3], dict)


def test_run_suite_never_holds_the_chains_of_two_data_at_once(monkeypatch):
    # One store per datum: when a datum's first chain is asked for, no live
    # store holds a chain of another datum.
    live = weakref.WeakSet()
    held = []

    class Spy(ChainStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live.add(self)

        def get_or_build(self, datum, level, descriptor, builder):
            held.append({key[0] for store in live for key in store.mem} | {datum.to_text()})
            return super().get_or_build(datum, level, descriptor, builder)

    monkeypatch.setattr(checks, "ChainStore", Spy)
    rows = run_suite()
    assert len(rows) == len(suite_plan())
    assert len({text for data in held for text in data}) == len(SUITE_DATA)
    assert max(map(len, held)) == 1


def test_suite_rows_for_one_datum_run_as_predicted():
    rows = [row for row in suite_plan() if row[0] == "single-01"]
    assert len(rows) == 8
    for _, text, check, kwargs in rows:
        datum = NumericalDatum.from_text(text)
        report = run_check(check, datum, store=STORE, **kwargs)
        assert report.as_predicted, (check, report.verdict, report.expected)


# The reasons each check gives with its predictions, where it gives any.
REASONS = {
    "abelianization-index": (
        "the joint defining vectors are linearly dependent, so the involved generator classes "
        "coincide in every congruence abelianization and the full-rank index cannot appear at "
        "any level",
        "the index p^(1+r) is predicted only from level r+1 on",
        "with three or more constant singleton families the measured index is p^3, below "
        "p^(1+r), so no verdict is predicted",
    ),
    "branch-over-derived": (
        "at level 2 the source is the derived subgroup of the level-1 quotient C_p, which is "
        "trivial, so the embedding holds vacuously",
    ),
    "branch-over-gamma3": (
        "a single constant singleton family embeds at levels up to 3 and fails from level 4 on; "
        "a failure is exact at the tested level",
    ),
    "st1-derived-in-gamma3": (
        "for this datum the containment fails in the infinite group but the defect is not "
        "visible at levels up to 4; a non-containment here would be a rigorous refutation at the "
        "tested level",
    ),
    "subdirect": (
        "for a single constant singleton family the tested sections stay a fixed index below the "
        "full quotient at every level",
        "for a single constant singleton family the tested sections at level 2 are the whole "
        "level-1 quotient C_p",
    ),
    "csp-witness-dependent": (
        "the defect lands inside the derived image at every finite level because the dependent "
        "generator classes already merge there; the non-congruence in the infinite group is "
        "witnessed by the different abelianization classes together with the coset certificate",
    ),
    "csp-witness-exceptional": (
        "an escape level of None means the defect of the infinite statement is not visible at "
        "the tested levels: the congruence closure of the third lower-central term contains the "
        "witness in every tested quotient",
    ),
    "fractality": (
        "for data whose families are all constant singletons the level-2 kernel sections drop to "
        "index p once the level reaches 4",
    ),
}

# The expected verdicts and reason notes of `run_check` over the suite data,
# recorded when each check body still computed its own prediction and changed
# since only where a run at that level deviated from it. One row per datum and
# check that applies to it; one letter per level from 2, to 4 for p = 3 and to
# 3 for p = 5: V Verified, R RefutedByWitness, - no prediction, . below the
# check's minimum level. A trailing column gives each level's reason: k for
# the check's k-th reason, . for none.
PREDICTIONS = """
single-12        abelianization-index    VVV
single-12        branch-over-derived     VVV
single-12        branch-over-gamma3      VVV
single-12        st1-derived-in-gamma3   VVV
single-12        subdirect               VVV
single-12        second-derived          VVV
single-12        csp-positive            .VV
single-12        fractality              VVV
single-12        full-section-vertex     VVV
single-12        normal-closure-blocks   VVV
single-12        weak-csp                VVV
single-11        abelianization-index    VVV
single-11        branch-over-derived     VRR 1..
single-11        branch-over-gamma3      VVR 111
single-11        st1-derived-in-gamma3   VVV
single-11        subdirect               VRR 211
single-11        fractality              VVR 111
single-11        full-section-vertex     ---
single-11        weak-csp                ---
single-22        abelianization-index    VVV
single-22        branch-over-derived     VRR 1..
single-22        branch-over-gamma3      VVR 111
single-22        st1-derived-in-gamma3   VVV
single-22        subdirect               VRR 211
single-22        fractality              VVR 111
single-22        full-section-vertex     ---
single-22        weak-csp                ---
single-01        abelianization-index    VVV
single-01        branch-over-derived     VVV
single-01        branch-over-gamma3      VVV
single-01        st1-derived-in-gamma3   VVV
single-01        subdirect               VVV
single-01        second-derived          VVV
single-01        csp-positive            .VV
single-01        fractality              VVV
single-01        full-section-vertex     VVV
single-01        normal-closure-blocks   VVV
single-01        weak-csp                VVV
pair-dependent   abelianization-index    RRR 111
pair-dependent   branch-over-derived     VVV
pair-dependent   branch-over-gamma3      VVV
pair-dependent   st1-derived-in-gamma3   VVV
pair-dependent   subdirect               VVV
pair-dependent   second-derived          VVV
pair-dependent   csp-witness-dependent   VVV 111
pair-dependent   fractality              VVV
pair-dependent   full-section-vertex     VVV
pair-dependent   normal-closure-blocks   VVV
pair-dependent   weak-csp                VVV
pair-independent abelianization-index    -VV 2..
pair-independent branch-over-derived     VVV
pair-independent branch-over-gamma3      VVV
pair-independent st1-derived-in-gamma3   VVV
pair-independent subdirect               VVV
pair-independent second-derived          VVV
pair-independent csp-positive            ..V
pair-independent fractality              VVV
pair-independent full-section-vertex     VVV
pair-independent normal-closure-blocks   VVV
pair-independent weak-csp                VVV
pair-reversed    abelianization-index    RRR 111
pair-reversed    branch-over-derived     VVV
pair-reversed    branch-over-gamma3      VVV
pair-reversed    st1-derived-in-gamma3   VVV
pair-reversed    subdirect               VVV
pair-reversed    second-derived          VVV
pair-reversed    csp-witness-dependent   VVV 111
pair-reversed    fractality              VVV
pair-reversed    full-section-vertex     VVV
pair-reversed    normal-closure-blocks   VVV
pair-reversed    weak-csp                VVV
rank-two         abelianization-index    -VV 2..
rank-two         branch-over-derived     VVV
rank-two         branch-over-gamma3      VVV
rank-two         st1-derived-in-gamma3   VVV
rank-two         subdirect               VVV
rank-two         second-derived          VVV
rank-two         csp-positive            ..V
rank-two         fractality              VVV
rank-two         full-section-vertex     VVV
rank-two         normal-closure-blocks   VVV
rank-two         weak-csp                VVV
constant-pair    abelianization-index    -VV 2..
constant-pair    branch-over-derived     VRR 1..
constant-pair    fractality              VVR 111
constant-pair    full-section-vertex     ---
constant-pair    constant-vector         VVV
p5-exceptional   abelianization-index    -V  2.
p5-exceptional   branch-over-derived     VV
p5-exceptional   branch-over-gamma3      VV
p5-exceptional   st1-derived-in-gamma3   VV  11
p5-exceptional   subdirect               VV
p5-exceptional   second-derived          VV
p5-exceptional   csp-witness-exceptional VV  11
p5-exceptional   fractality              VV
p5-exceptional   full-section-vertex     VV
p5-exceptional   normal-closure-blocks   VV
p5-exceptional   weak-csp                VV
p5-symmetric     abelianization-index    VV
p5-symmetric     branch-over-derived     VR  1.
p5-symmetric     branch-over-gamma3      VV
p5-symmetric     st1-derived-in-gamma3   VV
p5-symmetric     subdirect               VV
p5-symmetric     fractality              VV
p5-symmetric     full-section-vertex     VV
p5-symmetric     weak-csp                --
p5-generic       abelianization-index    VV
p5-generic       branch-over-derived     VV
p5-generic       branch-over-gamma3      VV
p5-generic       st1-derived-in-gamma3   VV
p5-generic       subdirect               VV
p5-generic       second-derived          VV
p5-generic       csp-positive            .V
p5-generic       fractality              VV
p5-generic       full-section-vertex     VV
p5-generic       normal-closure-blocks   VV
p5-generic       weak-csp                VV
"""
LETTERS = {"V": VERIFIED, "R": REFUTED, "-": None}


def test_the_check_table_keeps_the_recorded_predictions(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("a prediction closed a chain")

    monkeypatch.setattr(chains, "close_chain", no_closure)
    want = {}
    for line in PREDICTIONS.strip().splitlines():
        name, check, cells, *reasons = line.split()
        reasons = reasons[0] if reasons else "." * len(cells)
        for level, letter, k in zip(range(2, 5), cells, reasons):
            if letter != ".":
                want[name, check, level] = (LETTERS[letter], (REASONS[check][int(k) - 1],) if k != "." else ())
    got = {}
    for name, text in SUITE_DATA:
        datum = NumericalDatum.from_text(text)
        cls = classify(datum)
        for check, spec in CHECKS.items():
            if spec.applies(cls, datum) is None:
                for level in range(max(2, spec.levels(cls, datum)[0]), 5 if datum.p == 3 else 4):
                    got[name, check, level] = spec.expect(cls, datum, level)
    assert got == want
    # The rules that flip between levels 3 and 4 are in the grid.
    for name, check in [
        ("single-11", "branch-over-gamma3"),
        ("single-22", "branch-over-gamma3"),
        ("constant-pair", "fractality"),
        ("single-11", "fractality"),
        ("single-22", "fractality"),
    ]:
        assert (want[name, check, 3][0], want[name, check, 4][0]) == (VERIFIED, REFUTED)


# Cells whose runs once deviated from the table's prediction, with the
# verdict each run measures: (datum, check, level, verdict, expected).
FIXED_CELLS = [
    *[(name, "branch-over-derived", 2, VERIFIED, VERIFIED)
      for name in ("single-11", "single-22", "constant-pair", "p5-symmetric")],
    *[(name, "subdirect", 2, VERIFIED, VERIFIED) for name in ("single-11", "single-22")],
    *[(name, "abelianization-index", 2, REFUTED, None)
      for name in ("pair-independent", "rank-two", "constant-pair", "p5-exceptional")],
    *[(name, "full-section-vertex", level, GUARD, None)
      for name in ("single-11", "single-22") for level in (2, 3, 4)],
    *[(text, "abelianization-index", level, REFUTED, None) for text, levels in [
        ("p = 3; E1 = (1, 1); E2 = (1, 1); E3 = (1, 1)", (3, 4, 5)),
        ("p = 5; E1 = (1, 1, 1, 1); E2 = (2, 2, 2, 2); E3 = (3, 3, 3, 3)", (3, 4)),
        ("p = 5; E1 = (1, 1, 1, 1); E2 = (2, 2, 2, 2); E3 = (3, 3, 3, 3); E4 = (4, 4, 4, 4)", (3, 4)),
        ("p = 5; E1 = (1, 1, 1, 1); E2 = (2, 2, 2, 2); E3 = (3, 3, 3, 3); E4 = (4, 4, 4, 4); "
         "E5 = (1, 1, 1, 1)", (3, 4)),
        ("p = 7; E1 = (1, 1, 1, 1, 1, 1); E2 = (2, 2, 2, 2, 2, 2); E3 = (3, 3, 3, 3, 3, 3)", (3,)),
    ] for level in levels],
]


@pytest.mark.parametrize("datum, check, level, verdict, expected", FIXED_CELLS)
def test_fixed_predictions_hold_when_run(datum, check, level, verdict, expected):
    text = dict(SUITE_DATA).get(datum, datum)
    r = run(check, NumericalDatum.from_text(text), level=level, word=SUITE_WORD)
    assert (r.verdict, r.expected, r.as_predicted) == (verdict, expected, True)
    if check == "abelianization-index" and expected is None:
        assert r.certificates["measured-exponent"] < r.certificates["predicted-exponent"]


def test_reports_list_the_reasons_ahead_of_the_measurement_notes(monkeypatch):
    r = run("fractality", S22, level=4)
    assert (r.expected, r.notes) == (REFUTED, REASONS["fractality"])
    # No full section of constant-pair within the bound gives a note of the
    # check's own, which follows a reason given by the table.
    spec = replace(CHECKS["full-section-vertex"], expect=lambda cls, datum, level: (None, ("why",)))
    monkeypatch.setitem(CHECKS, "full-section-vertex", spec)
    r = run("full-section-vertex", CONST, word="a", level=1)
    assert r.verdict == "GuardExceeded" and r.notes[0] == "why" and len(r.notes) == 2


# For every check with preconditions, data that fail each of them in turn.
OUTSIDE = {
    "branch-over-gamma3": [CONST],
    "st1-derived-in-gamma3": [CONST],
    "subdirect": [CONST],
    "second-derived": [S22],
    "csp-positive": [DEP],
    "csp-witness-dependent": [S22, GS],
    "csp-witness-exceptional": [GS, P5S],
    "normal-closure-blocks": [S22],
    "weak-csp": [CONST],
    "constant-vector": [GS],
}


@pytest.mark.parametrize(
    "name, datum",
    [(name, datum) for name, spec in CHECKS.items() if spec.requires for datum in OUTSIDE[name]],
)
def test_preconditions_reject_data_outside_them(name, datum, capsys):
    message = CHECKS[name].applies(classify(datum), datum)
    assert message is not None
    with pytest.raises(CheckError) as info:
        run(name, datum, word="a")
    assert str(info.value) == message.format(name=name)
    assert main(["check", name, "--datum", datum.canonical_line(), "--word", "a"]) == 3
    assert str(info.value) in capsys.readouterr().err


def test_every_precondition_has_an_outside_datum():
    for name, spec in CHECKS.items():
        failed = {spec.applies(classify(datum), datum) for datum in OUTSIDE.get(name, [])}
        assert failed == {message for _, message in spec.requires}, name


def test_readme_check_table_matches_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| ([a-z0-9-]+) \| ([^|]+) \| [^|]+ \| ([^|]+) \|$", readme, re.M)
    assert rows[0] == ("check", "default n", "predicted")
    rows = rows[1:]
    assert [name for name, _, _ in rows] == list(CHECK_NAMES)
    for name, cell, predicted in rows:
        assert predicted.strip(), name
        spec = CHECKS[name]
        if spec.level is None:
            # csp-positive defaults to its minimum level: r+2, or 6 on the gamma3 route.
            assert cell.strip() == "r+2 or 6"
            assert spec.levels(classify(GS), GS)[1] == GS.total_generators + 2
            assert spec.levels(classify(S22), S22)[1] == 6
            continue
        want = str(spec.level)
        if spec.aux is not None:
            want += f", aux {spec.level + spec.aux}"
        assert cell.strip() == want, name
