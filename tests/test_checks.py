import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from megs import chains
from megs.chains import ChainStore, quotient
from megs.checks import (
    CHECK_NAMES,
    CHECKS,
    REFUTED,
    VERIFIED,
    CheckError,
    _index_p_subgroup,
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
    kj = _index_p_subgroup(datum, quotient(datum, level), (1,))
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


def test_suite_rows_for_one_datum_run_as_predicted():
    rows = [row for row in suite_plan() if row[0] == "single-01"]
    assert len(rows) == 8
    for _, text, check, kwargs in rows:
        datum = NumericalDatum.from_text(text)
        report = run_check(check, datum, store=STORE, **kwargs)
        assert report.as_predicted, (check, report.verdict, report.expected)


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
    rows = re.findall(r"^\| ([a-z0-9-]+) \| ([^|]+) \|", readme, re.M)
    assert rows[0] == ("check", "default n")
    rows = rows[1:]
    assert [name for name, _ in rows] == list(CHECKS)
    for name, cell in rows:
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
