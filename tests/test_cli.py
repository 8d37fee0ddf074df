import hashlib
import json
import time
from pathlib import Path

import pytest

from megs import chains, portraits
from megs.chains import ChainError, SubgroupChain
from megs.cli import main

GS = "p = 3; E1 = (1, 2)"
S22 = "p = 3; E1 = (2, 2)"
DEP = "p = 3; E1 = (1, 2); E2 = (1, 2)"
CONST = "p = 3; E1 = (1, 1); E2 = (1, 1)"


def test_classify_output(capsys):
    code = main(["classify", "--datum", GS])
    out = capsys.readouterr().out
    assert code == 0
    assert "constant-class: no" in out
    assert "torsion: yes" in out
    assert "csp: HasCSP" in out
    assert "branch-over-derived: yes" in out
    assert "non-symmetric" in out


def test_classify_constant_pair(capsys):
    code = main(["classify", "--datum", CONST])
    out = capsys.readouterr().out
    assert code == 0
    assert "constant-class: yes" in out
    assert "torsion: no" in out


def test_quotient_orders(capsys):
    code = main(["quotient", "--datum", GS, "--level", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order: 3^7" in out
    lines = [line for line in out.splitlines() if line.lstrip().startswith("k=")]
    assert lines == [
        "  k=1: quotient 3^1, kernel 3^6, layer 3^1",
        "  k=2: quotient 3^3, kernel 3^4, layer 3^2",
        "  k=3: quotient 3^7, kernel 3^0, layer 3^4",
    ]


def test_order_command(capsys):
    code = main(["order", "--datum", GS, "a b[1,1]", "--cap", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order: 9" in out


def test_order_exceeds_cap(capsys):
    code = main(["order", "--datum", CONST, "a b[1,1]", "--cap", "729"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exceeds cap 729" in out


def test_check_verified_exit_zero(capsys):
    code = main(["check", "branch-over-derived", "--datum", GS, "--level", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: Verified" in out
    assert "as-predicted: yes" in out


def test_check_predicted_refutation_exits_zero(capsys):
    code = main(["check", "abelianization-index", "--datum", DEP, "--level", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: RefutedByWitness" in out
    assert "as-predicted: yes" in out


def test_check_precondition_error_exits_three(capsys):
    code = main(["check", "csp-witness-exceptional", "--datum", GS])
    err = capsys.readouterr().err
    assert code == 3
    assert "exceptional class is empty" in err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_exit_three(capsys, samples):
    code = main(["check", "constant-vector", "--datum", "p = 3; E1 = (1, 1); E2 = (1, 1)", "--samples", samples])
    assert code == 3
    assert "samples >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_exits_three(capsys, cap):
    # `--cap 0` once printed "order: 1" for the identity, above the cap.
    code = main(["order", "--datum", GS, "()", "--cap", cap])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "cap >= 1" in captured.err


def test_bad_datum_exits_three(capsys):
    code = main(["classify", "--datum", "p = 4; E1 = (1, 2)"])
    assert code == 3
    code = main(["check", "subdirect"])
    assert code == 3


def test_unknown_subcommand_exits_three(capsys):
    assert main(["frobnicate"]) == 3


def test_degree_guard_exits_two(capsys):
    code = main(["quotient", "--datum", GS, "--level", "5", "--modulus-guard", "100"])
    err = capsys.readouterr().err
    assert code == 2
    assert "guard" in err


def test_witness_no_csp(capsys):
    code = main(["witness", "no-csp", "--datum", DEP, "--level", "3", "--aux-level", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "witness-element:" in out
    assert "verdict: Verified" in out


def test_witness_kind_needs_matching_datum(capsys):
    code = main(["witness", "no-csp", "--datum", GS, "--level", "3"])
    assert code == 3
    code = main(["witness", "exceptional", "--datum", S22, "--level", "2"])
    assert code == 3


def test_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        [
            "check",
            "abelianization-index",
            "--datum",
            GS,
            "--level",
            "3",
            "--json-report",
            str(path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    data = json.loads(path.read_text())
    assert data["command"] == "check"
    report = data["report"]
    assert report["check"] == "abelianization-index"
    assert report["verdict"] == "Verified"
    assert report["as_predicted"] is True
    assert report["certificates"]["measured-exponent"] == 2


def test_repeat_runs_identical(capsys):
    args = ["check", "fractality", "--datum", S22, "--level", "3"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_cache_dir_does_not_change_output(tmp_path, capsys):
    args = ["quotient", "--datum", S22, "--level", "3"]
    main(args)
    plain = capsys.readouterr().out
    main(args + ["--cache-dir", str(tmp_path)])
    cached_cold = capsys.readouterr().out
    main(args + ["--cache-dir", str(tmp_path)])
    cached_warm = capsys.readouterr().out
    assert plain == cached_cold == cached_warm
    assert list(tmp_path.glob("chain-*.json"))


def test_chain_error_exits_three_without_a_traceback(monkeypatch, capsys):
    def broken(self, perms, insert=False):
        raise ChainError("residual reduced at all levels but is not the identity")

    # The closure and every sift go through the one level pass.
    monkeypatch.setattr(SubgroupChain, "_level_pass", broken)
    code = main(["quotient", "--datum", GS, "--level", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: residual reduced at all levels but is not the identity\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("level", ["1000000", "100000000"])
def test_degree_guard_needs_no_power_of_the_level(level, capsys):
    start = time.perf_counter()
    code = main(["quotient", "--datum", GS, "--level", level])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"guard exceeded: degree 3^{level} exceeds the guard 20000\n"


def test_degree_guard_reports_a_small_degree_in_full(capsys):
    assert main(["quotient", "--datum", GS, "--level", "5", "--modulus-guard", "100"]) == 2
    assert capsys.readouterr().err == "guard exceeded: degree 243 exceeds the guard 100\n"


def test_a_huge_word_power_exits_two(capsys):
    start = time.perf_counter()
    code = main(["order", "--datum", GS, "(a b[1])^1000000000000"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert capsys.readouterr().err.startswith("guard exceeded: ")


GOLDEN = Path(__file__).parent / "golden"


def test_cold_suite_matches_the_golden_output(tmp_path, capsys):
    # The stdout and JSON report of `megs suite --seed 20260817`, kept from
    # before the engine changed; every change to it must keep them.
    assert_golden_cold_suite(tmp_path, capsys)


def test_one_row_kernel_blocks_give_the_golden_suite(tmp_path, capsys, monkeypatch):
    # With 7 leaf entries a block, the stacked kernels take one row at a time
    # from depth 2 on.
    monkeypatch.setattr(portraits, "BLOCK", 7)
    assert_golden_cold_suite(tmp_path, capsys)


def assert_golden_cold_suite(tmp_path, capsys):
    report = tmp_path / "suite.json"
    args = ["suite", "--seed", "20260817", "--cache-dir", str(tmp_path / "cache"), "--json-report", str(report)]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / "suite-seed-20260817.out").read_text()
    assert report.read_bytes() == (GOLDEN / "suite-seed-20260817.json").read_bytes()
    # The cache it leaves, with no seed kept in the chains other than `full`,
    # `derived` and `gamma3`.
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 124
    assert sum(path.stat().st_size for path in files) == 362_725
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == "d3c0c02ef1ca6190d23be9d9c406a568cfb4013d5d60fff085b29a592e939ded"
    # A warm pass on the cache it left gives the same output.
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / "suite-seed-20260817.out").read_text()
    assert report.read_bytes() == (GOLDEN / "suite-seed-20260817.json").read_bytes()


def test_a_warm_suite_takes_one_section_per_orbit(tmp_path, monkeypatch, capsys):
    # fractality, subdirect and full-section-vertex take each normal
    # subgroup's section once per orbit of the quotient on the level
    # (`section_exponents`); a section at every vertex made 265 of them.
    args = ["suite", "--seed", "20260817", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    calls = []
    section_chain = chains.section_chain

    def counting(chain, vertex):
        calls.append(vertex)
        return section_chain(chain, vertex)

    monkeypatch.setattr(chains, "section_chain", counting)
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / "suite-seed-20260817.out").read_text()
    assert len(calls) == 37
