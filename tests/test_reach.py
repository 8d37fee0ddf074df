"""The reach tool runs a build in a fresh interpreter and reports it."""

import importlib.util
import json
from pathlib import Path

from megs import NumericalDatum, quotient

ROOT = Path(__file__).resolve().parents[1]


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_reports_a_depth_3_build_from_a_fresh_interpreter(capsys):
    reach = load_reach()
    text = "p = 3; E1 = (2, 2)"
    reach.BUILDS = {"single-22-gamma3-n3": (text, 3, ("derived", "gamma3"))}
    assert reach.main([]) == 0
    line = json.loads(capsys.readouterr().out)
    assert set(line) == {"build", "seconds", "peak_rss_mib", "minflt", "dims"}
    assert line["build"] == "single-22-gamma3-n3"
    assert line["dims"] == list(quotient(NumericalDatum.from_text(text), 3).gamma3().dims())
    assert line["seconds"] >= 0 and line["peak_rss_mib"] > 0 and line["minflt"] >= 0
    assert reach.main(["no-such-build"]) == 2
