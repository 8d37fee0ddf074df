"""The benchmark's layer tracer and output checks still work with the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CODE = """
import megs.words
from tracer import TARGETS, Tracer

original = megs.words.evaluate
tracer = Tracer()
tracer.install()
assert len(tracer._restore) >= len(TARGETS), tracer._restore
assert megs.words.evaluate is not original
tracer.uninstall()
assert megs.words.evaluate is original
print("ok")
"""


def test_tracer_installs_and_uninstalls_every_target():
    # Deleting or renaming a traced name (is_trivial, classify,
    # SubgroupChain.sift, ...) makes install() raise here.
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run(
        [sys.executable, "-c", CODE],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def _perfbench(script, job):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / script), json.dumps(job)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
        env=dict(env, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"),
    )
    assert done.returncode == 0, done.stderr
    with open(job["result"]) as fh:
        return json.load(fh)


def test_benchmark_outputs_pass_the_benchmarks_own_checks(tmp_path):
    # The checks the benchmark runs on its outputs: a renamed entry point
    # (quotient, suite_plan, CHECK_NAMES), a suite row that no longer ends
    # as predicted, or a cache file the benchmark's reader cannot read or
    # whose chains do not sift as their generators say fails here.
    src = str(ROOT / "src")
    text = "p = 3; E1 = (2, 2)"
    deep = _perfbench("worker.py", {
        "mode": "deep", "src": src, "data": [text], "level": 3, "out": str(tmp_path / "deep"),
        "chains": [[text, ["full", "derived", "gamma3"]]], "result": str(tmp_path / "deep.json"),
    })
    assert deep["failed"] == [] and len(deep["manifest"]) == 3
    out = tmp_path / "suite"
    out.mkdir()
    suite = _perfbench("worker.py", {
        "mode": "suite", "src": src, "data": "suite", "cache_dir": str(tmp_path / "cache"),
        "out": str(out), "megs_seed": 20260817, "result": str(tmp_path / "suite.json"),
    })
    checked = _perfbench("verify.py", {
        "src": src,
        "oracle_dir": str(tmp_path / "oracle"),
        "suite": [{"out": str(out), "exit": suite["exit"], "seed": 20260817, "cache": str(tmp_path / "cache")}],
        "deep": [deep["manifest"]],
        "orders": [],
        "result": str(tmp_path / "verify.json"),
    })
    assert checked["failures"] == [] and checked["passed"] > 0
