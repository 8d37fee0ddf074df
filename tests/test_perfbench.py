"""The benchmark's layer tracer still finds every name it wraps."""

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
