"""Reach builds, each in a fresh interpreter, measured with `getrusage`.

    python3 tools/reach.py                      # every build
    python3 tools/reach.py single-22-full-n7    # the named ones

Run from anywhere in a checkout: each build runs in a new process with the
checkout's `src/` first on `sys.path` and one BLAS thread. The chains the
build needs first are built before the clock starts. One JSON line per
build: the build's seconds and minor page faults (`ru_minflt`), the
process's peak RSS in MiB (`ru_maxrss`) and the chain's level dimensions.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name: (datum, level, descriptors); the last descriptor is measured.
BUILDS = {
    "single-22-full-n7": ("p = 3; E1 = (2, 2)", 7, ("full",)),
    "p5-1200-full-n5": ("p = 5; E1 = (1, 2, 0, 0)", 5, ("full",)),
    "p5-exceptional-gamma3-n5": ("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)", 5, ("derived", "gamma3")),
}

CHILD = """
import json, resource, sys, time
import megs
text, level, descriptors = json.loads(sys.argv[1])
q = megs.quotient(megs.NumericalDatum.from_text(text), level)
for descriptor in descriptors[:-1]:
    q.chain(descriptor)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
chain = q.chain(descriptors[-1])
seconds = time.perf_counter() - t0
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"seconds": round(seconds, 3), "peak_rss_mib": round(usage.ru_maxrss / 1024, 2),
                  "minflt": usage.ru_minflt - faults, "dims": list(chain.dims())}))
"""


def measure(name: str) -> dict:
    """Run one build of BUILDS in a fresh interpreter and return its figures."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(BUILDS[name])], env=env, capture_output=True, text=True, check=True
    )
    return {"build": name, **json.loads(done.stdout)}


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in BUILDS]
    if unknown:
        print(f"usage: reach.py [{' '.join(BUILDS)}]...; unknown: {' '.join(unknown)}", file=sys.stderr)
        return 2
    for name in argv or BUILDS:
        print(json.dumps(measure(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
