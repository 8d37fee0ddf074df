"""Reference figures too long to serve as workloads, measured again on demand.

    python3 perfbench/reference.py full-single-12-n6
    python3 perfbench/reference.py csp-positive-single-22-n6

Run from the root of a checkout. It runs the computation once with the
layer tracer installed and prints its traced wall time and the layer
counts as one JSON object. The counts are exact; the wall time includes
the tracing overhead, so time the same computation untraced with the
command that README.md gives next to each figure.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REFERENCES = {
    # The full closure of a non-symmetric GGS datum one level deeper than deep-p3.
    "full-single-12-n6": ("p = 3; E1 = (1, 2)", 6),
    # The heaviest tier-1 row: the level-5 kernel inside gamma3 at n = 6.
    "csp-positive-single-22-n6": ("p = 3; E1 = (2, 2)", 6),
}
COUNTS = (
    "portraits.mul.calls",
    "portraits.inv.calls",
    "portraits.pow.calls",
    "chains.close.calls",
    "chains.closure_sifts",
    "chains.member_sifts",
    "chains.pivots",
)


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in REFERENCES:
        print(f"usage: reference.py {{{','.join(REFERENCES)}}}", file=sys.stderr)
        return 2
    name = sys.argv[1]
    text, level = REFERENCES[name]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import megs
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    datum = megs.NumericalDatum.from_text(text)
    t0 = time.perf_counter()
    if name.startswith("full-"):
        chain = megs.quotient(datum, level).full()
        outcome = {"dims": list(chain.dims()), "order_exponent": chain.order_exponent()}
    else:
        report = megs.run_check("csp-positive", datum, level=level)
        outcome = {"verdict": report.verdict, "certificates": report.certificates}
    wall = time.perf_counter() - t0
    tracer.uninstall()
    layers = tracer.metrics(megs.CHECK_NAMES)
    print(json.dumps({"reference": name, "traced_wall_s": wall, **outcome, **{k: layers[k] for k in COUNTS}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
