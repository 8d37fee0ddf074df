"""One fresh interpreter that runs megs for the benchmark.

    python3 perfbench/worker.py '<job as JSON>'

The job names the checkout's `src` directory, the data to parse and
classify during set-up, and a mode:

- `setup`: stop once megs is imported and the data are classified;
- `suite`: run `megs suite` in-process through `megs.cli.main`;
- `deep`: build the named chains through `megs.quotient` with an
  in-memory `ChainStore`, then write them to disk for the checks.

The worker writes one JSON result file. Its `ready` field is the
`perf_counter` reading when set-up ended; on Linux that clock is
CLOCK_MONOTONIC, shared with the parent, which reads it before spawning.
The megs work is timed from `ready`, and peak RSS is read when it ends,
before anything is written for the checks. With `trace` set, the layer
tracer is installed right after `import megs`, and after the timed work
the worker also times portrait operations on the pivots of two chains.
"""

import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

MICRO_CHAINS = (
    ("p5n4", "p = 5; E1 = (1, 2, 0, 0)", 4),
    ("p3n5", "p = 3; E1 = (0, 1)", 5),
)
MICRO_PAIRS = 32
MICRO_REPEAT = 40


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import megs
    import megs.cli

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    texts = [text for _, text in megs.SUITE_DATA] if job["data"] == "suite" else job["data"]
    data = {text: megs.NumericalDatum.from_text(text) for text in texts}
    for datum in data.values():
        megs.classify(datum)
    ready = time.perf_counter()
    result = {"ready": ready}
    built = []
    if job["mode"] == "suite":
        result.update(_suite(megs, job, ready))
    elif job["mode"] == "deep":
        built = _deep(megs, job, data, ready, result)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(megs.CHECK_NAMES)
        tracer.write_spans(job["spans"])
    if built:
        result["manifest"] = _write_chains(megs, job, data, built)
    if tracer is not None:
        result["micro"], result["micro_orders"] = _fixed_operand_costs(megs, job["seed"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _suite(megs, job, ready: float) -> dict:
    out = job["out"]
    argv = [
        "suite",
        "--cache-dir", job["cache_dir"],
        "--json-report", os.path.join(out, "report.json"),
        "--seed", str(job["megs_seed"]),
    ]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = megs.cli.main(argv)
    end = time.perf_counter()
    rss = _peak_rss_mb()
    with open(os.path.join(out, "stdout.txt"), "w") as fh:
        fh.write(buf.getvalue())
    return {"wall_s": end - ready, "peak_rss_mb": rss, "exit": code}


def _deep(megs, job, data, ready: float, result: dict) -> list:
    built = []
    failed = []
    for text, descriptors in job["chains"]:
        q = megs.quotient(data[text], job["level"], store=megs.ChainStore())
        for descriptor in descriptors:
            try:
                built.append((text, descriptor, q.chain(descriptor)))
            except megs.ChainError as exc:
                failed.append(f"{text} {descriptor}: {exc}")
    end = time.perf_counter()
    result.update(
        wall_s=end - ready,
        peak_rss_mb=_peak_rss_mb(),
        attempted=sum(len(d) for _, d in job["chains"]),
        failed=failed,
    )
    return built


def _write_chains(megs, job, data, built) -> list[dict]:
    """Write each chain through a disk ChainStore of its own, for the checks."""
    manifest = []
    for i, (text, descriptor, chain) in enumerate(built):
        cache_dir = os.path.join(job["out"], "chains", str(i))
        megs.ChainStore(cache_dir).get_or_build(data[text], job["level"], descriptor, lambda c=chain: c)
        (name,) = os.listdir(cache_dir)
        manifest.append({"datum": text, "descriptor": descriptor, "file": os.path.join(cache_dir, name)})
    return manifest


def _per_op_us(fn, operands) -> float:
    """Median over operands of the mean time of one call, in microseconds."""
    times = []
    for args in operands:
        fn(*args)  # fills per-portrait caches, so the operands stay fixed
        t0 = time.perf_counter()
        for _ in range(MICRO_REPEAT):
            fn(*args)
        times.append((time.perf_counter() - t0) / MICRO_REPEAT)
    return statistics.median(times) * 1e6


def _fixed_operand_costs(megs, seed: int):
    costs = {}
    orders = []
    for tag, text, level in MICRO_CHAINS:
        datum = megs.NumericalDatum.from_text(text)
        chain = megs.quotient(datum, level).full()
        orders.append({"datum": text, "level": level, "exponent": chain.order_exponent()})
        pivots = chain.pivots()
        rng = random.Random(f"{seed}-{tag}")
        pairs = [(rng.choice(pivots), rng.choice(pivots)) for _ in range(MICRO_PAIRS)]
        singles = [(x,) for x, _ in pairs]
        costs[f"portraits.mul_us.{tag}"] = _per_op_us(lambda x, y: x * y, pairs)
        costs[f"portraits.inv_us.{tag}"] = _per_op_us(lambda x: ~x, singles)
        costs[f"portraits.pow_neg_us.{tag}"] = _per_op_us(lambda x: x ** -2, singles)
    return costs, orders


if __name__ == "__main__":
    sys.exit(main())
