"""The benchmark of megs: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout; it builds nothing and reads megs from
`src/`. Workloads (see README.md):

- `suite-cold`: `megs suite` against an empty cache directory;
- `suite-warm`: `megs suite` against a cache the same code filled, one
  fresh process per pass;
- `deep-p3`: chains at n = 5 of three p = 3 data, in-memory store.

Every run attempts whole rounds (one suite, or one set of chains) until
`--seconds` have passed, at least one. Each round runs in a fresh
interpreter with numpy's thread pools pinned to one thread. The checks of
`verify.py` run afterwards in a process of their own.

`--trace 0` prints the end-to-end metrics: `setup_s` (median over fresh
interpreters that import megs and parse and classify the workload's
data), `wall_s` (median round time from ready to the last verdict or
chain), `peak_rss_mb` (median peak RSS of the processes that ran megs)
and `cache_bytes`. `--trace 1` runs one traced round and prints the
per-layer metrics instead.

State that outlives a run (the warm cache, sympy's answers, untraced
round times for the tracing overhead, span files) lives in `.perfbench/`
at the root of the checkout.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from tracer import dir_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("suite-cold", "suite-warm", "deep-p3")
DEEP_LEVEL = 5
DEEP_CHAINS = (
    ("p = 3; E1 = (2, 2)", ("full", "derived", "gamma3")),
    ("p = 3; E1 = (1, 2)", ("full",)),
    ("p = 3; E1 = (1, 0), (0, 1)", ("full",)),
)
SETUP_PROBES = 5
DEADLINE_S = 170.0  # every run must end within 180 s
# megs' default --seed. The cold run that fills the warm cache uses it, and so
# do traced rounds, whose counts must not depend on --seed as the work of the
# sampled star products in `constant-vector` does.
MEGS_SEED = 20260817

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.env = dict(os.environ, **WORKER_ENV)
        self.env.pop("PYTHONPATH", None)
        self.source = source_digest()
        self.tmp = os.path.join(STATE, "tmp", str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        self.names = itertools.count()
        self.fill = None

    # -- processes -------------------------------------------------------------------

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def spawn(self, script: str, job: dict) -> float:
        """Run a helper to completion; returns the perf_counter reading before spawning."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, script), json.dumps(job)],
                env=self.env,
                stdout=subprocess.DEVNULL,
                timeout=self.remaining(),
                check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{script} did not finish within the run's time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{script} exited {proc.returncode}")
        return t0

    def scratch(self, prefix: str) -> str:
        return os.path.join(self.tmp, f"{prefix}-{next(self.names)}")

    def worker(self, job: dict) -> dict:
        result_path = self.scratch("result")
        job = dict(job, src=SRC, result=result_path, seed=self.args.seed)
        t0 = self.spawn("worker.py", job)
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - t0
        return result

    def verify(self, suite=(), deep=(), orders=()) -> list[str]:
        result_path = os.path.join(self.tmp, "verify.json")
        job = {
            "src": SRC,
            "oracle_dir": os.path.join(STATE, "oracle"),
            "suite": list(suite),
            "deep": list(deep),
            "orders": list(orders),
            "result": result_path,
        }
        self.spawn("verify.py", job)
        with open(result_path) as fh:
            result = json.load(fh)
        print(f"checks: {result['passed']} passed, {len(result['failures'])} failed", file=sys.stderr)
        return result["failures"]

    # -- set-up ------------------------------------------------------------------------

    def data(self):
        return [text for text, _ in DEEP_CHAINS] if self.args.workload == "deep-p3" else "suite"

    def setup_s(self) -> float:
        job = {"mode": "setup", "data": self.data()}
        self.worker(job)  # first import in a checkout writes the bytecode cache
        return statistics.median(self.worker(job)["setup_s"] for _ in range(SETUP_PROBES))

    # -- rounds ------------------------------------------------------------------------

    def suite_round(self, cache_dir: str, megs_seed: int, trace: bool = False) -> dict:
        out = self.scratch("suite")
        os.makedirs(out)
        job = {"mode": "suite", "data": "suite", "cache_dir": cache_dir, "out": out, "megs_seed": megs_seed}
        if trace:
            job.update(trace=True, spans=self.spans_path())
        result = self.worker(job)
        result["out"] = out
        return result

    def deep_round(self, trace: bool = False) -> dict:
        out = self.scratch("deep")
        order = list(DEEP_CHAINS)
        random.Random(self.args.seed).shuffle(order)
        job = {"mode": "deep", "data": self.data(), "chains": order, "level": DEEP_LEVEL, "out": out}
        if trace:
            job.update(trace=True, spans=self.spans_path())
        return self.worker(job)

    def warm_cache(self) -> dict:
        """The cache dir and outputs of a verified cold run of this source tree, made if missing."""
        warm = os.path.join(STATE, "warm", self.source)
        if not os.path.exists(os.path.join(warm, "fill.json")):
            cache = self.scratch("fill-cache")
            fill = self.suite_round(cache, MEGS_SEED)
            self.keep_as_warm(fill, cache, MEGS_SEED)
            self.record_wall("suite-cold", fill["wall_s"])
        with open(os.path.join(warm, "fill.json")) as fh:
            seed = json.load(fh)["seed"]
        return {"cache": os.path.join(warm, "cache"), "outputs": os.path.join(warm, "outputs"), "seed": seed}

    def keep_as_warm(self, cold: dict, cache_dir: str, megs_seed: int, verified: bool = False) -> None:
        """Keep a cold run's cache and outputs as this source tree's warm cache."""
        warm = os.path.join(STATE, "warm", self.source)
        if os.path.exists(os.path.join(warm, "fill.json")):
            return
        if not verified:
            item = {"out": cold["out"], "exit": cold["exit"], "seed": megs_seed, "cache": cache_dir}
            failures = self.verify(suite=[item])
            if failures:
                raise BenchError("the cold run that fills the warm cache failed its checks: " + "; ".join(failures))
        staging = self.scratch("warm-staging")
        os.makedirs(staging)
        shutil.move(cache_dir, os.path.join(staging, "cache"))
        shutil.move(cold["out"], os.path.join(staging, "outputs"))
        with open(os.path.join(staging, "fill.json"), "w") as fh:
            json.dump({"seed": megs_seed}, fh)
        # Older source trees' caches are of no further use.
        shutil.rmtree(os.path.join(STATE, "warm"), ignore_errors=True)
        os.makedirs(os.path.dirname(warm))
        os.replace(staging, warm)

    def spans_path(self) -> str:
        return os.path.join(STATE, "traces", f"{self.args.workload}.spans.jsonl")

    def round(self, trace: bool = False) -> dict:
        """One round of the workload; returns its measurements and what to check."""
        workload = self.args.workload
        seed = MEGS_SEED if trace else self.args.seed
        if workload == "suite-cold":
            cache = self.scratch("cache")
            r = self.suite_round(cache, seed, trace)
            r["cache_bytes"] = dir_bytes(cache)
            r["check"] = {"suite": [{"out": r["out"], "exit": r["exit"], "seed": seed, "cache": cache}]}
            r["rows"] = count_rows(r["out"])
            r["keep"] = cache
        elif workload == "suite-warm":
            fill = self.fill
            r = self.suite_round(fill["cache"], seed, trace)
            r["cache_bytes"] = dir_bytes(fill["cache"])
            item = {
                "out": r["out"],
                "exit": r["exit"],
                "seed": seed,
                "fill": fill["outputs"],
                "fill_seed": fill["seed"],
            }
            r["check"] = {"suite": [item]}
            r["rows"] = count_rows(r["out"])
        else:
            r = self.deep_round(trace)
            manifest = r.get("manifest", [])
            r["cache_bytes"] = sum(os.path.getsize(e["file"]) for e in manifest)
            r["check"] = {"deep": [manifest]}
            r["rows"] = (r["attempted"], len(r["failed"]))
        if trace:
            r["check"]["orders"] = r["micro_orders"]
        return r

    # -- runs ----------------------------------------------------------------------------

    def run(self) -> dict:
        if self.args.workload == "suite-warm":
            self.fill = self.warm_cache()
        if self.args.trace:
            return self.traced()
        setup = self.setup_s()
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append(self.round())
            elapsed = time.perf_counter() - t0
            if elapsed >= self.args.seconds:
                break
            if self.remaining() < 2 * elapsed / len(rounds) + 30:
                break
        failures = self.check(rounds)
        if not failures and self.args.workload == "suite-cold":
            self.keep_as_warm(rounds[0], rounds[0]["keep"], self.args.seed, verified=True)
        walls = [r["wall_s"] for r in rounds]
        print(f"rounds: {len(rounds)}, wall_s: {' '.join(f'{w:.4f}' for w in walls)}", file=sys.stderr)
        wall = statistics.median(walls)
        if not failures:
            self.record_wall(self.args.workload, wall)
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "cache_bytes": statistics.median(r["cache_bytes"] for r in rounds),
        }
        return self.result(rounds, failures, metrics, "end_to_end")

    def traced(self) -> dict:
        walls = self.recorded_walls(self.args.workload)
        if not walls:
            untraced = self.round()
            failures = self.check([untraced])
            if failures:
                return self.result([untraced], failures, {}, None)
            walls = [untraced["wall_s"]]
            self.record_wall(self.args.workload, untraced["wall_s"])
        r = self.round(trace=True)
        failures = self.check([r])
        metrics = dict(r["layers"], **r["micro"])
        metrics["trace.overhead_s"] = r["wall_s"] - statistics.median(walls)
        return self.result([r], failures, metrics, "per_layer")

    def check(self, rounds) -> list[str]:
        suite, deep, orders = [], [], []
        for r in rounds:
            suite += r["check"].get("suite", [])
            deep += r["check"].get("deep", [])
            orders += r["check"].get("orders", [])
        for r in rounds:
            for line in r.get("failed", []):
                print(f"operation failed: {line}", file=sys.stderr)
        return self.verify(suite, deep, orders)

    def result(self, rounds, failures, metrics, kind) -> dict:
        """The result line; `kind` names the BENCHMARK.json list whose metrics it must hold."""
        attempted = sum(r["rows"][0] for r in rounds)
        failed = sum(r["rows"][1] for r in rounds)
        for line in failures:
            print(f"check failed: {line}", file=sys.stderr)
        units = {}
        if kind:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
            if set(units) != set(metrics):
                raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} are not both measured and declared")
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }

    # -- untraced round times, for the tracing overhead -------------------------------

    def walls_path(self, workload: str) -> str:
        return os.path.join(STATE, "walls", f"{workload}-{self.source}.json")

    def recorded_walls(self, workload: str) -> list[float]:
        try:
            with open(self.walls_path(workload)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return []

    def record_wall(self, workload: str, wall: float) -> None:
        path = self.walls_path(workload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        walls = (self.recorded_walls(workload) + [wall])[-25:]
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(walls, fh)
        os.replace(tmp, path)

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def count_rows(out: str) -> tuple[int, int]:
    """(rows attempted, rows not as predicted) from a suite's JSON report."""
    with open(os.path.join(out, "report.json")) as fh:
        rows = json.load(fh)["rows"]
    return len(rows), sum(not r["report"]["as_predicted"] for r in rows)


def source_digest() -> str:
    """Digest of the program under test, this benchmark and the interpreter."""
    h = hashlib.sha256(sys.version.encode())
    for top, keep in ((SRC, lambda name: not name.endswith(".pyc")), (HERE, lambda name: name.endswith(".py"))):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if keep(name):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:24]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "megs", "__init__.py")):
        print(f"no megs sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        result = runner.run()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
