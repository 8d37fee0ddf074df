"""Layer trace for megs, installed from outside the package.

`Tracer.install()` replaces the public functions and methods of each
`megs` module with timing wrappers. A wrapper goes wherever callers look
the name up: on the class for methods, and in every `megs.*` module
namespace that holds the original function (the package imports many
names with `from .x import y`). Nothing under `src/` is edited.

Every wrapped call takes part in one nesting stack, so self time is the
call's duration minus the time of the wrapped calls it made (`__pow__`,
`conj` and `commutator` call `__mul__`; `gamma3` builds `derived`).
Calls above the portrait operations are also kept as spans in memory
(name, start, end, parent index) and written once, by `write_spans`.
Portrait operations are too many to keep one by one (millions on the cold
suite), so they are folded into call counts and self times only.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (layer name, module, attribute, kind). A dotted attribute is a method and is
# patched on its class; a plain one is patched in every megs module holding it.
# The kind selects what the wrapper counts besides calls and time.
TARGETS = (
    ("portraits.mul", "portraits", "Portrait.__mul__", "op"),
    ("portraits.inv", "portraits", "Portrait.__invert__", "op"),
    ("portraits.pow", "portraits", "Portrait.__pow__", "op"),
    ("chains.sift", "chains", "SubgroupChain.sift", "sift"),
    ("chains.close", "chains", "close_chain", "close"),
    ("chains.section", "chains", "section_chain", "span"),
    ("chains.block_product", "chains", "block_product_chain", "span"),
    ("store.get_or_build", "chains", "ChainStore.get_or_build", "store"),
    ("checks.run_check", "checks", "run_check", "check"),
    ("checks.run_suite", "checks", "run_suite", "span"),
    ("words.evaluate", "words", "evaluate", "span"),
    ("words.evaluate_branch", "words", "evaluate_branch", "span"),
    ("words.is_trivial", "words", "is_trivial", "span"),
    ("datum.classify", "datum", "classify", "span"),
    ("datum.generator_portraits", "datum", "generator_portraits", "span"),
    ("fp.row_echelon", "fp", "row_echelon", "span"),
    ("cli.main", "cli", "main", "span"),
)


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {name: _Stat() for name, *_ in TARGETS}
        self.stack: list[list[float]] = []  # one [child seconds] cell per open call
        self.spans: list = []
        self.open_spans: list[int] = []
        self.counts = {
            "chains.closure_sifts": 0,
            "chains.member_sifts": 0,
            "chains.pivots": 0,
            "checks.rows": 0,
            "store.requests": 0,
            "store.mem_hits": 0,
            "store.disk_loads": 0,
            "store.builds": 0,
            "store.written_bytes": 0,
        }
        self.times = {"store.load_s": 0.0, "store.build_s": 0.0}
        self.check_s: dict[str, float] = {}
        self._builds_open = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn, record: bool, before=None, after=None):
        stat = self.stats[name]
        stack = self.stack
        spans = self.spans
        open_spans = self.open_spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            stat.active += 1
            if record:
                idx = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(idx)
            state = None
            if before:
                state, args, kwargs = before(args, kwargs)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - cell[0]
                if not stat.active:
                    stat.incl_s += dt
                if record:
                    open_spans.pop()
                    spans[idx] = (name, t0, t1, parent)
            if after:
                after(args, kwargs, state, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _sift_before(self, args, kwargs):
        if self.stats["chains.close"].active:
            self.counts["chains.closure_sifts"] += 1
        else:
            self.counts["chains.member_sifts"] += 1
        return None, args, kwargs

    def _close_after(self, args, kwargs, state, chain, dt):
        self.counts["chains.pivots"] += chain.order_exponent()

    def _check_after(self, args, kwargs, state, report, dt):
        check = args[0] if args else kwargs["name"]
        if not self.stats["checks.run_check"].active:
            self.check_s[check] = self.check_s.get(check, 0.0) + dt
        if self.stats["checks.run_suite"].active:
            self.counts["checks.rows"] += 1

    def _store_before(self, args, kwargs):
        """Swap in a builder that records whether get_or_build had to build."""
        store = args[0]
        builder = args[4] if len(args) > 4 else kwargs["builder"]
        flags = {"built": False, "mem": len(store.mem), "bytes": None}

        def traced_builder():
            flags["built"] = True
            top = self._builds_open == 0
            if top and store.cache_dir:
                flags["bytes"] = dir_bytes(store.cache_dir)
            self._builds_open += 1
            t0 = time.perf_counter()
            try:
                return builder()
            finally:
                self._builds_open -= 1
                if top:
                    self.times["store.build_s"] += time.perf_counter() - t0

        if len(args) > 4:
            args = args[:4] + (traced_builder,) + args[5:]
        else:
            kwargs = dict(kwargs, builder=traced_builder)
        return flags, args, kwargs

    def _store_after(self, args, kwargs, flags, chain, dt):
        store = args[0]
        self.counts["store.requests"] += 1
        if flags["built"]:
            self.counts["store.builds"] += 1
            if flags["bytes"] is not None:
                self.counts["store.written_bytes"] += dir_bytes(store.cache_dir) - flags["bytes"]
        elif len(store.mem) > flags["mem"]:
            self.counts["store.disk_loads"] += 1
            self.times["store.load_s"] += dt
        else:
            self.counts["store.mem_hits"] += 1

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        import megs.cli  # noqa: F401  (with the package, loads every module)

        modules = [m for k, m in sys.modules.items() if k == "megs" or k.startswith("megs.")]
        for name, modname, attr, kind in TARGETS:
            module = sys.modules[f"megs.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._make(name, kind, orig)
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._make(name, kind, orig)
            for m in modules:
                if m.__dict__.get(attr) is orig:
                    setattr(m, attr, wrapped)
                    self._restore.append((m, attr, orig))

    def _make(self, name: str, kind: str, fn):
        if kind == "op":
            return self._wrap(name, fn, record=False)
        if kind == "sift":
            return self._wrap(name, fn, record=True, before=self._sift_before)
        if kind == "close":
            return self._wrap(name, fn, record=True, after=self._close_after)
        if kind == "check":
            return self._wrap(name, fn, record=True, after=self._check_after)
        if kind == "store":
            return self._wrap(name, fn, record=True, before=self._store_before, after=self._store_after)
        return self._wrap(name, fn, record=True)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self, check_names) -> dict[str, float]:
        s = self.stats
        out: dict[str, float] = {}
        for op in ("mul", "inv", "pow"):
            out[f"portraits.{op}.calls"] = s[f"portraits.{op}"].calls
            out[f"portraits.{op}.self_s"] = s[f"portraits.{op}"].self_s
        out["chains.close.calls"] = s["chains.close"].calls
        out["chains.close.self_s"] = s["chains.close"].self_s
        out["chains.sift.calls"] = s["chains.sift"].calls
        out["chains.sift.self_s"] = s["chains.sift"].self_s
        out["chains.closure_sifts"] = self.counts["chains.closure_sifts"]
        out["chains.member_sifts"] = self.counts["chains.member_sifts"]
        out["chains.pivots"] = self.counts["chains.pivots"]
        sifts = self.counts["chains.closure_sifts"]
        out["chains.pivot_yield"] = self.counts["chains.pivots"] / sifts if sifts else 0.0
        for key in ("section", "block_product"):
            out[f"chains.{key}.calls"] = s[f"chains.{key}"].calls
            out[f"chains.{key}.s"] = s[f"chains.{key}"].incl_s
        for key in ("requests", "mem_hits", "disk_loads", "builds"):
            out[f"store.{key}"] = self.counts[f"store.{key}"]
        out["store.load_s"] = self.times["store.load_s"]
        out["store.build_s"] = self.times["store.build_s"]
        out["store.written_bytes"] = self.counts["store.written_bytes"]
        out["checks.rows"] = self.counts["checks.rows"]
        for check in check_names:
            out[f"checks.{check}.s"] = self.check_s.get(check, 0.0)
        for key in ("evaluate", "evaluate_branch", "is_trivial"):
            out[f"words.{key}.calls"] = s[f"words.{key}"].calls
            out[f"words.{key}.s"] = s[f"words.{key}"].incl_s
        out["datum.classify.calls"] = s["datum.classify"].calls
        out["datum.classify.s"] = s["datum.classify"].incl_s
        out["datum.generator_portraits.s"] = s["datum.generator_portraits"].incl_s
        out["fp.row_echelon.calls"] = s["fp.row_echelon"].calls
        out["fp.row_echelon.s"] = s["fp.row_echelon"].incl_s
        out["cli.self_s"] = s["cli.main"].incl_s - s["checks.run_suite"].incl_s
        return out

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines: index, name, start, end, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": t0, "end": t1, "parent": parent}))
                fh.write("\n")
        os.replace(tmp, path)


def dir_bytes(path: str) -> int:
    """Total size of the regular files directly in a directory."""
    with os.scandir(path) as it:
        return sum(entry.stat().st_size for entry in it if entry.is_file())
