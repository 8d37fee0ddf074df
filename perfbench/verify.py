"""Checks of megs outputs, made apart from the program's own algorithms.

    python3 perfbench/verify.py '<job as JSON>'

Runs in its own process, after the timed work, so neither its time nor its
memory (sympy in particular) counts toward the figures. megs is used only
for its inputs: parsing a datum, the generators' labels, the suite plan.
Every output is checked by another route:

- Chains are read from their JSON files directly, not through
  `ChainStore`. Their representatives are turned into leaf permutations
  here, and a fresh echelon basis per level is built from them. That
  basis must have the stored dimensions, and sifting through it (with
  this module's own composition) decides membership.
- Orders of full and derived chains are compared with sympy's
  Schreier-Sims on the generators' leaf permutations, for p = 3 up to
  n = 4 and p = 5 up to n = 3. sympy's answers are cached under the
  benchmark's state directory, keyed by the generators, so the oracle
  runs once per checkout; they do not depend on megs' results.
- For a single non-symmetric GGS vector e, log_p |Q_n| = t p^(n-2) + 1,
  where t is the rank over F_p of the circulant matrix of
  (e_1, ..., e_{p-1}, 0) (Fernandez-Alcober and Zugadi-Reizabal, Trans.
  AMS 2014).
- gamma3 <= derived <= full, checked by sifting pivots, and
  |full : derived| = p^(1+r) for linearly independent vectors (n >= 3).
- Every p-th power and commutator of a full chain's pivots sifts, so the
  pivots' products form a group and no pivot is missing.
- The suite exits 0, every row ends as its classification predicts, and
  a warm run's stdout and JSON report are byte-identical to those of the
  cold run that filled its cache, once the seed it was given is put back.
"""

import hashlib
import json
import math
import os
import sys

import numpy as np

SYMPY_DEPTH = {3: 4, 5: 3}  # deepest level where Schreier-Sims takes seconds


# -- elements as leaf permutations --------------------------------------------------


def labels_to_perm(p: int, n: int, labels) -> np.ndarray:
    """Leaf permutation of a portrait given by its breadth-first labels."""
    labels = np.asarray(labels, dtype=np.int64)
    img = np.zeros(1, dtype=np.int64)
    digits = np.arange(p, dtype=np.int64)
    start = 0
    for level in range(n):
        lab = labels[start : start + p**level]
        img = (img[:, None] * p + (digits[None, :] + lab[:, None]) % p).ravel()
        start += p**level
    return img


def level_labels(perm: np.ndarray, p: int, n: int, d: int) -> np.ndarray:
    """Rotation labels at level d: the image of each vertex's first child."""
    first_leaves = np.arange(p**d, dtype=np.int64) * p ** (n - d)
    return (perm[first_leaves] // p ** (n - d - 1)) % p


def perm_to_labels(perm: np.ndarray, p: int, n: int) -> tuple[int, ...]:
    return tuple(int(x) for d in range(n) for x in level_labels(perm, p, n, d))


def compose(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x first, then y (automorphisms act on the right)."""
    return y[x]


def inverse(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    out[x] = np.arange(x.size, dtype=x.dtype)
    return out


def power(x: np.ndarray, e: int) -> np.ndarray:
    out = np.arange(x.size, dtype=x.dtype)
    for _ in range(e):
        out = compose(out, x)
    return out


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return compose(compose(compose(inverse(x), inverse(y)), x), y)


class PermChain:
    """Level-by-level echelon basis rebuilt from a chain's representatives."""

    def __init__(self, p: int, n: int, reps_by_level):
        self.p, self.n = p, n
        self.basis: list[list[tuple[int, np.ndarray, list[np.ndarray]]]] = [[] for _ in range(n)]
        self.problems: list[str] = []
        for d, reps in enumerate(reps_by_level):
            for rep in reps:
                if any(level_labels(rep, p, n, e).any() for e in range(d)):
                    self.problems.append(f"a level-{d} representative moves a vertex above level {d}")
                    continue
                residual = self._reduce(rep, d)
                v = level_labels(residual, p, n, d)
                if not v.any():
                    self.problems.append(f"a level-{d} representative depends on the others")
                    continue
                col = int(np.flatnonzero(v)[0])
                s = pow(int(v[col]), -1, p)
                elem = power(residual, s)
                inv = inverse(elem)
                inv_powers = [inv]
                for _ in range(p - 2):
                    inv_powers.append(compose(inv_powers[-1], inv))
                self.basis[d].append((col, (v * s) % p, inv_powers))

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)

    def _reduce(self, g: np.ndarray, d: int) -> np.ndarray:
        v = level_labels(g, self.p, self.n, d)
        for col, row, inv_powers in self.basis[d]:
            c = int(v[col])
            if c:
                g = compose(inv_powers[c - 1], g)
                v = (v - c * row) % self.p
        return g

    def contains(self, g: np.ndarray) -> bool:
        for d in range(self.n):
            g = self._reduce(g, d)
            if level_labels(g, self.p, self.n, d).any():
                return False
        return bool((g == np.arange(g.size)).all())


def read_chain(path: str) -> dict:
    """A chain file as megs writes it: p, depth, gens and per-level [col, row, rep]."""
    with open(path) as fh:
        data = json.load(fh)
    p, n = int(data["p"]), int(data["depth"])
    reps = [[labels_to_perm(p, n, rep) for _, _, rep in level] for level in data["levels"]]
    return {
        "p": p,
        "n": n,
        "gens": tuple(tuple(g) for g in data["gens"]),
        "reps": reps,
        "dims": tuple(len(level) for level in data["levels"]),
    }


# -- independent figures ---------------------------------------------------------------


def rank_mod(rows, p: int) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] % p:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def ggs_order_exponent(vector, p: int, n: int) -> int:
    """log_p |Q_n| for a GGS group with non-symmetric defining vector, n >= 2."""
    row = list(vector) + [0]
    circulant = [row[-k:] + row[:-k] for k in range(p)]
    return rank_mod(circulant, p) * p ** (n - 2) + 1


def is_symmetric(vector, p: int) -> bool:
    return all(vector[k - 1] == vector[p - k - 1] for k in range(1, p))


class SympyOracle:
    """Orders of <gens> and of its derived subgroup by Schreier-Sims, cached on disk."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir

    def exponents(self, p: int, perms) -> tuple[int, int]:
        key = hashlib.sha256(b"".join(np.asarray(x, dtype=np.int64).tobytes() for x in perms)).hexdigest()
        path = os.path.join(self.cache_dir, f"{key[:32]}.json")
        if os.path.exists(path):
            with open(path) as fh:
                cached = json.load(fh)
            return cached["full"], cached["derived"]
        from sympy.combinatorics import Permutation, PermutationGroup

        group = PermutationGroup([Permutation([int(i) for i in x]) for x in perms])
        full = _log_p(group.order(), p)
        derived = _log_p(group.derived_subgroup().order(), p)
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump({"full": full, "derived": derived}, fh)
        os.replace(tmp, path)
        return full, derived


def _log_p(order: int, p: int) -> int:
    e = round(math.log(order, p))
    if p**e != order:
        raise ValueError(f"order {order} is not a power of {p}")
    return e


# -- checks ------------------------------------------------------------------------------


class Checker:
    def __init__(self, src: str, oracle_dir: str):
        sys.path.insert(0, src)
        import megs
        from megs.datum import generator_portraits

        self.megs = megs
        self._generator_portraits = generator_portraits
        self.oracle = SympyOracle(oracle_dir)
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    def generators(self, text: str, n: int) -> list[np.ndarray]:
        datum = self.megs.NumericalDatum.from_text(text)
        perms = []
        for name, g in self._generator_portraits(datum, n).items():
            perm = labels_to_perm(datum.p, n, g.labels)
            self.expect(
                np.array_equal(perm, g.leaf_permutation()),
                f"{text}: leaf permutation of {name} at n={n} differs from megs' own",
            )
            perms.append(perm)
        return perms

    def datum_facts(self, text: str) -> dict:
        datum = self.megs.NumericalDatum.from_text(text)
        vectors = datum.all_vectors()
        return {
            "p": datum.p,
            "r": len(vectors),
            "independent": rank_mod(vectors, datum.p) == len(vectors),
            "ggs": vectors[0] if len(vectors) == 1 and not is_symmetric(vectors[0], datum.p) else None,
        }

    # -- chains --------------------------------------------------------------------

    def check_chains(self, text: str, chains: dict, gens: list[np.ndarray], closure: bool = False) -> None:
        """chains: descriptor -> chain read by read_chain, all at one depth.

        With `closure`, also sift every p-th power and commutator of the full
        chain's pivots: then its elements form a group, so no pivot is missing.
        """
        facts = self.datum_facts(text)
        p = facts["p"]
        built = {}
        for descriptor, chain in chains.items():
            n = chain["n"]
            pc = PermChain(p, n, chain["reps"])
            where = f"{text} {descriptor} n={n}"
            self.expect(not pc.problems, f"{where}: {'; '.join(pc.problems)}")
            self.expect(pc.dims() == chain["dims"], f"{where}: rebuilt dims {pc.dims()} != stored {chain['dims']}")
            built[descriptor] = pc
        n = next(iter(chains.values()))["n"]
        full, derived, gamma3 = built.get("full"), built.get("derived"), built.get("gamma3")
        if full is not None:
            self.expect(all(full.contains(g) for g in gens), f"{text} full n={n}: a generator does not sift")
            if closure:
                self.expect(is_closed(full, _reps(chains["full"])), f"{text} full n={n}: the pivots do not close")
            exp = sum(chains["full"]["dims"])
            if facts["ggs"] is not None and n >= 2:
                want = ggs_order_exponent(facts["ggs"], p, n)
                self.expect(exp == want, f"{text} full n={n}: order exponent {exp}, circulant formula {want}")
        if derived is not None:
            comms = [commutator(gens[i], gens[j]) for i in range(len(gens)) for j in range(i + 1, len(gens))]
            self.expect(all(derived.contains(c) for c in comms), f"{text} derived n={n}: a commutator does not sift")
        if full is not None and derived is not None:
            self.expect(
                all(full.contains(x) for x in _reps(chains["derived"])),
                f"{text} n={n}: a derived pivot is not in the full chain",
            )
            index = sum(chains["full"]["dims"]) - sum(chains["derived"]["dims"])
            if facts["independent"] and n >= 3:
                self.expect(index == 1 + facts["r"], f"{text} n={n}: |full : derived| = p^{index}, want p^{1 + facts['r']}")
        if derived is not None and gamma3 is not None:
            self.expect(
                all(derived.contains(x) for x in _reps(chains["gamma3"])),
                f"{text} n={n}: a gamma3 pivot is not in the derived chain",
            )

    def check_sympy(self, text: str, n: int, full_exp: int | None, derived_exp: int | None) -> None:
        p = self.datum_facts(text)["p"]
        if n > SYMPY_DEPTH.get(p, 0):
            return
        want_full, want_derived = self.oracle.exponents(p, self.generators(text, n))
        if full_exp is not None:
            self.expect(full_exp == want_full, f"{text} n={n}: full order p^{full_exp}, Schreier-Sims p^{want_full}")
        if derived_exp is not None:
            self.expect(
                derived_exp == want_derived, f"{text} n={n}: derived order p^{derived_exp}, Schreier-Sims p^{want_derived}"
            )

    def check_cache(self, cache_dir: str) -> None:
        """Find the full, derived and gamma3 chains of the suite data in a cache and check them."""
        by_gens = {}
        files = sorted(os.listdir(cache_dir))
        chains = [read_chain(os.path.join(cache_dir, f)) for f in files if f.endswith(".json")]
        # At n = 1 the directed generators are trivial, so data cannot be told apart.
        depths = sorted({c["n"] for c in chains if c["n"] >= 2})
        gens_at = {}
        for _, text in self.megs.SUITE_DATA:
            p = self.datum_facts(text)["p"]
            for n in depths:
                gens = self.generators(text, n)
                gens_at[text, n] = gens
                comms = [commutator(gens[i], gens[j]) for i in range(len(gens)) for j in range(i + 1, len(gens))]
                for descriptor, elems in (("full", gens), ("derived", comms)):
                    key = (p, n, tuple(perm_to_labels(g, p, n) for g in elems))
                    by_gens[key] = None if key in by_gens else (text, descriptor)
        found: dict[tuple[str, int], dict] = {}
        for chain in chains:
            hit = by_gens.get((chain["p"], chain["n"], chain["gens"]))
            if hit:
                found.setdefault((hit[0], chain["n"]), {})[hit[1]] = chain
        for (text, n), group in found.items():
            if "derived" in group:
                gens = gens_at[text, n]
                seeds = [commutator(x, g) for x in _reps(group["derived"]) for g in gens]
                key = tuple(perm_to_labels(s, group["derived"]["p"], n) for s in seeds)
                for chain in chains:
                    if chain["n"] == n and chain["gens"] == key:
                        group["gamma3"] = chain
            self.check_chains(text, group, gens_at[text, n], closure=True)
            self.check_sympy(
                text,
                n,
                sum(group["full"]["dims"]) if "full" in group else None,
                sum(group["derived"]["dims"]) if "derived" in group else None,
            )
        self.expect(bool(found), f"{cache_dir}: no full or derived chain of a suite datum found")

    # -- workloads ----------------------------------------------------------------------

    def check_suite_outputs(self, out_dir: str, exit_code: int, seed: int) -> None:
        plan = self.megs.suite_plan()
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(out_dir, "stdout.txt")) as fh:
            lines = fh.read().splitlines()
        total = len(plan)
        self.expect(exit_code == 0, f"{out_dir}: megs suite exited {exit_code}")
        rows = report["rows"]
        self.expect(len(rows) == total, f"{out_dir}: {len(rows)} rows, plan has {total}")
        self.expect(
            [(r["name"], r["report"]["check"]) for r in rows] == [(name, check) for name, _, check, _ in plan],
            f"{out_dir}: rows differ from the suite plan",
        )
        bad = [
            f"{r['name']} {r['report']['check']}"
            for r in rows
            if r["report"]["expected"] is None or r["report"]["verdict"] != r["report"]["expected"]
        ]
        self.expect(not bad, f"{out_dir}: rows not as predicted: {', '.join(bad)}")
        self.expect(report["seed"] == seed, f"{out_dir}: report seed {report['seed']}, want {seed}")
        self.expect(lines[0] == f"suite: {total} checks, seed {seed}", f"{out_dir}: header {lines[0]!r}")
        self.expect(
            lines[-1] == f"summary: {total} of {total} checks as predicted", f"{out_dir}: summary {lines[-1]!r}"
        )

    def check_same_as_fill(self, out_dir: str, seed: int, fill_dir: str, fill_seed: int) -> None:
        for name in ("stdout.txt", "report.json"):
            with open(os.path.join(fill_dir, name), "rb") as fh:
                want = reseed(fh.read(), fill_seed, seed)
            with open(os.path.join(out_dir, name), "rb") as fh:
                got = fh.read()
            self.expect(got == want, f"{out_dir}/{name} differs from the cold run that filled the cache")

    def check_deep(self, manifest: list[dict]) -> None:
        by_datum: dict[str, dict] = {}
        for entry in manifest:
            by_datum.setdefault(entry["datum"], {})[entry["descriptor"]] = read_chain(entry["file"])
        for text, group in by_datum.items():
            n = next(iter(group.values()))["n"]
            self.check_chains(text, group, self.generators(text, n), closure=True)
            # Q_4 is the image of Q_5, and the image of a chain's group keeps
            # the upper layers, so Schreier-Sims at n - 1 checks them.
            m = n - 1
            self.check_sympy(
                text,
                m,
                sum(group["full"]["dims"][:m]) if "full" in group else None,
                sum(group["derived"]["dims"][:m]) if "derived" in group else None,
            )

    def check_orders(self, orders: list[dict]) -> None:
        for entry in orders:
            facts = self.datum_facts(entry["datum"])
            want = ggs_order_exponent(facts["ggs"], facts["p"], entry["level"])
            self.expect(entry["exponent"] == want, f"{entry['datum']} n={entry['level']}: p^{entry['exponent']}, formula p^{want}")


def is_closed(chain: PermChain, pivots) -> bool:
    if not all(chain.contains(power(x, chain.p)) for x in pivots):
        return False
    return all(chain.contains(commutator(x, y)) for i, x in enumerate(pivots) for y in pivots[:i])


def _reps(chain: dict):
    return [rep for level in chain["reps"] for rep in level]


def reseed(text: bytes, old: int, new: int) -> bytes:
    """Put another --seed into suite output: the header line and the JSON "seed" fields."""
    old_b, new_b = str(old).encode(), str(new).encode()
    out = []
    for line in text.split(b"\n"):
        if line.startswith(b"suite: ") and line.endswith(b", seed " + old_b):
            line = line[: -len(old_b)] + new_b
        elif line.strip() in (b'"seed": ' + old_b + b",", b'"seed": ' + old_b):
            line = line.replace(old_b, new_b)
        out.append(line)
    return b"\n".join(out)


def main() -> int:
    job = json.loads(sys.argv[1])
    checker = Checker(job["src"], job["oracle_dir"])
    for item in job["suite"]:
        checker.check_suite_outputs(item["out"], item["exit"], item["seed"])
        if item.get("cache"):
            checker.check_cache(item["cache"])
        if item.get("fill"):
            checker.check_same_as_fill(item["out"], item["seed"], item["fill"], item["fill_seed"])
    for manifest in job["deep"]:
        checker.check_deep(manifest)
    checker.check_orders(job["orders"])
    with open(job["result"], "w") as fh:
        json.dump({"passed": checker.passed, "failures": checker.failures}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
