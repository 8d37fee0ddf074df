"""Exact subgroup computations in congruence quotients via the level filtration.

An element of the depth-n quotient is a portrait. For a subgroup H and each
level d, the label rows at level d of the elements of H that fix the tree to
depth d form a linear code over F_p, because the level-d labels are additive
on that stabilizer. A chain holds one echelon basis per level together with a
representative element per basis row. Sifting an element reduces its label
rows level by level with representative multiplications; membership and exact
orders (p to the sum of the level dimensions) follow.

Chains are built by a worklist closure: inserting a pivot enqueues its p-th
power, its commutators with the existing pivots, and, for normal closures,
its conjugates by the designated conjugating elements. The worklist order is
fixed, so construction is deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from itertools import product as iter_product

import numpy as np

from .datum import NumericalDatum, generator_portraits
from .portraits import Portrait, commutator, level_offsets


class ChainError(RuntimeError):
    """Internal inconsistency in a chain computation."""


class DegreeGuardError(ChainError):
    """The requested quotient degree exceeds the configured guard."""


class SubgroupChain:
    """Level-filtration stabilizer chain of a subgroup of a depth-n quotient."""

    __slots__ = ("p", "depth", "levels", "gens")

    def __init__(self, p: int, depth: int, gens: tuple[Portrait, ...] = ()):
        self.p = p
        self.depth = depth
        self.levels: list[list[tuple[int, np.ndarray, Portrait]]] = [[] for _ in range(depth)]
        self.gens = tuple(gens)

    # -- measures -----------------------------------------------------------

    def dims(self) -> tuple[int, ...]:
        return tuple(len(lv) for lv in self.levels)

    def order_exponent(self) -> int:
        return sum(len(lv) for lv in self.levels)

    def order(self) -> int:
        return self.p ** self.order_exponent()

    def pivots(self) -> list[Portrait]:
        return [rep for lv in self.levels for (_, _, rep) in lv]

    def pivot_levels(self) -> list[tuple[int, Portrait]]:
        return [(d, rep) for d, lv in enumerate(self.levels) for (_, _, rep) in lv]

    # -- membership -----------------------------------------------------------

    def sift(self, g: Portrait) -> tuple[int | None, Portrait]:
        """Reduce g level by level. Returns (failing level or None, residual)."""
        p = self.p
        residual = g
        for d in range(self.depth):
            block = residual.level_labels(d)
            if not block.any():
                continue
            v = block.astype(np.int64) % p
            for col, row, rep in self.levels[d]:
                c = int(v[col])
                if c:
                    v = (v - c * row) % p
                    residual = rep ** (-c) * residual
            if v.any():
                return d, residual
        if not residual.is_identity():
            raise ChainError("residual reduced at all levels but is not the identity")
        return None, residual

    def contains(self, g: Portrait) -> bool:
        return self.sift(g)[0] is None

    def contains_chain(self, other: "SubgroupChain") -> tuple[bool, Portrait | None]:
        """Whether every pivot of `other` sifts into this chain."""
        for piv in other.pivots():
            if not self.contains(piv):
                return False, piv
        return True, None

    def _insert(self, residual: Portrait, d: int) -> Portrait:
        p = self.p
        v = residual.level_labels(d).astype(np.int64) % p
        col = int(np.flatnonzero(v)[0])
        s = pow(int(v[col]), -1, p)
        rep = residual ** s
        row = (v * s) % p
        self.levels[d].append((col, row, rep))
        return rep

    def elements(self, limit: int = 200000):
        """All elements as portraits (staircase normal forms); guarded by `limit`."""
        if self.order() > limit:
            raise ChainError(f"enumeration of {self.order()} elements exceeds limit {limit}")
        elems = [Portrait.identity(self.p, self.depth)]
        for rep in self.pivots():
            powers = [Portrait.identity(self.p, self.depth)]
            for _ in range(self.p - 1):
                powers.append(powers[-1] * rep)
            elems = [e * q for e in elems for q in powers]
        return elems


def close_chain(
    p: int,
    depth: int,
    seeds,
    conjugators: tuple[Portrait, ...] = (),
    gens: tuple[Portrait, ...] | None = None,
) -> SubgroupChain:
    """Chain of the subgroup generated by the seeds, closed under the conjugators."""
    seeds = list(seeds)
    chain = SubgroupChain(p, depth, gens=tuple(gens) if gens is not None else tuple(seeds))
    queue = deque(seeds)
    while queue:
        g = queue.popleft()
        d, residual = chain.sift(g)
        if d is None:
            continue
        rep = chain._insert(residual, d)
        if d + 1 < depth:
            queue.append(rep ** p)
        for e, other in chain.pivot_levels():
            if other is rep:
                continue
            if max(d, e) + (1 if d == e else 0) < depth:
                queue.append(commutator(rep, other))
        for c in conjugators:
            queue.append(rep.conj(c))
            queue.append(rep.conj(~c))
    return chain


def level_kernel_chain(chain: SubgroupChain, k: int) -> SubgroupChain:
    """Sub-chain of the elements trivial to depth k (levels below k dropped)."""
    if not 0 <= k <= chain.depth:
        raise ChainError(f"kernel level {k} outside 0..{chain.depth}")
    out = SubgroupChain(chain.p, chain.depth)
    for d in range(k, chain.depth):
        out.levels[d] = list(chain.levels[d])
    out.gens = tuple(out.pivots())
    return out


def section_chain(chain: SubgroupChain, vertex: tuple[int, ...]) -> SubgroupChain:
    """Chain of the sections at `vertex` of the stabilizer of `vertex` in the chain group."""
    p, depth = chain.p, chain.depth
    k = len(vertex)
    if not 0 < k <= depth:
        raise ChainError(f"vertex length {k} outside 1..{depth}")
    pivots = chain.pivots()
    vertex = tuple(vertex)
    orbit: dict[tuple[int, ...], Portrait] = {vertex: Portrait.identity(p, depth)}
    frontier = [vertex]
    while frontier:
        v = frontier.pop(0)
        t = orbit[v]
        for g in pivots:
            w = g.act(v)
            if w not in orbit:
                orbit[w] = t * g
                frontier.append(w)
    if len(orbit) == 1:
        stab_gens = pivots
    else:
        stab_gens = []
        for v, t in orbit.items():
            for g in pivots:
                w = g.act(v)
                stab_gens.append(t * g * ~orbit[w])
    seeds = []
    seen = set()
    for s in stab_gens:
        sec = s.section(vertex)
        if sec.is_identity() or sec in seen:
            continue
        seen.add(sec)
        seeds.append(sec)
    return close_chain(p, depth - k, seeds)


def embed_pivots(p: int, depth: int, vertex: tuple[int, ...], sub: SubgroupChain) -> list[Portrait]:
    """Pivots of a smaller-depth chain embedded below a vertex, identity elsewhere."""
    return [Portrait.embed(p, depth, vertex, piv) for piv in sub.pivots()]


def block_product_chain(p: int, depth: int, k: int, sub: SubgroupChain) -> SubgroupChain:
    """Chain generated by copies of `sub` planted below every depth-k vertex."""
    seeds = []
    for vertex in iter_product(range(1, p + 1), repeat=k):
        seeds.extend(embed_pivots(p, depth, vertex, sub))
    return close_chain(p, depth, seeds)


# -- persistent store -----------------------------------------------------------


CACHE_FORMAT = 2


class ChainStore:
    """Memoizes chains in memory and, when given a directory, on disk as JSON.

    A file is used only when it has the current format, the requested p and
    depth, a digest that matches its generators and levels, and levels whose
    rows and representatives agree; any other file is rebuilt and replaced.
    """

    def __init__(self, cache_dir: str | None = None):
        self.cache_dir = cache_dir
        self.mem: dict[tuple[str, int, str], SubgroupChain] = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def _path(self, datum: NumericalDatum, level: int, descriptor: str) -> str:
        digest = hashlib.sha256(
            f"{datum.to_text()}|{level}|{descriptor}".encode()
        ).hexdigest()[:32]
        return os.path.join(self.cache_dir, f"chain-{digest}.json")

    def get_or_build(self, datum: NumericalDatum, level: int, descriptor: str, builder) -> SubgroupChain:
        key = (datum.to_text(), level, descriptor)
        if key in self.mem:
            return self.mem[key]
        chain = None
        path = self._path(datum, level, descriptor) if self.cache_dir else None
        if path and os.path.exists(path):
            try:
                with open(path) as fh:
                    chain = _chain_from_dict(json.load(fh), datum.p, level)
            except (ValueError, KeyError, TypeError, IndexError, OSError):
                chain = None
        if chain is None:
            chain = builder()
            if path:
                _write_atomic(path, _chain_to_dict(chain))
        self.mem[key] = chain
        return chain


def _write_atomic(path: str, payload: dict) -> None:
    """Write JSON to a temporary file beside `path`, then move it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def chain_digest(chain: SubgroupChain) -> str:
    """sha256 over the generators' labels and every pivot's column, row and labels.

    It hashes the arrays rather than their JSON text, so checking a file
    costs no second encoding of it.
    """
    h = hashlib.sha256(f"gens {len(chain.gens)}".encode())
    for g in chain.gens:
        h.update(g.labels.tobytes())
    for d, lv in enumerate(chain.levels):
        h.update(f"level {d}: {len(lv)}".encode())
        for col, row, rep in lv:
            h.update(f"col {col}".encode())
            h.update(row.tobytes())
            h.update(rep.labels.tobytes())
    return h.hexdigest()


def _chain_to_dict(chain: SubgroupChain) -> dict:
    return {
        "v": CACHE_FORMAT,
        "p": chain.p,
        "depth": chain.depth,
        "gens": [g.labels.tolist() for g in chain.gens],
        "levels": [
            [[col, row.tolist(), rep.labels.tolist()] for (col, row, rep) in lv]
            for lv in chain.levels
        ],
        "sha256": chain_digest(chain),
    }


def _chain_from_dict(data: dict, p: int, depth: int) -> SubgroupChain:
    """The chain a cache file holds; ValueError when the file fails a check."""
    if data["v"] != CACHE_FORMAT or data["p"] != p or data["depth"] != depth:
        raise ValueError("cache file has another format, p or depth")
    if len(data["levels"]) != depth:
        raise ValueError("cache file has the wrong number of levels")
    chain = SubgroupChain(
        p, depth, gens=tuple(Portrait(p, depth, g) for g in data["gens"])
    )
    offs = level_offsets(p, depth)
    for d, lv in enumerate(data["levels"]):
        for col, row, rep in lv:
            row = np.array(row, dtype=np.int64)
            rep = Portrait(p, depth, rep)
            # _insert stores the level-d labels of a representative that fixes
            # the tree to depth d, scaled so the pivot column holds 1.
            if (
                rep.labels[: offs[d]].any()
                or not np.array_equal(rep.level_labels(d), row)
                or not 0 <= col < row.size
                or row[col] != 1
            ):
                raise ValueError(f"cache file level {d} has an inconsistent pivot")
            chain.levels[d].append((int(col), row, rep))
    if data["sha256"] != chain_digest(chain):
        raise ValueError("cache file digest does not match its contents")
    return chain


# -- congruence quotients ---------------------------------------------------------


DEFAULT_DEGREE_GUARD = 20000


class FiniteQuotient:
    """The image of the datum's group acting on the depth-n truncated tree."""

    def __init__(
        self,
        datum: NumericalDatum,
        level: int,
        degree_guard: int = DEFAULT_DEGREE_GUARD,
        store: ChainStore | None = None,
    ):
        datum.require_valid()
        if level < 0:
            raise ChainError(f"level must be nonnegative, got {level}")
        if datum.p ** level > degree_guard:
            raise DegreeGuardError(
                f"degree {datum.p ** level} exceeds the guard {degree_guard}"
            )
        self.datum = datum
        self.level = level
        self.store = store if store is not None else ChainStore()
        self.gens = generator_portraits(datum, level)
        self.gen_list = tuple(self.gens.values())

    # -- chain accessors -----------------------------------------------------

    def chain(self, descriptor: str) -> SubgroupChain:
        return self.store.get_or_build(
            self.datum, self.level, descriptor, lambda: self._build(descriptor)
        )

    def _build(self, descriptor: str) -> SubgroupChain:
        p, n = self.datum.p, self.level
        if descriptor == "full":
            return close_chain(p, n, self.gen_list, gens=self.gen_list)
        if descriptor == "derived":
            return derived_chain(p, n, self.gen_list)
        if descriptor == "gamma3":
            d = self.chain("derived")
            seeds = [commutator(x, g) for x in d.pivots() for g in self.gen_list]
            return close_chain(p, n, seeds, conjugators=self.gen_list)
        if descriptor == "second-derived":
            d = self.chain("derived")
            return derived_chain(p, n, tuple(d.pivots()))
        if descriptor.startswith("kernel:"):
            k = int(descriptor.split(":", 1)[1])
            return level_kernel_chain(self.chain("full"), k)
        if descriptor.startswith("kernel-derived:"):
            k = int(descriptor.split(":", 1)[1])
            h = self.chain(f"kernel:{k}")
            return derived_chain(p, n, tuple(h.pivots()))
        if descriptor.startswith("kernel-gamma3:"):
            k = int(descriptor.split(":", 1)[1])
            h = self.chain(f"kernel:{k}")
            hd = self.chain(f"kernel-derived:{k}")
            seeds = [commutator(x, g) for x in hd.pivots() for g in h.pivots()]
            return close_chain(p, n, seeds, conjugators=tuple(h.pivots()))
        raise ChainError(f"unknown chain descriptor {descriptor!r}")

    def full(self) -> SubgroupChain:
        return self.chain("full")

    def derived(self) -> SubgroupChain:
        return self.chain("derived")

    def gamma3(self) -> SubgroupChain:
        return self.chain("gamma3")

    def second_derived(self) -> SubgroupChain:
        return self.chain("second-derived")

    def kernel(self, k: int) -> SubgroupChain:
        return self.chain(f"kernel:{k}")

    def kernel_derived(self, k: int) -> SubgroupChain:
        return self.chain(f"kernel-derived:{k}")

    def kernel_gamma3(self, k: int) -> SubgroupChain:
        return self.chain(f"kernel-gamma3:{k}")

    def order(self) -> int:
        return self.full().order()

    def order_exponent(self) -> int:
        return self.full().order_exponent()

    def normal_closure(self, elements) -> SubgroupChain:
        seeds = tuple(elements)
        return close_chain(
            self.datum.p, self.level, seeds, conjugators=self.gen_list, gens=seeds
        )


def derived_chain(p: int, depth: int, gens: tuple[Portrait, ...]) -> SubgroupChain:
    """Chain of the derived subgroup of the group the given elements generate."""
    seeds = [
        commutator(gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    return close_chain(p, depth, seeds, conjugators=gens)


def quotient(
    datum: NumericalDatum,
    level: int,
    degree_guard: int = DEFAULT_DEGREE_GUARD,
    store: ChainStore | None = None,
) -> FiniteQuotient:
    return FiniteQuotient(datum, level, degree_guard=degree_guard, store=store)
