"""Finite portraits of p-adic tree automorphisms with rooted-cycle labels.

A depth-n portrait has one residue mod p for every internal vertex of the
rooted p-ary tree of depth n, in breadth-first order. The label k at a vertex
means the automorphism permutes the subtrees below it by the k-th power of the
standard cycle (1 2 ... p). Words over the alphabet {1, ..., p} name vertices;
automorphisms act on the right.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class TreeError(ValueError):
    """Malformed portrait data or an operation outside its domain."""


class GuardExceeded(Exception):
    """A recursion or size guard tripped before the computation settled."""


@lru_cache(maxsize=None)
def level_offsets(p: int, depth: int) -> tuple[int, ...]:
    """Start index of each level's label block; the last entry is the total."""
    out = [0]
    size = 1
    for _ in range(depth):
        out.append(out[-1] + size)
        size *= p
    return tuple(out)


def label_count(p: int, depth: int) -> int:
    return level_offsets(p, depth)[-1]


def leaf_count(p: int, depth: int) -> int:
    """p^depth, the length of a leaf permutation; GuardExceeded past int32."""
    if p**depth > 2**31 - 1:
        raise GuardExceeded(f"{p}^{depth} leaves do not fit an int32 leaf permutation")
    return p**depth


def identity_perm(p: int, depth: int) -> np.ndarray:
    """The identity leaf permutation (int32, read-only, shared)."""
    return _identity_row(leaf_count(p, depth), np.dtype(np.int32))


@lru_cache(maxsize=None)
def _identity_row(width: int, dtype: np.dtype) -> np.ndarray:
    """0, ..., width - 1: one read-only array per width and dtype."""
    row = np.arange(width, dtype=dtype)
    row.setflags(write=False)
    return row


@lru_cache(maxsize=None)
def _label_gather(p: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Leaf positions and divisors that read every label off a leaf permutation.

    The label of vertex u at level d is where u's first child goes, read at
    level d + 1: (perm[u * p**(depth-d)] // p**(depth-d-1)) % p.
    """
    offs = level_offsets(p, depth)
    idx = np.empty(offs[-1], dtype=np.intp)
    div = np.empty(offs[-1], dtype=np.int32)
    for d in range(depth):
        idx[offs[d] : offs[d + 1]] = np.arange(p**d) * p ** (depth - d)
        div[offs[d] : offs[d + 1]] = p ** (depth - d - 1)
    idx.setflags(write=False)
    div.setflags(write=False)
    return idx, div


def perm_labels(p: int, depth: int, perms: np.ndarray) -> np.ndarray:
    """All labels read off a leaf permutation, or off each row of a stack of them."""
    idx, div = _label_gather(p, depth)
    return (perms[..., idx] // div) % p


def _perm_from_labels(p: int, depth: int, labels: np.ndarray) -> np.ndarray:
    """Leaf permutation of labelled form, or of each row of a stack, built level by level.

    Child x of vertex u goes to child (x + label of u) % p of u's image.
    """
    offs = level_offsets(p, depth)
    shift = np.arange(p, dtype=np.int32)
    perm = np.zeros((*labels.shape[:-1], 1), dtype=np.int32)
    for d in range(depth):
        lab = labels[..., offs[d] : offs[d + 1], None]
        perm = (perm[..., None] * p + (shift + lab) % p).reshape(*labels.shape[:-1], p ** (d + 1))
    return perm


def _flat(x: np.ndarray, width: int) -> np.ndarray:
    """Each row of positions shifted to index its own row of a flattened stack of `width`-long rows."""
    return x if x.ndim == 1 else x + np.arange(0, len(x) * width, width)[:, None]


def perm_compose(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x then y: entry u is y[x[u]]; x may also be rows of positions of any length."""
    if y.ndim == 1:
        return np.take(y, x)
    if x.ndim == 1:
        return np.take(y, x, axis=1)
    return np.take(y, _flat(x, y.shape[1]))


def perm_invert(x: np.ndarray) -> np.ndarray:
    """The inverse, row by row."""
    inv = np.empty(x.shape, x.dtype)
    inv.ravel()[_flat(x, x.shape[-1])] = _identity_row(x.shape[-1], x.dtype)
    return inv


def perm_power(x: np.ndarray, e: int) -> np.ndarray:
    """x^e, row by row, for any integer e, by repeated squaring; always a new array."""
    if e == 0:
        return np.broadcast_to(_identity_row(x.shape[-1], x.dtype), x.shape).copy()
    base, result, e = (x if e > 0 else perm_invert(x)), None, abs(e)
    while e:
        if e & 1:
            result = base if result is None else perm_compose(result, base)
        e >>= 1
        base = perm_compose(base, base) if e else base
    return result.copy() if result is x else result


def perm_powers(x: np.ndarray, e: int) -> np.ndarray:
    """x^1, ..., x^e, or x^-1, ..., x^e for e < 0, stacked on a new first axis, exactly |e| of them."""
    out = np.empty((abs(e), *x.shape), x.dtype)
    for i in range(abs(e)):
        out[i] = perm_compose(out[i - 1], out[0]) if i else (x if e > 0 else perm_invert(x))
    return out


def perm_commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^-1 y^-1 x y, row by row: c = (y x)^-1 (x y) is the scatter c[(y x)[u]] = (x y)[u]."""
    xy = perm_compose(x, y)
    comm = np.empty_like(xy)
    comm.ravel()[_flat(perm_compose(y, x), xy.shape[-1])] = xy
    return comm


def vertex_position(vertex: tuple[int, ...], p: int) -> int:
    """Breadth-first index of a vertex within its level."""
    q = 0
    for x in vertex:
        if not 1 <= x <= p:
            raise TreeError(f"letter {x} outside 1..{p}")
        q = q * p + (x - 1)
    return q


class Portrait:
    """Immutable depth-limited tree automorphism.

    It is its leaf permutation `perm`: entry u is the position of the image
    of leaf u. Its group operations are the `perm_*` functions, the one
    arithmetic on leaf permutations, which the chain engine and the checks
    share. The constructor checks labels and builds `perm`; labels are read off it.
    """

    __slots__ = ("p", "depth", "perm")

    def __init__(self, p: int, depth: int, labels):
        if p < 2:
            raise TreeError(f"alphabet size must be at least 2, got {p}")
        if depth < 0:
            raise TreeError(f"depth must be nonnegative, got {depth}")
        arr = np.asarray(labels, dtype=np.int16)
        want = label_count(p, depth)
        if arr.shape != (want,):
            raise TreeError(f"expected {want} labels for depth {depth}, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= p):
            raise TreeError("labels must be residues in 0..p-1")
        perm = _perm_from_labels(p, depth, arr)
        perm.setflags(write=False)
        self.p = p
        self.depth = depth
        self.perm = perm

    @classmethod
    def _from_perm(cls, p: int, depth: int, perm: np.ndarray) -> "Portrait":
        """Portrait with the given leaf permutation."""
        self = object.__new__(cls)
        perm.setflags(write=False)
        self.p = p
        self.depth = depth
        self.perm = perm
        return self

    @classmethod
    def identity(cls, p: int, depth: int) -> "Portrait":
        return cls._from_perm(p, depth, identity_perm(p, depth))

    @classmethod
    def rooted(cls, p: int, depth: int, k: int) -> "Portrait":
        """The automorphism a^k rotating the top-level subtrees."""
        leaves = leaf_count(p, depth)
        perm = (np.arange(leaves, dtype=np.int32) + k % p * (leaves // p)) % leaves
        return cls._from_perm(p, depth, perm)

    # -- structure ----------------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        """Rotation label of every internal vertex in breadth-first order (int16)."""
        return perm_labels(self.p, self.depth, self.perm).astype(np.int16)

    def level_labels(self, level: int) -> np.ndarray:
        offs = level_offsets(self.p, self.depth)
        return self.labels[offs[level] : offs[level + 1]]

    def is_identity(self) -> bool:
        return np.array_equal(self.perm, identity_perm(self.p, self.depth))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Portrait):
            return NotImplemented
        return (self.p, self.depth, self.perm.tobytes()) == (other.p, other.depth, other.perm.tobytes())

    def __hash__(self) -> int:
        return hash((self.p, self.depth, self.perm.tobytes()))

    def __repr__(self) -> str:
        return f"Portrait(p={self.p}, depth={self.depth}, labels={self.labels.tolist()})"

    # -- action -------------------------------------------------------------

    def act(self, vertex: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a vertex (word of letters in 1..p, length at most depth)."""
        if len(vertex) > self.depth:
            raise TreeError(f"vertex of length {len(vertex)} exceeds portrait depth {self.depth}")
        p = self.p
        width = p ** (self.depth - len(vertex))
        image = int(self.perm[vertex_position(vertex, p) * width]) // width
        out = []
        for _ in vertex:
            image, x = divmod(image, p)
            out.append(x + 1)
        return tuple(reversed(out))

    def fixes(self, vertex: tuple[int, ...]) -> bool:
        return self.act(vertex) == tuple(vertex)

    def leaf_permutation(self, level: int | None = None) -> np.ndarray:
        """Permutation induced on the vertices of the given level (0-based positions)."""
        if level is None:
            level = self.depth
        if not 0 <= level <= self.depth:
            raise TreeError(f"level {level} outside 0..{self.depth}")
        width = self.p ** (self.depth - level)
        return (self.perm[::width] // width).astype(np.int64)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "Portrait") -> "Portrait":
        """Composition, self applied first."""
        if not isinstance(other, Portrait):
            return NotImplemented
        _require_same(self, other)
        return Portrait._from_perm(self.p, self.depth, perm_compose(self.perm, other.perm))

    def __invert__(self) -> "Portrait":
        return Portrait._from_perm(self.p, self.depth, perm_invert(self.perm))

    def __pow__(self, e: int) -> "Portrait":
        return Portrait._from_perm(self.p, self.depth, perm_power(self.perm, e))

    def conj(self, g: "Portrait") -> "Portrait":
        """Conjugate of self by g (g inverse, then self, then g)."""
        return ~g * self * g

    def order(self) -> int:
        """Order as an automorphism of the truncated tree (a power of p)."""
        n = 1
        g = self
        while not g.is_identity():
            g = g ** self.p
            n *= self.p
        return n

    # -- tree surgery ---------------------------------------------------------

    def section(self, vertex: tuple[int, ...]) -> "Portrait":
        """Restriction to the subtree under a vertex the portrait fixes."""
        if not self.fixes(vertex):
            raise TreeError(f"section undefined: vertex {vertex} is moved")
        sub_depth = self.depth - len(vertex)
        width = self.p**sub_depth
        start = vertex_position(vertex, self.p) * width
        return Portrait._from_perm(self.p, sub_depth, self.perm[start : start + width] - start)

    def truncate(self, depth: int) -> "Portrait":
        if not 0 <= depth <= self.depth:
            raise TreeError(f"cannot truncate depth {self.depth} to {depth}")
        width = self.p ** (self.depth - depth)
        return Portrait._from_perm(self.p, depth, self.perm[::width] // width)

    @classmethod
    def embed(cls, p: int, depth: int, vertex: tuple[int, ...], sub: "Portrait") -> "Portrait":
        """Portrait acting as `sub` below `vertex` and trivially elsewhere."""
        if sub.p != p or sub.depth != depth - len(vertex):
            raise TreeError("embedded portrait must have depth equal to the remaining depth")
        width = p**sub.depth
        start = vertex_position(vertex, p) * width
        perm = identity_perm(p, depth).copy()
        perm[start : start + width] = sub.perm + start
        return cls._from_perm(p, depth, perm)

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        body = " ".join(str(int(x)) for x in self.labels)
        return f"{self.p} {self.depth}\n{body}\n" if body else f"{self.p} {self.depth}\n"

    @classmethod
    def from_text(cls, text: str) -> "Portrait":
        tokens = text.split()
        if len(tokens) < 2:
            raise TreeError("portrait text needs a 'p depth' header")
        try:
            p, depth = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise TreeError(f"bad portrait header {tokens[:2]}") from exc
        if p < 2 or depth < 0:
            raise TreeError(f"bad portrait header values p={p} depth={depth}")
        want = label_count(p, depth)
        body = tokens[2:]
        if len(body) != want:
            raise TreeError(f"expected {want} labels, got {len(body)}")
        try:
            labels = [int(t) for t in body]
        except ValueError as exc:
            raise TreeError("labels must be integers") from exc
        return cls(p, depth, labels)


def _require_same(x: Portrait, y: Portrait) -> None:
    if x.p != y.p or x.depth != y.depth:
        raise TreeError("portraits must share alphabet and depth to compose")


def commutator(x: Portrait, y: Portrait) -> Portrait:
    """x^-1 y^-1 x y."""
    _require_same(x, y)
    return Portrait._from_perm(x.p, x.depth, perm_commutator(x.perm, y.perm))
