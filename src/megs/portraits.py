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


@lru_cache(maxsize=None)
def _identity_perm(p: int, depth: int) -> np.ndarray:
    perm = np.arange(p**depth, dtype=np.int32)
    perm.setflags(write=False)
    return perm


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


def _perm_from_labels(p: int, depth: int, labels: np.ndarray) -> np.ndarray:
    """Leaf permutation of labelled form, built one level at a time.

    Child x of vertex u goes to child (x + label of u) % p of u's image.
    """
    offs = level_offsets(p, depth)
    shift = np.arange(p, dtype=np.int32)
    perm = np.zeros(1, dtype=np.int32)
    for d in range(depth):
        lab = labels[offs[d] : offs[d + 1]]
        perm = (perm[:, None] * p + (shift + lab[:, None]) % p).ravel()
    return perm


def _position(vertex: tuple[int, ...], p: int) -> int:
    """Breadth-first index of a vertex within its level."""
    q = 0
    for x in vertex:
        if not 1 <= x <= p:
            raise TreeError(f"letter {x} outside 1..{p}")
        q = q * p + (x - 1)
    return q


class Portrait:
    """Immutable depth-limited tree automorphism.

    Its working form is the leaf permutation `perm`: entry u is the position
    of the image of leaf u, so a product is one gather and an inverse one
    scatter. The labels are read off the permutation when asked for; a
    portrait built from labels computes its permutation when first needed.
    """

    __slots__ = ("p", "depth", "_labels", "_perm")

    def __init__(self, p: int, depth: int, labels, _checked: bool = False):
        if not _checked:
            if p < 2:
                raise TreeError(f"alphabet size must be at least 2, got {p}")
            if depth < 0:
                raise TreeError(f"depth must be nonnegative, got {depth}")
        arr = np.asarray(labels, dtype=np.int16)
        if not _checked:
            want = label_count(p, depth)
            if arr.shape != (want,):
                raise TreeError(
                    f"expected {want} labels for depth {depth}, got shape {arr.shape}"
                )
            if arr.size and (arr.min() < 0 or arr.max() >= p):
                raise TreeError("labels must be residues in 0..p-1")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        self.p = p
        self.depth = depth
        self._labels = arr
        self._perm = None

    @classmethod
    def _from_perm(cls, p: int, depth: int, perm: np.ndarray) -> "Portrait":
        """Portrait with the given leaf permutation."""
        self = object.__new__(cls)
        perm.setflags(write=False)
        self.p = p
        self.depth = depth
        self._labels = None
        self._perm = perm
        return self

    @classmethod
    def identity(cls, p: int, depth: int) -> "Portrait":
        return cls._from_perm(p, depth, _identity_perm(p, depth))

    @classmethod
    def rooted(cls, p: int, depth: int, k: int) -> "Portrait":
        """The automorphism a^k rotating the top-level subtrees."""
        labels = np.zeros(label_count(p, depth), dtype=np.int16)
        if depth > 0:
            labels[0] = k % p
        return cls(p, depth, labels, _checked=True)

    # -- structure ----------------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        """Rotation label of every internal vertex in breadth-first order (int16)."""
        if self._labels is None:
            idx, div = _label_gather(self.p, self.depth)
            labels = ((self._perm[idx] // div) % self.p).astype(np.int16)
            labels.setflags(write=False)
            self._labels = labels
        return self._labels

    @property
    def perm(self) -> np.ndarray:
        """Leaf permutation (int32, read-only): entry u is the image of leaf u."""
        if self._perm is None:
            perm = _perm_from_labels(self.p, self.depth, self._labels)
            perm.setflags(write=False)
            self._perm = perm
        return self._perm

    def level_labels(self, level: int) -> np.ndarray:
        offs = level_offsets(self.p, self.depth)
        sl = slice(offs[level], offs[level + 1])
        if self._labels is not None:
            return self._labels[sl]
        idx, div = _label_gather(self.p, self.depth)
        return ((self._perm[idx[sl]] // div[sl]) % self.p).astype(np.int16)

    def is_identity(self) -> bool:
        if self._perm is not None:
            return np.array_equal(self._perm, _identity_perm(self.p, self.depth))
        return not self._labels.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Portrait):
            return NotImplemented
        return (
            self.p == other.p
            and self.depth == other.depth
            and self.labels.tobytes() == other.labels.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.p, self.depth, self.labels.tobytes()))

    def __repr__(self) -> str:
        return f"Portrait(p={self.p}, depth={self.depth}, labels={self.labels.tolist()})"

    # -- action -------------------------------------------------------------

    def act(self, vertex: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a vertex (word of letters in 1..p, length at most depth)."""
        if len(vertex) > self.depth:
            raise TreeError(
                f"vertex of length {len(vertex)} exceeds portrait depth {self.depth}"
            )
        p = self.p
        width = p ** (self.depth - len(vertex))
        image = int(self.perm[_position(vertex, p) * width]) // width
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
        if self.p != other.p or self.depth != other.depth:
            raise TreeError("portraits must share alphabet and depth to compose")
        return Portrait._from_perm(self.p, self.depth, other.perm[self.perm])

    def __invert__(self) -> "Portrait":
        inv = np.empty_like(self.perm)
        inv[self.perm] = _identity_perm(self.p, self.depth)
        return Portrait._from_perm(self.p, self.depth, inv)

    def __pow__(self, e: int) -> "Portrait":
        if e < 0:
            return (~self) ** (-e)
        result = Portrait.identity(self.p, self.depth)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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
        start = _position(vertex, self.p) * width
        return Portrait._from_perm(self.p, sub_depth, self.perm[start : start + width] - start)

    def truncate(self, depth: int) -> "Portrait":
        if not 0 <= depth <= self.depth:
            raise TreeError(f"cannot truncate depth {self.depth} to {depth}")
        return Portrait(self.p, depth, self.labels[: label_count(self.p, depth)], _checked=True)

    @classmethod
    def embed(cls, p: int, depth: int, vertex: tuple[int, ...], sub: "Portrait") -> "Portrait":
        """Portrait acting as `sub` below `vertex` and trivially elsewhere."""
        if sub.p != p or sub.depth != depth - len(vertex):
            raise TreeError("embedded portrait must have depth equal to the remaining depth")
        width = p**sub.depth
        start = _position(vertex, p) * width
        perm = _identity_perm(p, depth).copy()
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


def commutator(x: Portrait, y: Portrait) -> Portrait:
    """x^-1 y^-1 x y, computed as (y x)^-1 (x y)."""
    return ~(y * x) * (x * y)
