"""Exact subgroup computations in congruence quotients via the level filtration.

An element of the depth-n quotient is a leaf permutation, and the chains
take, keep and return stacks of them, one row each; a `Portrait` wraps one
for the callers that ask for it. For a subgroup H and each
level d, the label rows at level d of the elements of H that fix the tree to
depth d form a linear code over F_p, because the level-d labels are additive
on that stabilizer. A chain holds one echelon basis per level together with a
representative element per basis row, each level one object of stacks
(`ChainLevel`): the pivot columns, the rows as one matrix and, above the
deepest level, the representatives' leaf permutations; a representative at
the deepest level is the portrait of its row. Sifting reduces a stack of
elements level by level: the reduction coefficients at a level come from one
linear solve, above the deepest level each element is then multiplied by the
representatives' inverse powers, and at the deepest level, which is
elementary abelian, only the labels are reduced. Membership and exact orders
(p to the sum of the level dimensions) follow. The same level pass inserts:
the elements that fail at a level are eliminated against each other in
order, each one left with labels becoming a pivot, which gives the pivots of
inserting the elements one at a time.

Chains are built in two steps. A worklist closure lifts the levels above the
deepest: inserting a pivot there enqueues its p-th power, its commutators
with the earlier pivots of its own level, and its commutator with each
generating or conjugating element; the worklist is built and taken in a
batch at a time. The deepest level is then spun: its rows form an
F_p-subspace that conjugation permutes, so it is closed under a few label
permutations instead of by sifting commutators. Both steps run in a fixed
order, so construction is deterministic.
"""

from __future__ import annotations

import json
import os
from collections import deque
from functools import lru_cache
from typing import NamedTuple

import numpy as np

try:  # hashlib loads OpenSSL; try the lean built-in module first, as `random` does
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .datum import NumericalDatum, generator_portraits
from .fp import row_echelon
from .portraits import Portrait, _perm_from_labels, identity_perm, label_count, level_offsets, perm_labels, vertex_position
from .portraits import perm_commutator, perm_compose, perm_invert, perm_power, perm_powers


class ChainError(RuntimeError):
    """Internal inconsistency in a chain computation."""


class DegreeGuardError(ChainError):
    """The requested quotient degree exceeds the configured guard."""


class ChainLevel:
    """Level d of a chain: its pivots as stacks, and their sift state.

    A pivot is a column, a row of level-d labels with a 1 in that column and
    a representative that fixes the tree to depth d with that row as its
    level-d labels. The level keeps the columns `cols`, the k x p^d `rows`
    (int16) and, above the deepest level, the representatives' k x p^n leaf
    permutations (int32); a representative at the deepest level is the
    portrait of its row alone (`_deepest_perms`) and keeps none. The stacks
    only grow at the end, through `append`.

    The sift state takes in the pivots appended since it was last read
    (`state`). Reducing v by the pivots in order subtracts c_j * row_j with
    c_j = v[col_j] - sum_{i<j} c_i * row_i[col_j], so c = v[cols] @ T, where
    T is the inverse mod p of the unit upper-triangular matrix
    U[i, j] = row_i[col_j] (i < j), and the reduced labels are
    v - v[cols] @ E with E = T @ rows (mod p), both int16. Above the deepest
    level, `unpow[j]` stacks the leaf permutations of rep_j^-1, ...,
    rep_j^-(p-1), so the rows with c_j = e > 0 are composed with rep_j^-e by
    one gather through `unpow[j][e - 1]` (`_unpower`).
    """

    __slots__ = ("p", "depth", "cols", "rows", "_perms", "_tinv", "_ech", "_unpow")

    def __init__(self, p: int, depth: int, d: int):
        self.p, self.depth = p, depth
        self.cols = np.empty(0, np.intp)
        self.rows = self._ech = np.empty((0, p**d), np.int16)
        self._perms = np.empty((0, p**depth), np.int32) if d < depth - 1 else None
        self._tinv = np.empty((0, 0), np.int16)
        self._unpow: list[np.ndarray | None] = []

    def __len__(self) -> int:
        return len(self.cols)

    def perms(self) -> np.ndarray:
        """The representatives' leaf permutations, one row each."""
        return _deepest_perms(self.p, self.depth, self.rows) if self._perms is None else self._perms

    def labels(self) -> np.ndarray:
        """The representatives' labels, one int16 row each."""
        if self._perms is not None:
            return perm_labels(self.p, self.depth, self._perms).astype(np.int16)
        return np.pad(self.rows, ((0, 0), (level_offsets(self.p, self.depth)[-2], 0)))

    def append(self, cols, rows, perms=None, unpow=None) -> None:
        """Append pivots: their columns, rows and, above the deepest level,
        the representatives' leaf permutations, with their inverse powers
        when those are already built. A deepest level ignores `perms`."""
        self.cols = np.concatenate([self.cols, cols], dtype=np.intp)
        self.rows = np.concatenate([self.rows, rows], dtype=np.int16)
        if self._perms is not None:
            self._perms = np.concatenate([self._perms, perms], dtype=np.int32)
            self._unpow.extend(unpow if unpow is not None else [None] * len(cols))

    def state(self) -> tuple:
        """The pivot columns, T, E and the inverse powers, up to date."""
        if len(self._tinv) < len(self.cols):
            self._extend()
        return self.cols, self._tinv, self._ech, self._unpow

    def _extend(self) -> None:
        """Take the m pivots appended since the last call into the sift state.

        With U = [[U_old, U_on], [0, U_new]], T gains the block column
        [X; T_new] with T_new = U_new^-1 and X = -E_old[:, new cols] @ T_new,
        and E becomes [E_old + X @ rows_new; T_new @ rows_new]. U_new is
        I + N with N nilpotent, so T_new = (I - N)(I + N^2)(I + N^4)...,
        up to the first power of N that is zero.
        """
        p, k = self.p, len(self._tinv)
        new_cols, new_rows = self.cols[k:], self.rows[k:].astype(np.int64)
        m = len(new_cols)
        eye = np.eye(m, dtype=np.int64)
        nil = np.triu(new_rows[:, new_cols], 1)
        t_new, span = (eye - nil) % p, 2
        while span < m:
            nil = _residue_matmul(nil, nil, p) % p
            t_new = _residue_matmul(t_new, eye + nil, p) % p
            span *= 2
        x = -_residue_matmul(self._ech[:, new_cols], t_new, p) % p
        self._ech = np.concatenate(
            [(self._ech + _residue_matmul(x, new_rows, p)) % p, _residue_matmul(t_new, new_rows, p) % p],
            dtype=np.int16,
        )
        tinv = np.zeros((k + m, k + m), np.int16)
        tinv[:k, :k], tinv[:k, k:], tinv[k:, k:] = self._tinv, x, t_new
        self._tinv = tinv
        for j in range(k, len(self._unpow)):
            if self._unpow[j] is None:
                self._unpow[j] = perm_powers(self._perms[j], 1 - p)


class SubgroupChain:
    """Level-filtration stabilizer chain of a subgroup of a depth-n quotient.

    `levels[d]` is the `ChainLevel` of level d: the pivots' columns, rows
    and representatives as stacks, in insertion order, with the level's
    sift state. Portraits are made only for the callers that ask for them
    (`pivots`, `sift`, `contains_chain`). `gens` holds the seeds a closure
    keeps, if any, as the int16 stack of their labels that cache files store.
    """

    __slots__ = ("p", "depth", "levels", "gens")

    def __init__(self, p: int, depth: int, gens=()):
        self.p = p
        self.depth = depth
        self.levels = [ChainLevel(p, depth, d) for d in range(depth)]
        self.gens = np.asarray(gens, np.int16).reshape(len(gens), label_count(p, depth))

    # -- measures -----------------------------------------------------------

    def dims(self) -> tuple[int, ...]:
        return tuple(len(lv) for lv in self.levels)

    def order_exponent(self) -> int:
        return sum(len(lv) for lv in self.levels)

    def order(self) -> int:
        return self.p ** self.order_exponent()

    def perms(self) -> np.ndarray:
        """The pivots' leaf permutations in level order, one row each."""
        return np.concatenate([np.empty((0, self.p**self.depth), np.int32), *(lv.perms() for lv in self.levels)])

    def pivots(self) -> list[Portrait]:
        return [Portrait._from_perm(self.p, self.depth, perm) for perm in self.perms()]

    # -- membership -----------------------------------------------------------

    def sift_batch(self, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sift a stack of leaf permutations (B x p^n) level by level.

        Returns each row's failing level (-1 for a member) and its residual
        permutation (the identity for a member); see `_level_pass`.
        """
        return self._level_pass(perms)[:2]

    def _level_pass(self, perms: np.ndarray, insert: bool = False):
        """Reduce a stack of leaf permutations (B x p^n) one level at a time.

        At each level the rows are reduced by the level's pivots, read off
        its sift state (`ChainLevel.state`): the coefficients come from one
        linear solve, and above the deepest level the rows are composed with
        rep_j^-c_j in pivot order, one gather through the level's stack of
        inverse powers per pivot and coefficient value of the rows it moves.
        The deepest level of St(n-1) is elementary abelian and a
        representative there is the portrait of its row, so it is reduced on
        labels alone, and a failing row's residual is the portrait of its
        reduced labels. A row left with labels fails at the level and goes
        no deeper.

        With `insert`, the rows failing at a level are then eliminated
        against each other in row order (`_eliminate`): each that is still
        left with labels becomes a pivot, and those reduced to nothing go on
        to the next level; the level takes the pivots as one stack. A pivot
        appended at level d changes the reduction of no row at any other
        level, so these are the pivots of sifting and inserting the rows one
        at a time.

        Returns each row's failing level, its residual, and the pivots made,
        as (row, level) in row order; a level's pivots are appended in row
        order, so those of level d are its last ones.
        """
        p, depth = self.p, self.depth
        offs = level_offsets(p, depth)
        work = np.array(perms, dtype=np.int32, ndmin=2)
        if work.ndim != 2 or work.shape[1] != p**depth:
            raise ChainError(f"a stack of shape {work.shape} is not of permutations of {p}^{depth} leaves")
        labels = perm_labels(p, depth, work)
        out = np.empty_like(work)
        fail = np.full(len(work), -1, dtype=np.intp)
        rows = np.arange(len(work))  # the input row of each row of `work`
        made: list[tuple[int, int]] = []
        for d, lv in enumerate(self.levels):
            if not len(work):
                break
            last = d == depth - 1
            if last and labels[:, : offs[d]].any():
                raise ChainError("residual reduced above the deepest level has labels above it")
            v = labels[:, offs[d] : offs[d + 1]]
            if not v.any():
                continue
            cols, tinv, ech, unpow = lv.state()
            moved = False
            if cols.size:
                head = v[:, cols]
                v = (v - _residue_matmul(head, ech, p)) % p
                if not last:
                    c = _residue_matmul(head, tinv, p) % p
                    every = np.arange(len(work))
                    for j in np.flatnonzero(c.any(axis=0)):
                        _unpower(work, every, c[:, j], unpow[j])
                        moved = True
            failed = v.any(axis=1)
            if not failed.any():
                if moved:
                    labels = perm_labels(p, depth, work)
                continue
            if last and not insert:
                # The residual in St(n-1) whose only labels are the reduced ones.
                work[failed] = _deepest_perms(p, depth, v[failed])
            if insert:
                pivots = self._eliminate(d, work, v, failed)
                made.extend((int(rows[i]), d) for i in pivots)
                moved = moved or len(pivots) < failed.sum()
                failed = np.zeros_like(failed)
                failed[pivots] = True
            gone = rows[failed]
            fail[gone] = d
            out[gone] = work[failed]
            kept = ~failed
            work, rows = work[kept], rows[kept]
            labels = perm_labels(p, depth, work) if moved and not last else labels[kept]
        out[rows] = identity_perm(p, depth)
        made.sort(key=lambda item: item[0])
        return fail, out, made

    def _eliminate(self, d: int, work: np.ndarray, v: np.ndarray, failed: np.ndarray):
        """Insert the rows failing at level d as pivots, eliminating in row order.

        `v` holds every row's level-d labels, reduced by the level's earlier
        pivots, and `work` the residuals. The first failing row becomes a
        pivot: its row is its labels scaled to a 1 in their first nonzero
        column, and its representative the residual raised to that scale,
        which at the deepest level is the portrait of the row and is not
        kept. The later rows are reduced by it, on their labels and, above
        the deepest level, by composing with its inverse powers, which the
        level then keeps; the first one still left with labels is next. The
        pivots are appended to the level as one stack. Returns the positions
        of the rows made pivots.
        """
        p, depth = self.p, self.depth
        last = d == depth - 1
        idx = np.flatnonzero(failed)
        v = v[idx].astype(np.int64)
        made, cols, heads, rows, perms, unpow = [], [], [], [], [], []
        while idx.size:
            i = idx[0]
            col = int(np.flatnonzero(v[0])[0])
            s = pow(int(v[0, col]), -1, p)
            made.append(i)
            cols.append(col)
            heads.append(v[0])
            rows.append(v[0] * s % p)
            if not last:
                perms.append(perm_power(work[i], s))
                unpow.append(perm_powers(perms[-1], 1 - p))
            idx, v = idx[1:], v[1:]
            c = v[:, col].copy()
            if c.any():
                v -= np.multiply.outer(c, rows[-1])
                v %= p
                if not last:
                    _unpower(work, idx, c, unpow[-1])
                left = v.any(axis=1)
                if not left.all():
                    idx, v = idx[left], v[left]
        if last:  # each pivot's residual: the portrait of the labels it had when made
            work[made] = _deepest_perms(p, depth, np.array(heads))
        self.levels[d].append(cols, rows, perms, unpow)
        return made

    def _require_fit(self, what: str, p: int, depth: int) -> None:
        if (p, depth) != (self.p, self.depth):
            raise ChainError(f"{what} with p={p}, depth {depth} does not fit p={self.p}, depth {self.depth}")

    def sift(self, g: Portrait) -> tuple[int | None, Portrait]:
        """Reduce g level by level. Returns (failing level or None, residual)."""
        self._require_fit("a portrait", g.p, g.depth)
        fail, perms = self.sift_batch(g.perm)
        d = int(fail[0])
        return (None if d < 0 else d), Portrait._from_perm(self.p, self.depth, perms[0])

    def contains(self, g: Portrait) -> bool:
        return self.sift(g)[0] is None

    def contains_chain(self, other: "SubgroupChain") -> tuple[bool, Portrait | None]:
        """Whether every pivot of `other` sifts into this chain."""
        self._require_fit("a chain", other.p, other.depth)
        perms = other.perms()
        fail, _ = self.sift_batch(perms)
        bad = np.flatnonzero(fail >= 0)
        return (True, None) if not bad.size else (False, Portrait._from_perm(self.p, self.depth, perms[bad[0]]))

    def elements(self, limit: int = 200000) -> np.ndarray:
        """All elements as a stack of leaf permutations, one row each, in
        staircase normal form: e * rep^i for each element e of the pivots
        before rep and each i < p, in that order; guarded by `limit`."""
        if self.order() > limit:
            raise ChainError(f"enumeration of {self.order()} elements exceeds limit {limit}")
        elems = identity_perm(self.p, self.depth)[None]
        for rep in self.perms():
            steps = [elems, *(perm_compose(elems, power) for power in perm_powers(rep, self.p - 1))]
            elems = np.stack(steps, axis=1).reshape(-1, len(rep))
        return elems


def _residue_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b, exactly, for matrices of residues mod p (not reduced mod p).

    The sums are taken in int16 when no sum can exceed its range, which
    einsum vectorizes, and in int64 otherwise.
    """
    wide = np.int16 if a.shape[1] * (p - 1) ** 2 < 2**15 else np.int64
    return np.einsum("ij,jk->ik", a.astype(wide, copy=False), b.astype(wide, copy=False))


def _unpower(work: np.ndarray, idx: np.ndarray, c: np.ndarray, powers: np.ndarray) -> None:
    """Compose row idx[i] of `work` with powers[c[i] - 1] for each c[i] > 0.

    The rows with the same coefficient take one gather with one column
    index, so a pivot costs at most p-1 gathers whatever the rows it moves.
    """
    for e in range(1, len(powers) + 1):
        sel = idx[c == e]
        if sel.size:
            work[sel] = perm_compose(powers[e - 1], work[sel])


def _deepest_perms(p: int, depth: int, rows: np.ndarray) -> np.ndarray:
    """Leaf permutations of the portraits whose only labels are deepest-level
    rows, one for each row of the stack.

    The leaves below deepest vertex x are x*p, ..., x*p + p-1, and its label
    l moves leaf x*p + y to x*p + (y + l) % p, read off row l of a table of
    rotations.
    """
    firsts, rotations = _rotations(p, depth)
    return (firsts + rotations[rows]).reshape(len(rows), p**depth)


@lru_cache(maxsize=None)
def _rotations(p: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The first leaf below each deepest vertex, as a column, and the table of rotations."""
    spins = np.arange(p, dtype=np.int32)
    return np.arange(0, p**depth, p, dtype=np.int32)[:, None], (spins + spins[:, None]) % p


BATCH = 64


class Commutators(NamedTuple):
    """Closure seeds commutator(xs[i], ys[j]) for the index pairs (i, j) of
    (ii, jj), in order, xs and ys stacks of leaf permutations. With `keep`
    the chain keeps every seed's labels (`gens`); without it, it keeps none
    and sifts no identity or repeat of an earlier seed."""

    xs: np.ndarray
    ys: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    keep: bool = True


def close_chain(p: int, depth: int, seeds, conjugators=()) -> SubgroupChain:
    """Chain of the subgroup generated by the seeds, closed under the
    conjugators: both stacks of leaf permutations (k x p^n), or the seeds
    given as `Commutators`.

    The actors are the conjugators and, when the seeds are a stack, the
    seeds, less repeats. Precondition: every seed lies in the actors'
    group; `Commutators` seeds must be commutators of elements of the
    conjugators' group, as the quotients' descriptors build them.

    Lift: the seeds, up to BATCH at a time (`_seed_batches`), then a
    worklist of recipes, not elements: ("pow", x) and ("comm", x, y); a
    pivot operand is (d, i), row i of level d's stack when built, so the
    queue keeps no older stack alive, and an actor is its leaf permutation.
    A pivot x inserted at a level d above the deepest enqueues x^p, its
    commutators with the earlier pivots of level d and its commutator with
    each actor. Up to BATCH recipes are built as one stack (`_build`) and
    absorbed in one level pass, which finds the pivots that sifting and
    inserting its rows one at a time would, in row order; each pivot then
    enqueues its recipes as it would have on insertion. Every recipe a
    batch enqueues goes behind every recipe in the queue, so the pivots do
    not depend on BATCH. The chain keeps the seeds' labels (`gens`), none
    for `Commutators` without `keep`, and never more than a batch of
    `Commutators` seeds as permutations.

    These recipes suffice, by descending induction on d. Suppose every
    actor normalizes the group N of the pivots below level d. Every pivot
    lies in the actors' group, so it normalizes N; the powers and
    same-level commutators of level d's pivots lie in St(d+1) and sift
    into N, so those pivots are elementary abelian modulo N; and x^s =
    x * commutator(x, s) keeps the group of level d and below invariant
    under each actor s. So a commutator of pivots of two levels already
    lies in the chain.

    Spin: `_spin` then closes the deepest level under conjugation by the
    kept seeds or the pivots above that level, whichever are fewer (the
    pivots when no seed is kept), and by the conjugators. The group is
    generated by either set together with the deepest level (with the
    conjugators' conjugates of the seeds, for a normal closure), and the
    deepest level, in the abelian St(n-1), acts trivially on itself. This
    stands in for the recipes of a deepest pivot h: its p-th power and its
    same-level commutators are trivial, and commutator(h, s) = h^-1 * h^s
    is in the span of the spun rows. So the levels above get the pivots of
    a worklist that keeps those recipes, in its order, and the deepest
    level gets its span; the induction starts from it.
    """
    conjugators = np.asarray(conjugators, np.int32).reshape(len(conjugators), p**depth)
    if isinstance(seeds, Commutators):
        plain = ()
    else:
        seeds = plain = np.asarray(seeds, np.int32).reshape(len(seeds), p**depth)
    actors = list({s.tobytes(): s for s in (*conjugators, *plain)}.values())
    chain = SubgroupChain(p, depth)
    last = depth - 1
    queue, gens = deque(), [chain.gens]

    def absorb(perms: np.ndarray) -> None:
        seen = list(chain.dims())
        _, _, made = chain._level_pass(perms, insert=True)
        for _, d in made:
            if d < last:
                x = (d, seen[d])
                queue.append(("pow", x))
                queue.extend(("comm", x, (d, j)) for j in range(seen[d]))
                queue.extend(("comm", x, s) for s in actors)
            seen[d] += 1

    for perms, labels in _seed_batches(p, depth, seeds):
        gens.append(labels)
        absorb(perms)
    while queue:
        batch = [queue.popleft() for _ in range(min(BATCH, len(queue)))]
        absorb(_build(batch, p, [lv.perms() for lv in chain.levels[:last]]))
    chain.gens = np.concatenate(gens)
    _spin(chain, conjugators)
    return chain


def _seed_batches(p: int, depth: int, seeds):
    """The seeds up to BATCH at a time, as (leaf permutations, int16 labels
    to keep): slices of a stack, or `Commutators` built from their pairs
    just before they are needed. Without `keep`, a batch is less identities
    and repeats and its labels are empty."""
    if isinstance(seeds, Commutators):
        xs, ys, ii, jj, keep = seeds
        stacks = (perm_commutator(xs[ii[s : s + BATCH]], ys[jj[s : s + BATCH]]) for s in range(0, len(ii), BATCH))
    else:
        keep = True
        stacks = (seeds[s : s + BATCH] for s in range(0, len(seeds), BATCH))
    kept = {bytes(2 * label_count(p, depth))}  # the identity's labels, never sifted
    none = np.empty((0, label_count(p, depth)), np.int16)  # not labels[:0], a view that keeps its batch alive
    for perms in stacks:
        labels = perm_labels(p, depth, perms).astype(np.int16)
        if not keep:
            new = [i for i, g in enumerate(map(np.ndarray.tobytes, labels)) if not (g in kept or kept.add(g))]
            perms, labels = perms[new], none
        yield perms, labels


def _build(recipes: list[tuple], p: int, stacks=()) -> np.ndarray:
    """The leaf permutations close_chain's recipes stand for, one row each.

    An operand (d, i) is row i of stacks[d]. Recipes of one kind are built
    together, from stacks of their operands, by the leaf-permutation
    arithmetic of `portraits`.
    """
    recipes = [[stacks[a[0]][a[1]] if isinstance(a, tuple) else a for a in item] for item in recipes]
    out = np.empty((len(recipes), len(recipes[0][1])), dtype=np.int32)
    kinds: dict[str, list[int]] = {}
    for i, item in enumerate(recipes):
        kinds.setdefault(item[0], []).append(i)
    for kind, idx in kinds.items():
        args = [np.array(arg) for arg in zip(*(recipes[i][1:] for i in idx))]
        out[idx] = perm_power(args[0], p) if kind == "pow" else perm_commutator(*args)
    return out


def _image_chain(p: int, depth: int, images: np.ndarray) -> SubgroupChain:
    """Chain of psi(H), from the images under a homomorphism psi of H's pivots.

    `images` stacks the leaf permutations of psi(g_1), ..., psi(g_m), for the
    pivots g_1, ..., g_m of a chain of H in level order. The staircase
    products H_i of g_i, ..., g_m form a subgroup series, with H_{i+1} of
    index p in H_i and normal in it: below H ∩ St(d), the subgroups that
    contain H ∩ St(d+1) are normal, because St(d)/St(d+1) is abelian. So
    psi(H_{i+1}) is normal of index 1 or p in psi(H_i) = <psi(g_i),
    psi(H_{i+1})>, and a complete chain of psi(H_{i+1}) becomes one of
    psi(H_i) by sifting psi(g_i) and inserting its residual when it fails.
    One inserting level pass over psi(g_m), ..., psi(g_1), in that order,
    therefore closes nothing.
    """
    chain = SubgroupChain(p, depth)
    chain._level_pass(images[::-1], insert=True)
    return chain


def _spin(chain: SubgroupChain, conjugators: np.ndarray) -> None:
    """Close the deepest level of the chain under conjugation by its kept
    seeds or the pivots above that level, whichever are fewer, and by the
    conjugators, a stack of leaf permutations. A chain that keeps no seeds
    takes the pivots: its seeds, if any, were sifted and not kept.

    For h in St(n-1) with level-(n-1) labels v, the labels of g h g^-1 are
    v[sigma_g], where sigma_g is g's action on the level-(n-1) vertices, and
    g^-1 acts as a power of g. So the level is an F_p-subspace to spin: every
    row, the ones the spin adds included, is permuted by every sigma_g, one
    actor at a time, reduced by the level's rows and, when something is
    left, brought to echelon form and appended as one stack of rows. A
    seed's sigma_g is built from its labels above level n-1 (`gens`), a
    pivot's read off its leaf permutation. The reduction v - v[cols] @ E is
    zero on the pivot columns, where E is the identity, so it is taken on
    the other columns only. Returns before any matrix work when there is
    nothing to spin: depth at most 1, an empty deepest level, or only
    actors that fix level n-1.
    """
    p, depth = chain.p, chain.depth
    if depth <= 1 or not len(chain.levels[-1]):
        return
    upper = chain.levels[:-1]
    if 0 < len(chain.gens) <= sum(map(len, upper)):
        actors = _perm_from_labels(p, depth - 1, chain.gens[:, : level_offsets(p, depth)[-2]])
    else:
        actors = np.concatenate([lv.perms() for lv in upper])[:, ::p] // p
    sigmas: dict[bytes, np.ndarray] = {}
    for sigma in (*actors, *conjugators[:, ::p] // p):
        if not np.array_equal(sigma, identity_perm(p, depth - 1)):
            sigmas.setdefault(sigma.tobytes(), sigma)
    lv = chain.levels[-1]
    done = 0
    while sigmas and done < len(lv):
        fresh, done = lv.rows[done:], len(lv)
        for sigma in sigmas.values():
            cols, _, ech, _ = lv.state()
            free = np.delete(np.arange(ech.shape[1]), cols)
            v = fresh[:, sigma]
            v[:, free] = (v[:, free] - _residue_matmul(v[:, cols], ech[:, free], p)) % p
            v[:, cols] = 0
            v = v[v.any(axis=1)]
            if len(v):
                rows, new_cols = row_echelon(v, p)
                lv.append(new_cols, rows)


def level_kernel_chain(chain: SubgroupChain, k: int) -> SubgroupChain:
    """Sub-chain of the elements trivial to depth k: the chain's own levels
    k and below, shared with it, sift state included; no generators."""
    if not 0 <= k <= chain.depth:
        raise ChainError(f"kernel level {k} outside 0..{chain.depth}")
    out = SubgroupChain(chain.p, chain.depth)
    out.levels[k:] = chain.levels[k:]
    return out


def section_chain(chain: SubgroupChain, vertex: tuple[int, ...]) -> SubgroupChain:
    """Chain of the sections at `vertex` of the stabilizer of `vertex` in the chain group.

    When every pivot fixes the vertex, so does the whole group, and taking
    sections at it is a homomorphism on the group: the sections of the
    pivots, one slice of their leaf permutations, are absorbed in reverse
    level order (`_image_chain`) and no closure is needed. Otherwise the
    stabilizer's Schreier generators are cut down to sections and closed.
    """
    p, depth = chain.p, chain.depth
    k = len(vertex)
    if not 0 < k <= depth:
        raise ChainError(f"vertex length {k} outside 1..{depth}")
    width = p ** (depth - k)
    start = vertex_position(vertex, p) * width
    stack = chain.perms()
    if (stack[:, start] // width == start // width).all():
        return _image_chain(p, depth - k, stack[:, start : start + width] - start)
    # Vertices are positions in level k: acts[v][i] is the image of v under
    # pivot i, and orbit[v] where an element taking ours to v takes the leaves below ours.
    acts = (stack[:, ::width] // width).T
    orbit = {start // width: identity_perm(p, depth)[start : start + width]}
    frontier = deque(orbit)
    while frontier:
        v = frontier.popleft()
        for g, w in zip(stack, acts[v].tolist()):
            if w not in orbit:
                orbit[w] = perm_compose(orbit[v], g)
                frontier.append(w)
    ts = np.stack(list(orbit.values()))
    back = np.zeros((p**k, width), np.int32)  # row w: the inverse of orbit[w], from w's block back to ours
    back[list(orbit)] = perm_invert(ts % width)
    # Row i of v's block: the section at our vertex, which it fixes, of t * g_i * orbit[w]^-1,
    # with t = orbit[v] and w the vertex that t * g_i takes ours to.
    secs = perm_compose(np.concatenate([perm_compose(t, stack) for t in ts]), back.ravel())
    # The distinct ones in first-seen order, the identity left out.
    kept = {identity_perm(p, depth - k).tobytes()}
    new = [i for i, g in enumerate(map(np.ndarray.tobytes, secs)) if not (g in kept or kept.add(g))]
    return close_chain(p, depth - k, secs[new])


def section_exponents(chain: SubgroupChain, gen_perms: np.ndarray, k: int) -> list[int]:
    """Order exponents of the chain's sections at the level-k vertices, in position order.

    Precondition: the chain's group N is normal in the group G that the
    stack `gen_perms` generates. A quotient's level kernels, derived
    subgroup, third lower-central term and normal closures are normal in
    it, and the checks pass its generators. Lemma: if g in G takes vertex
    u to v, conjugation by g takes N's stabilizer of u onto that of v, and
    the section at v of g^-1 h g is the section at u of h conjugated by g's
    section at u; so the sections at u and at v have one order, and the
    exponent is constant on each orbit of G on level k. The orbits are read
    off the generators' action on the level-k positions; `section_chain`
    runs once per orbit, at its smallest position, whose exponent the
    orbit's other positions copy.
    """
    p = chain.p
    if not 0 < k <= chain.depth:
        raise ChainError(f"vertex length {k} outside 1..{chain.depth}")
    width = p ** (chain.depth - k)
    acts = (np.asarray(gen_perms)[:, ::width] // width).T.tolist()
    exps: list = [None] * p**k
    for start in range(p**k):
        if exps[start] is not None:
            continue
        vertex = tuple(int(x) + 1 for x in np.unravel_index(start, (p,) * k))
        exps[start] = exp = section_chain(chain, vertex).order_exponent()
        frontier = [start]
        while frontier:
            for w in acts[frontier.pop()]:
                if exps[w] is None:
                    exps[w] = exp
                    frontier.append(w)
    return exps


def planted(p: int, depth: int, perms: np.ndarray, positions) -> np.ndarray:
    """Copies of a stack of smaller-depth leaf permutations planted below
    the vertices at the given positions of one level, vertex by vertex,
    each acting trivially outside its vertex's subtree (`Portrait.embed`)."""
    m, width = perms.shape
    copies = np.tile(identity_perm(p, depth), (len(positions) * m, 1))
    for i, j in enumerate(positions):
        copies[i * m : (i + 1) * m, j * width : (j + 1) * width] = perms + j * width
    return copies


def block_product_chain(p: int, depth: int, k: int, sub: SubgroupChain) -> SubgroupChain:
    """Chain generated by copies of `sub` planted below every depth-k vertex.

    The copies commute and meet trivially, so their pivots, vertex by vertex
    in breadth-first order, are the pivots of a chain of the product, and
    `_image_chain` takes them in without a closure.
    """
    if sub.p != p or sub.depth != depth - k:
        raise ChainError(f"a depth-{sub.depth} chain does not fit below depth {k} of depth {depth}")
    return _image_chain(p, depth, planted(p, depth, sub.perms(), range(p**k)))


# -- persistent store -----------------------------------------------------------


CACHE_FORMAT = 3


class ChainStore:
    """Memoizes chains in memory and, when given a directory, on disk as JSON.

    A file is used only when it has the current format, the requested p and
    depth, a digest that matches its generators and levels, and pivots that
    pass `_chain_from_dict`'s checks; any other file is rebuilt and replaced.
    """

    def __init__(self, cache_dir: str | None = None):
        self.cache_dir = cache_dir
        self.mem: dict[tuple[str, int, str], SubgroupChain] = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def _path(self, datum: NumericalDatum, level: int, descriptor: str) -> str:
        digest = sha256(f"{datum.to_text()}|{level}|{descriptor}".encode()).hexdigest()[:32]
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
            except (ValueError, KeyError, TypeError, IndexError, OverflowError, OSError):
                chain = None
        if chain is None:
            chain = builder()
            if path:
                _write_atomic(path, _chain_json(chain))
        self.mem[key] = chain
        return chain


def _write_atomic(path: str, pieces) -> None:
    """Write the pieces of ASCII text one at a time to a temporary file beside
    `path`, then move it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _chain_json(chain: SubgroupChain):
    """A chain's cache file, the text of json.dumps with the separators ","
    and ":" of {"v": 3, "p", "depth", "gens": the kept seeds' labels,
    "levels": one list per level of [column, [], representative's labels],
    "sha256": chain_digest}, yielded in pieces of at most one seed or one
    pivot each, so writing a file encodes no more than one at a time. The
    row slot stays empty: a pivot's row is its representative's level-d
    labels. Files spaced with ", " and ": " load the same way."""
    levels = [(lv.cols, lv.rows, lv.labels()) for lv in chain.levels]
    yield f'{{"v":{CACHE_FORMAT},"p":{chain.p},"depth":{chain.depth},"gens":'
    yield from _json_list(labels.tolist() for labels in chain.gens)
    yield ',"levels":['
    for d, (cols, _, reps) in enumerate(levels):
        yield "," if d else ""
        yield from _json_list([col, [], rep.tolist()] for col, rep in zip(cols.tolist(), reps))
    yield f'],"sha256":"{_digest(chain.gens, levels)}"}}'


def _json_list(items):
    """The compact JSON text of a list, one item's json.dumps at a time."""
    yield "["
    for i, item in enumerate(items):
        yield ("," if i else "") + json.dumps(item, separators=(",", ":"))
    yield "]"


def chain_digest(chain: SubgroupChain) -> str:
    """sha256 over the generators' labels and every pivot's column, row and labels.

    It hashes the arrays rather than their JSON text, so checking a file
    costs no second encoding of it.
    """
    return _digest(chain.gens, [(lv.cols, lv.rows, lv.labels()) for lv in chain.levels])


def _digest(gens: np.ndarray, levels) -> str:
    """chain_digest of the generators' labels and each level's (columns,
    rows, representatives' labels), labels int16 and rows hashed as int64;
    an empty level may be ((), (), ())."""
    h = sha256(f"gens {len(gens)}".encode())
    h.update(gens.tobytes())
    for d, (cols, rows, reps) in enumerate(levels):
        h.update(f"level {d}: {len(cols)}".encode())
        for col, row, rep in zip(cols, np.asarray(rows, dtype=np.int64), reps):
            h.update(f"col {col}".encode())
            h.update(row.tobytes())
            h.update(rep.tobytes())
    return h.hexdigest()


def _chain_from_dict(data: dict, p: int, depth: int) -> SubgroupChain:
    """The chain a cache file holds; ValueError when the file fails a check.

    The generators and each level's representatives are read as one int16
    stack each and checked as a whole: residues mod p, no label above level
    d, an empty row slot, and a 1 in the pivot column of the level-d labels,
    as `_eliminate` stores them. Those labels, a slice of the stack, are the
    level's rows. The digest is taken over the same stacks. Then each level
    is appended as one stack: its columns, its rows and, above the deepest
    level, the representatives' leaf permutations, built from their labels
    in one call.
    """
    if data["v"] != CACHE_FORMAT or data["p"] != p or data["depth"] != depth:
        raise ValueError("cache file has another format, p or depth")
    if len(data["levels"]) != depth:
        raise ValueError("cache file has the wrong number of levels")
    gens = _label_stack(p, depth, data["gens"])
    chain = SubgroupChain(p, depth, gens=gens)
    offs = level_offsets(p, depth)
    levels = []
    for d, lv in enumerate(data["levels"]):
        if not lv:
            levels.append(((), (), ()))
            continue
        if any(len(entry) != 3 or entry[1] != [] for entry in lv):
            raise ValueError(f"cache file level {d} has a malformed pivot")
        cols, _, reps = zip(*lv)
        cols = np.array(cols)
        reps = _label_stack(p, depth, reps)
        rows = reps[:, offs[d] : offs[d + 1]]
        if (
            cols.dtype.kind != "i"
            or reps[:, : offs[d]].any()
            or not ((0 <= cols) & (cols < p**d)).all()
            or not (rows[np.arange(len(lv)), cols] == 1).all()
        ):
            raise ValueError(f"cache file level {d} has an inconsistent pivot")
        levels.append((cols, rows, reps))
    if data["sha256"] != _digest(gens, levels):
        raise ValueError("cache file digest does not match its contents")
    for d, (cols, rows, reps) in enumerate(levels):
        if len(cols):
            chain.levels[d].append(cols, rows, _perm_from_labels(p, depth, reps) if d < depth - 1 else None)
    return chain


def _label_stack(p: int, depth: int, labels) -> np.ndarray:
    """Label lists as one read-only int16 stack, one row per portrait."""
    total = level_offsets(p, depth)[-1]
    stack = np.array(labels, dtype=np.int16) if len(labels) else np.empty((0, total), np.int16)
    if stack.shape != (len(labels), total) or (stack.size and (stack.min() < 0 or stack.max() >= p)):
        raise ValueError("cache file has a portrait with the wrong labels")
    stack.setflags(write=False)
    return stack


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
        if level < 0:
            raise ChainError(f"level must be nonnegative, got {level}")
        # Multiply up to the guard rather than build p^level, which may be huge.
        degree, step = 1, 0
        while degree <= degree_guard and step < level:
            degree *= datum.p
            step += 1
        if degree > degree_guard:
            shown = degree if step == level else f"{datum.p}^{level}"
            raise DegreeGuardError(f"degree {shown} exceeds the guard {degree_guard}")
        self.datum = datum
        self.level = level
        self.store = store if store is not None else ChainStore()
        self.gen_perms = np.stack([g.perm for g in generator_portraits(datum, level).values()])

    # -- chain accessors -----------------------------------------------------

    def chain(self, descriptor: str) -> SubgroupChain:
        """The chain a descriptor names, from the store; a level kernel
        `kernel:k` is a view of the full chain and is neither stored nor built."""
        if descriptor.startswith("kernel:"):
            return level_kernel_chain(self.chain("full"), int(descriptor.split(":", 1)[1]))
        return self.store.get_or_build(
            self.datum, self.level, descriptor, lambda: self._build(descriptor)
        )

    def _build(self, descriptor: str) -> SubgroupChain:
        """Close the chain a descriptor names. `full`, `derived` and `gamma3`
        keep every seed their definition names; `second-derived`,
        `kernel-derived:k` and `kernel-gamma3:k`, seeded with commutators of
        another chain's pivots, sift those that can add something and keep
        none (`_pivot_commutators`)."""
        p, n, gens = self.datum.p, self.level, self.gen_perms
        if descriptor == "full":
            return close_chain(p, n, gens)
        if descriptor == "derived":
            return close_chain(p, n, Commutators(gens, gens, *np.triu_indices(len(gens), 1)), conjugators=gens)
        if descriptor == "gamma3":
            d = self.chain("derived").perms()
            pairs = np.indices((len(d), len(gens))).reshape(2, -1)
            return close_chain(p, n, Commutators(d, gens, *pairs), conjugators=gens)
        if descriptor == "second-derived" or descriptor.startswith("kernel-derived:"):
            k = descriptor.partition(":")[2]
            h = self.chain("derived" if descriptor == "second-derived" else f"kernel:{int(k)}")
            return pivot_derived_chain(h)
        if descriptor.startswith("kernel-gamma3:"):
            k = int(descriptor.split(":", 1)[1])
            seeds = _pivot_commutators(self.chain(f"kernel-derived:{k}"), self.chain(f"kernel:{k}"))
            return close_chain(p, n, seeds, conjugators=seeds.ys)
        raise ChainError(f"unknown chain descriptor {descriptor!r}")

    def full(self) -> SubgroupChain:
        return self.chain("full")

    def derived(self) -> SubgroupChain:
        return self.chain("derived")

    def gamma3(self) -> SubgroupChain:
        return self.chain("gamma3")

    def kernel(self, k: int) -> SubgroupChain:
        return self.chain(f"kernel:{k}")

    def kernel_derived(self, k: int) -> SubgroupChain:
        return self.chain(f"kernel-derived:{k}")

    def order(self) -> int:
        return self.full().order()

    def order_exponent(self) -> int:
        return self.full().order_exponent()

    def normal_closure(self, elements) -> SubgroupChain:
        """Chain of the normal closure of the given portraits."""
        return close_chain(self.datum.p, self.level, [g.perm for g in elements], conjugators=self.gen_perms)


def pivot_derived_chain(h: SubgroupChain) -> SubgroupChain:
    """Chain of the derived subgroup of the group a chain holds: seeded with
    the commutators of its pivots that can add something
    (`_pivot_commutators`), closed under conjugation by its pivots, the
    seeds' own stack."""
    seeds = _pivot_commutators(h, h)
    return close_chain(h.p, h.depth, seeds, conjugators=seeds.xs)


def _pivot_commutators(xs: SubgroupChain, ys: SubgroupChain) -> Commutators:
    """commutator(x, y) for the pivots x of `xs` and y of `ys` (x before y when
    they are one chain), in that order, as seeds the closure does not keep
    (`Commutators.keep`): it sifts no identity or repeat of an earlier seed,
    and no pair of two deepest pivots is formed, as in `close_chain`, since
    St(n-1) is abelian. The closure is the same group. One chain's pivots
    are built as one stack, which is both `xs` and `ys` of the seeds."""
    xp = xs.perms()
    yp = xp if xs is ys else ys.perms()
    x_top, y_top = (sum(c.dims()[:-1]) for c in (xs, ys))
    ii, jj = np.indices((len(xp), len(yp))).reshape(2, -1)
    formed = ((ii < x_top) | (jj < y_top)) & ((jj > ii) if xs is ys else True)
    return Commutators(xp, yp, ii[formed], jj[formed], keep=False)


quotient = FiniteQuotient
