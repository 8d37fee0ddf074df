import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from megs import chains
from megs.chains import (
    ChainError,
    ChainLevel,
    ChainStore,
    DegreeGuardError,
    SubgroupChain,
    CACHE_FORMAT,
    _chain_json,
    _residue_matmul,
    _write_atomic,
    block_product_chain,
    chain_digest,
    close_chain,
    level_kernel_chain,
    quotient,
    section_chain,
    section_exponents,
)
from megs.checks import SUITE_DATA
from megs.cli import main
from megs.datum import NumericalDatum, generator_portraits
from megs.fp import rank_mod, row_echelon
from megs.portraits import Portrait, commutator, label_count, level_offsets, perm_labels

GS = NumericalDatum.from_text("p = 3; E1 = (1, 2)")
S22 = NumericalDatum.from_text("p = 3; E1 = (2, 2)")
CONST = NumericalDatum.from_text("p = 3; E1 = (1, 1); E2 = (1, 1)")


def brute_closure(p, depth, seeds, conjugators=()):
    """Subgroup elements in discovery order, closed under the seeds and conjugation."""
    ident = Portrait.identity(p, depth)
    out = [ident]
    seen = {ident}
    frontier = deque([ident])
    steps = list(seeds) + [~h for h in seeds]
    conjugations = [(~c, c) for c in conjugators]
    while frontier:
        g = frontier.popleft()
        cands = [g * h for h in steps] + [c_inv * g * c for c_inv, c in conjugations]
        for nxt in cands:
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
                frontier.append(nxt)
    return out


def test_full_chain_matches_brute_force():
    for datum, level, expected in ((GS, 2, 27), (S22, 2, 81), (GS, 3, 2187)):
        q = quotient(datum, level)
        gens = list(generator_portraits(datum, level).values())
        elements = brute_closure(datum.p, level, gens)
        assert len(elements) == expected
        assert q.order() == expected
        rng = random.Random(7)
        for _ in range(40):
            assert q.full().contains(rng.choice(elements))


# A p = 3 family is {0}, one of the four lines of F_3^2 or the plane: the
# directed generators of a family commute and b_v b_w = b_(v+w), so the group
# depends only on each family's span.
P3_SPANS = ((), ((1, 0),), ((0, 1),), ((1, 1),), ((1, 2),), ((1, 0), (0, 1)))


def _assert_full_and_derived_match_brute_force(datum, depth):
    """Orders of `full` and `derived`, and membership of every element brute
    force enumerates; derived is the closure of the generators' commutators
    under conjugation by the generators."""
    q = quotient(datum, depth)
    gens = list(generator_portraits(datum, depth).values())
    comms = [commutator(x, y) for i, x in enumerate(gens) for y in gens[i + 1 :]]
    cases = ((q.full(), brute_closure(3, depth, gens)), (q.derived(), brute_closure(3, depth, comms, gens)))
    for chain, elements in cases:
        assert chain.order() == len(elements), datum.canonical_line()
        assert (chain.sift_batch(np.stack([g.perm for g in elements]))[0] < 0).all(), datum.canonical_line()


def test_every_p3_span_class_matches_brute_force_at_depth_2():
    data = [NumericalDatum(3, fams) for fams in iter_product(P3_SPANS, repeat=3) if any(fams)]
    assert len(data) == 215
    for datum in data:
        _assert_full_and_derived_match_brute_force(datum, 2)


@pytest.mark.parametrize("line", P3_SPANS[1:5])
def test_one_family_lines_match_brute_force_at_depth_3(line):
    _assert_full_and_derived_match_brute_force(NumericalDatum(3, (line, (), ())), 3)


def test_derived_and_gamma3_match_brute_force():
    q = quotient(S22, 2)
    gens = list(generator_portraits(S22, 2).values())
    elements = brute_closure(3, 2, gens)
    derived_seeds = list({commutator(x, y) for x in elements for y in elements})
    derived = brute_closure(3, 2, derived_seeds)
    assert q.derived().order() == len(derived) == 9
    assert all(q.derived().contains(g) for g in derived)
    gamma3_seeds = list({commutator(x, y) for x in elements for y in derived})
    gamma3 = brute_closure(3, 2, gamma3_seeds)
    assert q.gamma3().order() == len(gamma3) == 3
    assert all(q.gamma3().contains(g) for g in gamma3)


def test_level_kernel_matches_brute_force():
    q = quotient(S22, 2)
    elements = brute_closure(3, 2, list(generator_portraits(S22, 2).values()))
    fixed = [g for g in elements if all(g.act((x,)) == (x,) for x in range(1, 4))]
    kernel = q.kernel(1)
    assert kernel.order() == len(fixed) == 27
    assert all(kernel.contains(g) for g in fixed)


def test_section_chain_matches_brute_force():
    q = quotient(GS, 2)
    elements = brute_closure(3, 2, list(generator_portraits(GS, 2).values()))
    for vertex in ((1,), (2,), (3,)):
        stab = [g for g in elements if g.act(vertex) == vertex]
        sections = {g.section(vertex) for g in stab}
        chain = section_chain(q.full(), vertex)
        assert chain.order() == len(sections)
        assert all(chain.contains(s) for s in sections)


def test_elements_enumerates_the_subgroup():
    q = quotient(GS, 2)
    kernel = q.kernel(1)
    listed = kernel.elements()
    assert len(listed) == kernel.order() == 9
    assert len({g.tobytes() for g in listed}) == 9
    assert (kernel.sift_batch(listed)[0] < 0).all()


def test_frozen_single_12_orders():
    store = ChainStore()
    q4 = quotient(GS, 4, store=store)
    assert q4.full().dims() == (1, 2, 4, 12)
    assert q4.order_exponent() == 19
    assert q4.derived().order_exponent() == 17


def test_frozen_single_22_orders():
    store = ChainStore()
    assert quotient(S22, 2, store=store).order_exponent() == 4
    q3 = quotient(S22, 3, store=store)
    assert q3.order_exponent() == 9
    assert q3.derived().order_exponent() == 7
    assert q3.gamma3().order_exponent() == 6
    assert q3.kernel(1).order_exponent() == 8
    assert q3.kernel_derived(1).order_exponent() == 5
    assert q3.chain("kernel-gamma3:1").order_exponent() == 3


def test_frozen_constant_pair_orders():
    store = ChainStore()
    assert quotient(CONST, 2, store=store).order_exponent() == 4
    q4 = quotient(CONST, 4, store=store)
    assert q4.order_exponent() == 27
    assert q4.kernel_derived(1).order_exponent() == 20


PINNED = [
    ("p = 3; E1 = (2, 2)", 4, "full"),
    ("p = 3; E1 = (2, 2)", 4, "derived"),
    ("p = 3; E1 = (2, 2)", 4, "gamma3"),
    ("p = 5; E1 = (1, 2, 0, 0)", 3, "full"),
    ("p = 5; E1 = (1, 2, 0, 0)", 3, "derived"),
    ("p = 3; E1 = (2, 2)", 5, "full"),
    ("p = 3; E1 = (2, 2)", 5, "derived"),
    ("p = 3; E1 = (2, 2)", 5, "gamma3"),
    ("p = 3; E1 = (1, 2)", 5, "full"),
    ("p = 3; E1 = (1, 0), (0, 1)", 5, "full"),
]


PINNED_DIGESTS = [
    "e24972157182912a",
    "049fdcf5d360f81f",
    "53265c6fc0d5dcc9",
    "aeb1f6492fc94f7a",
    "f60d738630531963",
    "bdc6cbc43709ae30",
    "5be59c67da307343",
    "62492afbb0286852",
    "3764d3817c4d5251",
    "004afd7123c3b2e1",
]


@pytest.mark.parametrize(
    "text, level, descriptor, digest", [(*case, digest) for case, digest in zip(PINNED, PINNED_DIGESTS)]
)
def test_pivot_order_is_pinned(text, level, descriptor, digest):
    # The digest covers every pivot's labels in insertion order, which
    # witness portraits and cache files depend on; a closure that changes
    # how it finds pivots must leave them where they were.
    chain = quotient(NumericalDatum.from_text(text), level).chain(descriptor)
    assert chain_digest(chain)[:16] == digest


@pytest.mark.parametrize("batch", [1, 16, chains.BATCH])
def test_pivots_do_not_depend_on_the_batch_width(batch, monkeypatch):
    # Every recipe a batch enqueues goes behind the whole queue, and one level
    # pass finds the pivots of inserting its rows one at a time.
    monkeypatch.setattr(chains, "BATCH", batch)
    for case, digest in zip(PINNED, PINNED_DIGESTS):
        chain = quotient(NumericalDatum.from_text(case[0]), case[1]).chain(case[2])
        assert chain_digest(chain)[:16] == digest, case


def test_a_closure_makes_one_level_pass_per_batch(monkeypatch):
    calls = {"pass": 0, "batch": 0}
    level_pass, build, seed_batches = SubgroupChain._level_pass, chains._build, chains._seed_batches

    def counted_pass(self, perms, insert=False):
        calls["pass"] += 1
        return level_pass(self, perms, insert)

    def counted_build(recipes, p, stacks=()):
        calls["batch"] += 1
        return build(recipes, p, stacks)

    def counted_seed_batches(p, depth, seeds):
        for batch in seed_batches(p, depth, seeds):
            calls["batch"] += 1
            yield batch

    monkeypatch.setattr(SubgroupChain, "_level_pass", counted_pass)
    monkeypatch.setattr(chains, "_build", counted_build)
    monkeypatch.setattr(chains, "_seed_batches", counted_seed_batches)
    chain = quotient(S22, 5).full()
    assert chain.order_exponent() == 64
    # Re-sifting the rows left after each insertion would make a pass per pivot.
    assert calls == {"pass": 7, "batch": 7}


def test_the_deep_chains_take_the_pinned_level_passes_and_rows(monkeypatch):
    # The five chains of the benchmark's deep-p3 round, at n = 5. A closure
    # that also sifted the commutators of pivots of two levels made 44
    # passes over 1,798 rows.
    calls = {"pass": 0, "rows": 0}
    level_pass = SubgroupChain._level_pass

    def counted_pass(self, perms, insert=False):
        calls["pass"] += 1
        calls["rows"] += len(perms)
        return level_pass(self, perms, insert)

    monkeypatch.setattr(SubgroupChain, "_level_pass", counted_pass)
    for text, descriptors in (
        ("p = 3; E1 = (2, 2)", ("full", "derived", "gamma3")),
        ("p = 3; E1 = (1, 2)", ("full",)),
        ("p = 3; E1 = (1, 0), (0, 1)", ("full",)),
    ):
        q = quotient(NumericalDatum.from_text(text), 5)
        for descriptor in descriptors:
            q.chain(descriptor)
    assert calls == {"pass": 34, "rows": 1159}


def test_inverse_powers_are_built_once_per_pivot_above_the_deepest_level(monkeypatch):
    # `_eliminate` builds them for each pivot it inserts and the level keeps
    # that stack for its sift state.
    calls = []
    perm_powers = chains.perm_powers

    def counted(x, e):
        calls.append(1)
        return perm_powers(x, e)

    monkeypatch.setattr(chains, "perm_powers", counted)
    chain = quotient(S22, 6).full()
    assert sum(chain.dims()[:-1]) == 64
    assert len(calls) == 64


def test_a_deepest_level_keeps_its_rows_and_no_permutations():
    chain = quotient(S22, 5).full()
    deepest = chain.levels[-1]
    kept = [getattr(deepest, name) for name in ChainLevel.__slots__]
    assert not any(isinstance(a, np.ndarray) and a.shape[-1] == 3**5 for a in kept)
    assert deepest._unpow == []
    # Its representatives are the portraits of its rows alone.
    assert np.array_equal(perm_labels(3, 5, deepest.perms()), deepest.labels())
    assert not deepest.labels()[:, : level_offsets(3, 5)[4]].any()
    assert np.array_equal(deepest.labels()[:, level_offsets(3, 5)[4] :], deepest.rows)


def upper_and_deepest_span(chain):
    """Digests of the generators with every level above the deepest, and of the deepest span.

    The first covers those pivots in insertion order; the second hashes the
    reduced row echelon form of the deepest rows, which only their span fixes.
    """
    upper = SubgroupChain(chain.p, chain.depth, chain.gens)
    for lv, theirs in zip(upper.levels[:-1], chain.levels):
        lv.append(theirs.cols, theirs.rows, theirs.perms())
    ech, _ = row_echelon(chain.levels[-1].rows, chain.p)
    return chain_digest(upper)[:16], hashlib.sha256(ech.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "text, level, descriptor, upper, span",
    [
        (*case, *digests)
        for case, digests in zip(
            PINNED,
            [
                ("871a0186bb7ed297", "19d1f1da76e3e011"),
                ("75d5a1b8b652cbec", "19d1f1da76e3e011"),
                ("b996a1d18f818063", "19d1f1da76e3e011"),
                ("170f1cd7cb49c29f", "7bf3b4992412f018"),
                ("ff528c5dc604f7ac", "7bf3b4992412f018"),
                ("d874145f2e4afdb1", "57afc95dcdc5f099"),
                ("003fefae69e370a4", "57afc95dcdc5f099"),
                ("81507c88d83d2523", "57afc95dcdc5f099"),
                ("2260beaa0852a7b2", "03ea633bf3d2e972"),
                ("a560e412c0849db4", "8e1d30920947e351"),
            ],
        )
    ],
)
def test_upper_pivots_and_deepest_span_are_pinned(text, level, descriptor, upper, span):
    # The spans are those of the worklist closure that also sifted every
    # commutator and conjugate of a deepest pivot: spinning the deepest level
    # must keep every pivot above it and the span of its rows. The pivots
    # above are the closure's own, which a change of its recipes moves.
    chain = quotient(NumericalDatum.from_text(text), level).chain(descriptor)
    assert upper_and_deepest_span(chain) == (upper, span)


PIVOT_SEEDED = ["second-derived", "kernel-derived:1", "kernel-gamma3:1"]


@pytest.mark.parametrize(
    "text, level, descriptor, upper, span",
    [
        (text, level, descriptor, *digests)
        for (text, level), row in [
            (
                ("p = 3; E1 = (2, 2)", 4),
                [
                    ("aeec97b760023f31", "e0676e44ee494156"),
                    ("2fcbc5e6bc3318ef", "19d1f1da76e3e011"),
                    ("8fa67a0183edf972", "19d1f1da76e3e011"),
                ],
            ),
            (
                ("p = 3; E1 = (1, 0), (0, 1)", 5),
                [
                    ("fded0d55d797e853", "8e1d30920947e351"),
                    ("dccf668a77bd1e08", "8e1d30920947e351"),
                    ("1e6095e806cdcda1", "8e1d30920947e351"),
                ],
            ),
            (
                ("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)", 3),
                [
                    ("47fb6dcff2343d47", "7bf3b4992412f018"),
                    ("47fb6dcff2343d47", "7bf3b4992412f018"),
                    ("47fb6dcff2343d47", "1c1ce012855fc84b"),
                ],
            ),
        ]
        for descriptor, digests in zip(PIVOT_SEEDED, row)
    ],
)
def test_chains_seeded_with_pivot_commutators_keep_their_pivots(text, level, descriptor, upper, span):
    # The spans are from when these chains were seeded with every commutator
    # of two pivots. The seeds are left out (a level-0 kernel view has none),
    # since dropping identities and repeats changed them; the pivots above
    # the deepest level and the span of the deepest rows must not change.
    chain = quotient(NumericalDatum.from_text(text), level).chain(descriptor)
    assert upper_and_deepest_span(level_kernel_chain(chain, 0)) == (upper, span)


@pytest.mark.parametrize(
    "text, level, digests",
    [
        (
            "p = 3; E1 = (1, 0), (0, 1)",
            5,
            ["6f567432ed9d81ba", "ef9cbe1697d68913", "c333ba23ddc709e0", "29b70706a50476aa", "f32d8c8501004b67"],
        ),
        (
            "p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)",
            4,
            ["325eb5ed0288f0c9", "30648b392dc41112", "859963af7c1aef5e", "dc3d09e07df4edfc", "27d0c77f738d3814"],
        ),
    ],
)
def test_chains_seeded_with_pivot_commutators_keep_every_pivot(text, level, digests):
    # The digest of the levels alone (a level-0 kernel view has no seeds):
    # every pivot, the deepest basis included, where dropping repeated seeds
    # once moved deepest bases. Values from when these chains kept their seeds.
    q = quotient(NumericalDatum.from_text(text), level)
    descriptors = ["second-derived", "kernel-derived:1", "kernel-derived:2", "kernel-gamma3:1", "kernel-gamma3:2"]
    assert [chain_digest(level_kernel_chain(q.chain(d), 0))[:16] for d in descriptors] == digests


def test_chains_seeded_with_pivot_commutators_keep_no_seeds(tmp_path, monkeypatch):
    rows = []
    seed_batches = chains._seed_batches

    def counted_seed_batches(p, depth, seeds):
        for perms, labels in seed_batches(p, depth, seeds):
            rows.append(len(perms))
            yield perms, labels

    monkeypatch.setattr(chains, "_seed_batches", counted_seed_batches)
    store = ChainStore(cache_dir=str(tmp_path))
    q = quotient(S22, 5, store=store)
    q.full(), q.derived()  # the chains these seeds come from, built first

    def boom():
        raise AssertionError("builder should not run on a warm cache")

    sifted = {}
    for descriptor in PIVOT_SEEDED:
        rows.clear()
        chain = q.chain(descriptor)
        sifted[descriptor] = sum(rows)
        assert chain.gens.shape == (0, label_count(3, 5))
        with open(store._path(S22, 5, descriptor)) as fh:
            assert json.load(fh)["gens"] == []
        reloaded = ChainStore(cache_dir=str(tmp_path)).get_or_build(S22, 5, descriptor, boom)
        assert chain_digest(reloaded) == chain_digest(chain)
    # The seeds sifted, with no identity or repeat; every commutator of two
    # pivots gave 1,891, 1,953 and 3,780.
    assert sifted == {"second-derived": 543, "kernel-derived:1": 697, "kernel-gamma3:1": 1183}


def test_a_chain_whose_seeds_all_drop_is_trivial_and_round_trips(tmp_path):
    # Level 2 of a depth-3 quotient is the deepest, so every commutator of
    # two pivots of `kernel:2` is trivial and none is kept.
    store = ChainStore(cache_dir=str(tmp_path))
    chain = quotient(S22, 3, store=store).kernel_derived(2)
    assert len(chain.gens) == 0 and chain.dims() == (0, 0, 0)
    with open(store._path(S22, 3, "kernel-derived:2"), "rb") as fh:
        assert json.load(fh)["gens"] == []

    def boom():
        raise AssertionError("builder should not run on a warm cache")

    reloaded = ChainStore(cache_dir=str(tmp_path)).get_or_build(S22, 3, "kernel-derived:2", boom)
    assert len(reloaded.gens) == 0 and reloaded.dims() == (0, 0, 0)
    assert chain_digest(reloaded) == chain_digest(chain)


def stacked_seeds(seeds):
    """The seeds a `Commutators` stands for, built and stacked all at once,
    less identities and repeats (compared as permutations) unless it keeps them."""
    perms = chains.perm_commutator(seeds.xs[seeds.ii], seeds.ys[seeds.jj])
    if seeds.keep:
        return perms
    kept = {np.arange(perms.shape[1], dtype=np.int32).tobytes(): None}  # first, so the identity is never kept
    for g in perms:
        kept.setdefault(g.tobytes(), g)
    return np.array(list(kept.values())[1:], dtype=np.int32).reshape(-1, perms.shape[1])


@pytest.mark.parametrize(
    "text, level, descriptor, before, pairs",
    [
        ("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)", 4, "gamma3", "derived", 414),
        ("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)", 4, "kernel-derived:1", "full", 3514),
        ("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)", 4, "kernel-gamma3:1", "kernel-derived:1", 5880),
        ("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)", 4, "second-derived", "derived", 3237),
        ("p = 3; E1 = (2, 2)", 5, "gamma3", "derived", 124),
        ("p = 3; E1 = (2, 2)", 5, "kernel-derived:1", "full", 1133),
        ("p = 3; E1 = (2, 2)", 5, "kernel-gamma3:1", "kernel-derived:1", 2099),
        ("p = 3; E1 = (2, 2)", 5, "second-derived", "derived", 1071),
    ],
)
def test_commutator_seeds_are_built_once_a_batch_at_a_time(text, level, descriptor, before, pairs, monkeypatch):
    # The closure builds each seed commutator from its index pair just before
    # the level pass that sifts it, at most BATCH at a time, and gets the
    # chain that building every seed in one stack gives.
    q = quotient(NumericalDatum.from_text(text), level)
    q.chain(before)
    rows, sifted, captured = [], [], {}
    comm, close, seed_batches = chains.perm_commutator, chains.close_chain, chains._seed_batches

    def counted_comm(x, y):
        rows.append(len(x))
        return comm(x, y)

    def captured_seed_batches(p, depth, seeds):
        for perms, labels in seed_batches(p, depth, seeds):
            sifted.append(perms)
            yield perms, labels

    def capturing_close(p, depth, seeds, conjugators=()):
        captured.update(seeds=seeds, conjugators=conjugators)
        return close(p, depth, seeds, conjugators)

    monkeypatch.setattr(chains, "perm_commutator", counted_comm)
    monkeypatch.setattr(chains, "close_chain", capturing_close)
    monkeypatch.setattr(chains, "_seed_batches", captured_seed_batches)
    chain = q.chain(descriptor)
    streamed = sum(rows)
    seeds = captured["seeds"]
    assert isinstance(seeds, chains.Commutators) and len(seeds.ii) == pairs
    assert max(rows) <= chains.BATCH
    assert np.array_equal(np.concatenate(sifted), stacked_seeds(seeds))
    # `gamma3` keeps its seeds; the chains seeded with pivot commutators keep none.
    assert seeds.keep == (descriptor == "gamma3")
    if seeds.keep:
        assert np.array_equal(chain.gens, perm_labels(q.datum.p, level, stacked_seeds(seeds)))
    else:
        assert chain.gens.shape == (0, label_count(q.datum.p, level))
    rows.clear()
    monkeypatch.setattr(chains, "BATCH", pairs)
    reference = close(q.datum.p, level, seeds, captured["conjugators"])
    # The seeds in one stack, then the same recipe commutators.
    assert rows[0] == pairs and sum(rows) == streamed
    assert chain_digest(chain) == chain_digest(reference)


@pytest.mark.parametrize(
    "text, level, circulant",
    [("p = 3; E1 = (2, 2)", 6, False), ("p = 3; E1 = (1, 2)", 6, True), ("p = 5; E1 = (1, 2, 0, 0)", 5, True),
     ("p = 3; E1 = (2, 2)", 7, False), ("p = 3; E1 = (1, 2)", 7, True)],
)
def test_orders_follow_the_known_formulas_beyond_brute_force(text, level, circulant):
    datum = NumericalDatum.from_text(text)
    p = datum.p
    if circulant:
        # log_p |Q_n| = t * p^(n-2) + 1 for a non-symmetric GGS vector, t the
        # rank of its circulant matrix (Fernandez-Alcober, Zugadi-Reizabal).
        first = list(datum.family(1)[0]) + [0]
        t = rank_mod([first[-i:] + first[:-i] for i in range(p)], p)
        want = t * p ** (level - 2) + 1
    else:
        want = (3**level + 2 * level + 3) // 4  # single-22, n = 2..7
    assert quotient(datum, level).order_exponent() == want


def pivot_entries(chain, d):
    """Level d's pivots one at a time, as (column, row, representative)."""
    lv = chain.levels[d]
    reps = [Portrait._from_perm(chain.p, chain.depth, perm) for perm in lv.perms()]
    return list(zip(lv.cols.tolist(), lv.rows.astype(np.int64), reps))


def reference_sift(chain, g):
    """The one-element sift the batched one replaced: pivot by pivot, in order."""
    p = chain.p
    residual = g
    for d in range(chain.depth):
        v = residual.level_labels(d).astype(np.int64)
        for col, row, rep in pivot_entries(chain, d):
            c = int(v[col])
            if c:
                v = (v - c * row) % p
                residual = rep ** (-c) * residual
        if v.any():
            return d, residual
    if not residual.is_identity():
        raise ChainError("residual reduced at all levels but is not the identity")
    return None, residual


def _random_elements(p, depth, gens, rng, count=24):
    """Random products of the generators and their inverses, then random portraits."""
    out = []
    for _ in range(count):
        g = Portrait.identity(p, depth)
        for _ in range(rng.randrange(1, 12)):
            h = rng.choice(gens)
            g = g * (h if rng.random() < 0.5 else ~h)
        out.append(g)
    n_labels = len(Portrait.identity(p, depth).labels)
    for _ in range(count):
        out.append(Portrait(p, depth, [rng.randrange(p) for _ in range(n_labels)]))
    return out


def _assert_sifts_like_reference(chain, elements):
    fail, residuals = chain.sift_batch(np.stack([g.perm for g in elements]))
    for g, d, res in zip(elements, fail, residuals):
        want_d, want_res = reference_sift(chain, g)
        assert (None if d < 0 else d) == want_d
        assert Portrait._from_perm(chain.p, chain.depth, res.copy()) == want_res


@pytest.mark.parametrize(
    "text", ["p = 3; E1 = (1, 2)", "p = 3; E1 = (2, 2)", "p = 5; E1 = (1, 2, 0, 0)"]
)
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_batched_sift_matches_the_sequential_reference(text, depth):
    datum = NumericalDatum.from_text(text)
    q = quotient(datum, depth)
    gens = list(generator_portraits(datum, depth).values())
    rng = random.Random(f"{text}|{depth}")
    elements = _random_elements(datum.p, depth, gens, rng)
    for chain in (q.full(), q.derived(), q.kernel(1), q.kernel_derived(1)):
        members = elements + chain.pivots()[:8]
        _assert_sifts_like_reference(chain, members)
        for g in members[::7]:
            want_d, want_res = reference_sift(chain, g)
            d, res = chain.sift(g)
            assert (d, res) == (want_d, want_res)
            assert chain.contains(g) == (want_d is None)


def test_batched_sift_follows_levels_appended_after_a_sift():
    datum = NumericalDatum.from_text("p = 3; E1 = (2, 2)")
    q = quotient(datum, 4)
    full = q.full()
    rng = random.Random(11)
    elements = _random_elements(3, 4, list(generator_portraits(datum, 4).values()), rng)
    partial = SubgroupChain(3, 4)
    for d, lv in enumerate(full.levels):
        half = len(lv) // 2
        partial.levels[d].append(lv.cols[:half], lv.rows[:half], lv.perms()[:half])
    _assert_sifts_like_reference(partial, elements)
    for d, lv in enumerate(full.levels):
        for j in range(len(lv) // 2, len(lv)):
            partial.levels[d].append(lv.cols[j : j + 1], lv.rows[j : j + 1], lv.perms()[j : j + 1])
    _assert_sifts_like_reference(partial, elements)
    assert all(partial.contains(g) for g in full.pivots())


def _insert(chain, residual, d):
    """Append the residual failing at level d as a pivot, scaled to a 1 in its pivot column."""
    p = chain.p
    v = residual.level_labels(d).astype(np.int64) % p
    col = int(np.flatnonzero(v)[0])
    s = pow(int(v[col]), -1, p)
    rep = residual ** s if s > 1 else residual
    row = (v * s) % p
    chain.levels[d].append([col], [row], [rep.perm])
    return rep


def reference_close(p, depth, seeds, conjugators=()):
    """The all-pairs closure, one element at a time: a new pivot takes its
    p-th power, its commutators with every earlier pivot and both of its
    conjugates by each conjugator, a deepest pivot included."""
    chain = SubgroupChain(p, depth, gens=[g.labels for g in seeds])
    queue = deque(seeds)
    while queue:
        d, residual = reference_sift(chain, queue.popleft())
        if d is None:
            continue
        rep = _insert(chain, residual, d)
        if d + 1 < depth:
            queue.append(rep ** p)
        for e in range(depth):
            if max(d, e) + (d == e) < depth:
                others = pivot_entries(chain, e)[: len(chain.levels[e]) - (e == d)]  # all but rep itself
                queue.extend(commutator(rep, other) for _, _, other in others)
        for c in conjugators:
            queue.append(~c * rep * c)
            queue.append(c * rep * ~c)
    return chain


def reference_generator_close(p, depth, seeds, actors):
    """close_chain's rule, one element at a time: a new pivot takes its p-th
    power and its commutators with the earlier pivots of its own level and
    with each actor, a deepest pivot included."""
    chain = SubgroupChain(p, depth, gens=[g.labels for g in seeds])
    queue = deque(seeds)
    while queue:
        d, residual = reference_sift(chain, queue.popleft())
        if d is None:
            continue
        rep = _insert(chain, residual, d)
        if d + 1 < depth:
            queue.append(rep ** p)
            queue.extend(commutator(rep, other) for _, _, other in pivot_entries(chain, d)[:-1])
        queue.extend(commutator(rep, s) for s in actors)
    return chain


def _actors(seeds, conjugators):
    """close_chain's actors for a stack of seeds: the conjugators, then the seeds, less repeats."""
    return list({g.perm.tobytes(): g for g in (*conjugators, *seeds)}.values())


def _assert_same_closure(got, want):
    assert got.dims() == want.dims()
    assert upper_and_deepest_span(got) == upper_and_deepest_span(want)


def test_batched_closure_finds_the_sequential_pivots():
    for text, depth in (("p = 3; E1 = (1, 0), (0, 1)", 4), ("p = 5; E1 = (1, 2, 0, 0)", 3)):
        q = quotient(NumericalDatum.from_text(text), depth)
        p, gens = q.datum.p, list(generator_portraits(q.datum, depth).values())
        comms = [commutator(gens[i], gens[j]) for i in range(len(gens)) for j in range(i + 1, len(gens))]
        # `derived` is seeded with `Commutators`, so its actors are the generators alone.
        _assert_same_closure(q.full(), reference_generator_close(p, depth, gens, gens))
        _assert_same_closure(q.derived(), reference_generator_close(p, depth, comms, gens))
        _assert_same_group(q.full(), reference_close(p, depth, gens))
        _assert_same_group(q.derived(), reference_close(p, depth, comms, conjugators=gens))


def _defining_seeds(q, descriptor):
    """The seeds and conjugators that define a quotient's full, derived or gamma3 subgroup, as portraits."""
    gens = list(generator_portraits(q.datum, q.level).values())
    if descriptor == "full":
        return gens, []
    if descriptor == "derived":
        return [commutator(x, y) for i, x in enumerate(gens) for y in gens[i + 1 :]], gens
    return [commutator(x, y) for x in q.derived().pivots() for y in gens], gens


@pytest.mark.parametrize("text, level, descriptor", PINNED)
def test_pinned_chains_hold_the_groups_of_the_all_pairs_closure(text, level, descriptor):
    # Commutators of pivots of two levels are left out of the closure; the
    # group must be the one that sifting them too gives.
    q = quotient(NumericalDatum.from_text(text), level)
    seeds, conjugators = _defining_seeds(q, descriptor)
    _assert_same_group(q.chain(descriptor), reference_close(q.datum.p, level, seeds, conjugators))


def test_a_normal_closure_of_an_element_outside_the_group_is_closed():
    # The actors must generate every pivot, so the closure adds the seeds to
    # the conjugators: a random portrait need not lie in the quotient.
    q = quotient(GS, 3)
    rng = random.Random(3)
    for _ in range(4):
        g = Portrait(3, 3, [rng.randrange(3) for _ in range(label_count(3, 3))])
        want = reference_close(3, 3, [g], conjugators=list(generator_portraits(GS, 3).values()))
        _assert_same_group(q.normal_closure([g]), want)


@st.composite
def seed_sets(draw):
    """p, depth, seeds and conjugators; each portrait fixes the tree to a random depth."""
    p = draw(st.sampled_from([3, 5]))
    depth = draw(st.integers(1, 4 if p == 3 else 3))
    offs = level_offsets(p, depth)

    def portrait():
        top = offs[draw(st.integers(0, depth - 1))]
        rest = label_count(p, depth) - top
        return Portrait(p, depth, [0] * top + draw(st.lists(st.integers(0, p - 1), min_size=rest, max_size=rest)))

    seeds = [portrait() for _ in range(draw(st.integers(1, 6)))]
    return p, depth, seeds, [portrait() for _ in range(draw(st.integers(0, 2)))]


_Q3 = quotient(GS, 3)
_Q3_GENS = list(generator_portraits(GS, 3).values())
_SHORT_IF_FORWARD = [
    [0, 1, 1, 0, 0, 2, 0, 2, 0, 1, 1, 0, 1, 2, 1, 2, 2, 1, 1, 2, 0, 0, 2, 1, 1, 2, 2, 1, 2, 2, 2, 2, 0, 1, 2, 2, 0, 1, 1, 0],
    [0, 0, 0, 0, 2, 0, 2, 2, 1, 2, 1, 1, 0, 1, 0, 0, 0, 2, 0, 2, 2, 0, 1, 2, 1, 2, 1, 2, 1, 1, 0, 1, 1, 0, 0, 1, 2, 0, 0, 1],
]


@given(case=seed_sets())
# More seeds than pivots above the deepest level, so those pivots act; then
# fewer, so the seeds act; each with and without conjugators.
@example(case=(3, 3, _Q3_GENS + _Q3.kernel(2).pivots()[:4], []))
@example(case=(3, 3, _Q3_GENS, []))
@example(case=(3, 3, [commutator(*_Q3_GENS)] * 5, _Q3_GENS))
@example(case=(3, 3, [commutator(*_Q3_GENS)], _Q3_GENS))
# Conjugators whose group holds no seed, so the seeds must act as well.
@example(case=(3, 3, [Portrait.rooted(3, 3, 1), Portrait(3, 3, [0, 0, 0, 1] + [0] * 9)], [Portrait.identity(3, 3)]))
# A chain whose section at (3,) comes out one pivot short when the pivots'
# sections are absorbed in level order instead of in reverse.
@example(case=(3, 4, [Portrait(3, 4, labels) for labels in _SHORT_IF_FORWARD], []))
def test_closure_matches_the_sequential_reference_on_random_seeds(case):
    p, depth, seeds, conjugators = case
    got = close_chain(p, depth, [g.perm for g in seeds], conjugators=[c.perm for c in conjugators])
    _assert_same_closure(got, reference_generator_close(p, depth, seeds, _actors(seeds, conjugators)))
    _assert_same_group(got, reference_close(p, depth, seeds, conjugators))
    # The level-1 kernel's sections are read off its pivots; the chain's own
    # may need the closure, when a pivot moves the vertex.
    for chain in (level_kernel_chain(got, 1), got):
        for vertex in _vertices(p, 1):
            _assert_same_group(section_chain(chain, vertex), reference_section(chain, vertex))


@pytest.mark.parametrize("p, k", [(3, 40), (5, 2047), (7, 910), (7, 1000)])
def test_residue_matmul_is_exact_on_both_sides_of_the_int16_bound(p, k):
    rng = np.random.default_rng(k)
    a = rng.integers(0, p, (3, k), dtype=np.int16)
    b = rng.integers(0, p, (k, 5), dtype=np.int16)
    a[0] = b[:, 0] = p - 1  # one entry of the product takes the largest sum
    want = a.astype(np.int64) @ b.astype(np.int64)
    assert np.array_equal(_residue_matmul(a, b, p), want)


def test_sift_raises_when_a_residual_moves_a_level_above_the_deepest():
    a = Portrait.rooted(3, 2, 1)
    # The stored row says the pivot's root label is 1, but it is 2: reducing
    # a by it leaves a root label, which the deepest level must not accept.
    chain = SubgroupChain(3, 2)
    chain.levels[0].append([0], [[1]], [Portrait.rooted(3, 2, 2).perm])
    with pytest.raises(ChainError):
        reference_sift(chain, a)
    with pytest.raises(ChainError):
        chain.sift(a)
    with pytest.raises(ChainError):
        chain.sift_batch(np.stack([Portrait.identity(3, 2).perm, a.perm]))


def chain_to_dict(chain, version=CACHE_FORMAT):
    """The value a cache file holds, as lists. Format 2 also stored each
    pivot's row, which format 3 leaves empty."""
    return {
        "v": version,
        "p": chain.p,
        "depth": chain.depth,
        "gens": chain.gens.tolist(),
        "levels": [
            [
                [col, row.tolist() if version == 2 else [], rep.labels.tolist()]
                for col, row, rep in pivot_entries(chain, d)
            ]
            for d in range(chain.depth)
        ],
        "sha256": chain_digest(chain),
    }


def test_cache_writes_are_the_bytes_of_json_dumps(tmp_path):
    chain = quotient(NumericalDatum.from_text("p = 5; E1 = (1, 2, 0, 0)"), 3).full()
    path = tmp_path / "chain.json"
    _write_atomic(str(path), _chain_json(chain))
    assert path.read_text() == json.dumps(chain_to_dict(chain), separators=(",", ":"))
    assert [p.name for p in tmp_path.iterdir()] == ["chain.json"]


def test_writing_a_chain_file_holds_little_more_than_the_file(tmp_path):
    # The largest file of a cold suite: gamma3 of p5-exceptional at n = 4, with
    # 414 seeds of 156 labels. One json.dumps over the whole file held about 24
    # times its size while writing it.
    chain = quotient(NumericalDatum.from_text("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)"), 4).gamma3()
    path = tmp_path / "chain.json"
    tracemalloc.start()
    try:
        _write_atomic(str(path), _chain_json(chain))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == 173_916
    assert peak <= 2 * 173_916


@pytest.mark.parametrize(
    "text, level",
    # p = 11 has two-digit labels; every level's pivot columns have more digits.
    [("p = 3; E1 = (1, 2)", 4), ("p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)", 3),
     ("p = 11; E1 = (1, 2, 0, 0, 0, 0, 0, 0, 0, 3)", 3), ("p = 3; E1 = (1, 2)", 0)],
)
def test_cache_files_are_compact_json_dumps(text, level):
    q = quotient(NumericalDatum.from_text(text), level)
    for descriptor in ("full", "derived", "gamma3", "kernel-derived:1") if level else ("full",):
        chain = q.chain(descriptor)
        assert "".join(_chain_json(chain)) == json.dumps(chain_to_dict(chain), separators=(",", ":"))


def test_a_spaced_file_loads_and_is_kept(tmp_path):
    chain = quotient(GS, 4, store=ChainStore(cache_dir=str(tmp_path))).full()
    (path,) = tmp_path.glob("chain-*.json")
    spaced = json.dumps(chain_to_dict(chain))  # ", " and ": ", as json.dumps writes by default
    assert ", " in spaced and len(spaced) > len(path.read_text())
    path.write_text(spaced)
    before = os.stat(path).st_mtime_ns

    def boom():
        raise AssertionError("builder should not run on a warm cache")

    reloaded = ChainStore(cache_dir=str(tmp_path)).get_or_build(GS, 4, "full", boom)
    assert chain_digest(reloaded) == chain_digest(chain)
    assert path.read_text() == spaced
    assert os.stat(path).st_mtime_ns == before


@pytest.mark.parametrize("text, level", [("p = 3; E1 = (1, 2)", 4), ("p = 5; E1 = (1, 2, 0, 0)", 3)])
def test_a_format_2_file_is_rebuilt_once_into_format_3(tmp_path, text, level):
    # Format 2 stored each pivot's row beside its representative; such a
    # file is rebuilt once and replaced by a format-3 file of the same digest.
    datum = NumericalDatum.from_text(text)
    chain = quotient(datum, level).full()
    store = ChainStore(cache_dir=str(tmp_path))
    path = tmp_path / os.path.basename(store._path(datum, level, "full"))
    old = json.dumps(chain_to_dict(chain, version=2), separators=(",", ":"))
    path.write_text(old)
    builds = []

    def builder():
        builds.append(1)
        return quotient(datum, level).full()

    assert chain_digest(store.get_or_build(datum, level, "full", builder)) == chain_digest(chain)
    assert builds == [1]
    assert path.read_text() == "".join(_chain_json(chain)) and len(path.read_text()) < len(old)
    assert json.loads(path.read_text())["sha256"] == json.loads(old)["sha256"]
    reloaded = ChainStore(cache_dir=str(tmp_path)).get_or_build(datum, level, "full", builder)
    assert chain_digest(reloaded) == chain_digest(chain) and builds == [1]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_embed_and_block_product():
    store = ChainStore()
    sub = quotient(GS, 2, store=store).derived()
    block = block_product_chain(3, 3, 1, sub)
    assert block.order() == sub.order() ** 3
    for vertex in ((1,), (2,), (3,)):
        for g in (Portrait.embed(3, 3, vertex, piv) for piv in sub.pivots()):
            assert block.contains(g)
            assert g.fixes(vertex)
            assert g.section(vertex).depth == 2


def test_normal_closure_matches_brute_force():
    q = quotient(GS, 2)
    gens = generator_portraits(GS, 2)
    elements = brute_closure(3, 2, list(gens.values()))
    for name in ("a", "b[1,1]"):
        closure = q.normal_closure([gens[name]])
        brute = brute_closure(3, 2, [gens[name]], conjugators=list(gens.values()))
        assert closure.order() == len(brute)
        assert all(closure.contains(g) for g in brute)


def test_contains_chain_directions():
    q = quotient(GS, 3)
    ok, witness = q.full().contains_chain(q.derived())
    assert ok and witness is None
    ok, witness = q.derived().contains_chain(q.full())
    assert not ok
    assert witness is not None
    assert q.full().contains(witness)
    assert not q.derived().contains(witness)


def test_mismatched_shapes_raise_chain_errors():
    chain = quotient(GS, 3).full()
    for g in (Portrait.identity(3, 2), Portrait.identity(5, 3)):
        with pytest.raises(ChainError):
            chain.contains(g)
        with pytest.raises(ChainError):
            chain.sift_batch(np.stack([g.perm, g.perm]))
    with pytest.raises(ChainError):
        chain.contains_chain(quotient(GS, 4).full())
    with pytest.raises(ChainError):
        chain.contains_chain(SubgroupChain(5, 3))


def test_chain_store_disk_round_trip(tmp_path):
    store = ChainStore(cache_dir=str(tmp_path))
    chain = quotient(GS, 3, store=store).kernel_derived(1)
    files = list(tmp_path.glob("chain-*.json"))
    assert files

    def boom():
        raise AssertionError("builder should not run on a warm cache")

    fresh = ChainStore(cache_dir=str(tmp_path))
    reloaded = fresh.get_or_build(GS, 3, "kernel-derived:1", boom)
    assert reloaded.order() == chain.order()
    assert reloaded.dims() == chain.dims()
    for g in chain.pivots():
        assert reloaded.contains(g)


@pytest.mark.parametrize("text, level", [("p = 3; E1 = (2, 2)", 4), ("p = 5; E1 = (1, 2, 0, 0)", 3)])
@pytest.mark.parametrize("descriptor", ["full", "kernel-derived:1"])
def test_a_reloaded_chain_sifts_like_the_chain_that_wrote_it(tmp_path, text, level, descriptor):
    datum = NumericalDatum.from_text(text)
    q = quotient(datum, level, store=ChainStore(cache_dir=str(tmp_path)))
    chain = q.chain(descriptor)

    def boom():
        raise AssertionError("builder should not run on a warm cache")

    reloaded = ChainStore(cache_dir=str(tmp_path)).get_or_build(datum, level, descriptor, boom)
    rng = random.Random(f"{text}|{descriptor}")
    members = _random_elements(datum.p, level, chain.pivots(), rng, count=8)[:8]
    gens = list(generator_portraits(datum, level).values())
    stack = np.stack([g.perm for g in members + _random_elements(datum.p, level, gens, rng)])
    fail, residuals = chain.sift_batch(stack)
    assert (fail >= 0).any() and (fail < 0).any()
    reloaded_fail, reloaded_residuals = reloaded.sift_batch(stack)
    assert np.array_equal(reloaded_fail, fail)
    assert np.array_equal(reloaded_residuals, residuals)


# sha256 of the bytes of a cold cache's file; any drift in the encoding shows.
CACHE_FILE_SHA256 = [
    ("p = 3; E1 = (2, 2)", 4, "621bbbc16181d8db2ed9ba2cb4526e186225da29e2fca9e52b67241cbd02c840"),
    ("p = 5; E1 = (1, 2, 0, 0)", 3, "4bcd2bb4c5e94f288544fa5c52055a242062a21c00ffe6e1d068c75b18c471f0"),
]


@pytest.mark.parametrize("text, level, sha256", CACHE_FILE_SHA256)
def test_cache_file_bytes_are_pinned(tmp_path, text, level, sha256):
    quotient(NumericalDatum.from_text(text), level, store=ChainStore(cache_dir=str(tmp_path))).full()
    (path,) = tmp_path.glob("chain-*.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_importing_megs_loads_no_openssl():
    # chains.py takes sha256 from the interpreter's built-in module, so no
    # process that runs megs pays for loading OpenSSL through hashlib. Nor
    # does importing megs load any package outside the standard library but
    # megs and numpy, beyond what the interpreter loaded at startup.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import sys; before = set(sys.modules); import megs, megs.cli; print('_hashlib' in sys.modules); "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
    )
    assert done.returncode == 0, done.stderr
    openssl, packages = done.stdout.split("\n")[:2]
    assert openssl == "False"
    assert packages == "['megs', 'numpy']"


def test_the_built_in_sha256_gives_the_hashlib_digests(tmp_path, monkeypatch):
    chain = quotient(S22, 4).gamma3()
    store = ChainStore(cache_dir=str(tmp_path))
    built_in = chain_digest(chain), store._path(S22, 4, "gamma3")
    monkeypatch.setattr(chains, "sha256", hashlib.sha256)
    assert (chain_digest(chain), store._path(S22, 4, "gamma3")) == built_in


def test_chain_store_rebuilds_corrupt_entries(tmp_path):
    store = ChainStore(cache_dir=str(tmp_path))
    chain = quotient(GS, 2, store=store).full()
    for path in tmp_path.glob("chain-*.json"):
        path.write_text("{ corrupt")
    fresh = ChainStore(cache_dir=str(tmp_path))
    rebuilt = fresh.get_or_build(
        GS, 2, "full", lambda: quotient(GS, 2).full()
    )
    assert rebuilt.order() == chain.order()
    for path in tmp_path.glob("chain-*.json"):
        json.loads(path.read_text())


def _pop_last_pivot(data):
    data["levels"][-1].pop()


def _old_format(data):
    data["v"] = 1


def _digest_of(data):
    """The digest the store takes of this file's own content (labels int16,
    rows read off them), so only the pivot checks can object to an edit."""
    offs = level_offsets(data["p"], data["depth"])
    levels = []
    for d, lv in enumerate(data["levels"]):
        reps = np.array([entry[2] for entry in lv], np.int16).reshape(len(lv), -1)
        levels.append(([entry[0] for entry in lv], reps[:, offs[d] : offs[d + 1]], reps))
    return chains._digest(np.array(data["gens"], np.int16), levels)


def _fill_row_slot_and_digest(data):
    _, row, rep = data["levels"][1][0]
    row.extend(rep[1:1 + data["p"]])
    data["sha256"] = _digest_of(data)


def _pivot_label_not_one_and_digest(data):
    col, _, rep = data["levels"][1][0]
    rep[level_offsets(data["p"], data["depth"])[1] + col] = 2
    data["sha256"] = _digest_of(data)


def _rep_moves_upper_level_and_digest(data):
    data["levels"][2][0][2][0] = 1
    data["sha256"] = _digest_of(data)


def _fourth_item_in_a_pivot(data):
    data["levels"][1][0].append(0)


def _generator_label_out_of_range(data):
    data["gens"][0][0] = data["p"]


def _column_out_of_range_and_digest(data):
    data["levels"][1][0][0] = data["p"]
    data["sha256"] = _digest_of(data)


@pytest.mark.parametrize(
    "edit",
    [
        _pop_last_pivot,
        _old_format,
        _fill_row_slot_and_digest,
        _pivot_label_not_one_and_digest,
        _rep_moves_upper_level_and_digest,
        _fourth_item_in_a_pivot,
        _generator_label_out_of_range,
        _column_out_of_range_and_digest,
    ],
)
def test_chain_store_rebuilds_edited_entries(tmp_path, edit):
    chain = quotient(GS, 3, store=ChainStore(cache_dir=str(tmp_path))).full()
    (path,) = tmp_path.glob("chain-*.json")
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    builds = []

    def builder():
        builds.append(1)
        return quotient(GS, 3).full()

    rebuilt = ChainStore(cache_dir=str(tmp_path)).get_or_build(GS, 3, "full", builder)
    assert builds == [1]
    assert rebuilt.dims() == chain.dims()
    reloaded = ChainStore(cache_dir=str(tmp_path)).get_or_build(GS, 3, "full", builder)
    assert builds == [1]
    assert reloaded.dims() == chain.dims()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_quotient_order_survives_a_popped_cached_pivot(tmp_path, capsys):
    args = ["quotient", "--datum", "p = 3; E1 = (1, 2)", "--level", "4", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    assert "order: 3^19" in capsys.readouterr().out
    (path,) = tmp_path.glob("chain-*.json")
    data = json.loads(path.read_text())
    data["levels"][3].pop()
    path.write_text(json.dumps(data))
    assert main(args) == 0
    assert "order: 3^19" in capsys.readouterr().out


def test_degree_guard():
    with pytest.raises(DegreeGuardError):
        quotient(GS, 3, degree_guard=9)
    q = quotient(GS, 2, degree_guard=9)
    assert q.order() == 27


# -- sections and block products read off the pivots ------------------------------


def reference_section(chain, vertex):
    """Sections at `vertex` of its stabilizer, closed from the Schreier generators."""
    p, depth = chain.p, chain.depth
    pivots = chain.pivots()
    orbit = {vertex: Portrait.identity(p, depth)}
    frontier = deque([vertex])
    while frontier:
        v = frontier.popleft()
        for g in pivots:
            w = g.act(v)
            if w not in orbit:
                orbit[w] = orbit[v] * g
                frontier.append(w)
    seeds = [(t * g * ~orbit[g.act(v)]).section(vertex) for v, t in orbit.items() for g in pivots]
    return close_chain(p, depth - len(vertex), [g.perm for g in seeds])


def _assert_same_group(got, want):
    assert got.dims() == want.dims()
    assert got.contains_chain(want)[0] and want.contains_chain(got)[0]


def _vertices(p, k):
    return [tuple(v) for v in iter_product(range(1, p + 1), repeat=k)]


def _fixing(elements, k):
    """The elements that fix every vertex of length k."""
    return [g for g in elements if all(g.fixes(v) for v in _vertices(g.p, k))]


@pytest.mark.parametrize(
    "text, level",
    [("p = 3; E1 = (1, 2)", 2), ("p = 3; E1 = (1, 2)", 3), ("p = 3; E1 = (2, 2)", 2),
     ("p = 3; E1 = (2, 2)", 3), ("p = 5; E1 = (1, 2, 0, 0)", 2)],
)
def test_stabilizer_sections_match_brute_force(text, level):
    datum = NumericalDatum.from_text(text)
    p = datum.p
    q = quotient(datum, level)
    gens = list(generator_portraits(datum, level).values())
    elements = brute_closure(p, level, list(gens))
    comms = [commutator(gens[i], gens[j]) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    derived = brute_closure(p, level, comms, conjugators=list(gens))
    assert q.derived().order() == len(derived)
    cases = [(q.kernel(1), _fixing(elements, 1), 1), (q.derived(), derived, 1)]
    if level > 2:
        cases.append((q.kernel(2), _fixing(elements, 2), 2))
    for chain, group, k in cases:
        assert chain.order() == len(group)
        for vertex in _vertices(p, k):
            sections = {g.section(vertex) for g in group}
            got = section_chain(chain, vertex)
            assert got.order() == len(sections)
            assert all(got.contains(s) for s in sections)


@pytest.mark.parametrize("text", [text for _, text in SUITE_DATA])
def test_stabilizer_sections_match_the_closed_reference_on_the_suite_data(text):
    datum = NumericalDatum.from_text(text)
    q = quotient(datum, 4)
    for chain, k in ((q.kernel(1), 1), (q.derived(), 1), (q.gamma3(), 1), (q.kernel(2), 2)):
        for vertex in _vertices(datum.p, k):
            _assert_same_group(section_chain(chain, vertex), reference_section(chain, vertex))


@pytest.mark.parametrize("text", [text for _, text in SUITE_DATA])
def test_section_exponents_per_orbit_match_every_vertex(text):
    # The reference is the sweep the checks ran before: a section at every
    # vertex, in product order. The level kernels, G', gamma3 and the normal
    # closure of `a` are normal in the quotient. The subgroup B of the
    # directed generators, normal in the group they generate, has several
    # orbits on a level, with exponents that differ between them.
    datum = NumericalDatum.from_text(text)
    store = ChainStore()
    for level in range(2, 5 if datum.p == 3 else 4):
        q = quotient(datum, level, store=store)
        gens, directed = q.gen_perms, q.gen_perms[1:]
        closure = q.normal_closure([Portrait.rooted(datum.p, level, 1)])
        cases = [(q.kernel(k), gens, k) for k in range(1, level)] + [(q.derived(), gens, 1), (q.gamma3(), gens, 1)]
        for k in (1, 2) if level == 4 else (1,):  # level 4, depth 2: the suite's full-section-vertex
            cases += [(closure, gens, k), (close_chain(datum.p, level, directed), directed, k)]
        for chain, actors, k in cases:
            every = [section_chain(chain, vertex).order_exponent() for vertex in _vertices(datum.p, k)]
            assert section_exponents(chain, actors, k) == every


@pytest.mark.parametrize(
    "text, depths",
    [("p = 3; E1 = (1, 2)", (2, 3, 4)), ("p = 3; E1 = (2, 2)", (2, 3, 4)), ("p = 5; E1 = (1, 2, 0, 0)", (2, 3))],
)
def test_block_product_matches_the_closure_of_its_copies(text, depths):
    datum = NumericalDatum.from_text(text)
    p = datum.p
    for depth in depths:
        for k in range(1, depth):
            small = quotient(datum, depth - k)
            for sub in (small.full(), small.derived(), small.gamma3()):
                seeds = [Portrait.embed(p, depth, v, g).perm for v in _vertices(p, k) for g in sub.pivots()]
                got = block_product_chain(p, depth, k, sub)
                assert got.order() == sub.order() ** (p**k)
                _assert_same_group(got, close_chain(p, depth, seeds))


def test_level_kernels_are_views_of_the_full_chain_and_never_stored(tmp_path):
    store = ChainStore(cache_dir=str(tmp_path))
    q = quotient(GS, 4, store=store)
    kernel = q.kernel(2)
    full_path = store._path(GS, 4, "full")
    assert [str(path) for path in tmp_path.iterdir()] == [full_path]
    assert kernel.dims() == (0, 0) + q.full().dims()[2:]
    assert kernel.pivots() == q.full().pivots()[3:]
    # The full chain's own levels, sift state included, and no generators.
    assert all(kernel.levels[d] is q.full().levels[d] for d in (2, 3))
    assert len(kernel.gens) == 0


def test_a_kernel_file_from_an_older_cache_is_never_read(tmp_path, monkeypatch):
    # An older cache kept `kernel:k` chains; plant the full chain's file
    # under the kernel's name, so reading it would give the wrong group.
    store = ChainStore(cache_dir=str(tmp_path))
    full = quotient(GS, 4, store=store).full()
    stale = store._path(GS, 4, "kernel:2")
    _write_atomic(stale, _chain_json(full))
    before = os.stat(stale).st_mtime_ns
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(chains, "open", spy, raising=False)
    kernel = quotient(GS, 4, store=ChainStore(cache_dir=str(tmp_path))).kernel(2)
    assert kernel.dims() == (0, 0) + full.dims()[2:]
    assert opened == [store._path(GS, 4, "full")]
    assert os.stat(stale).st_mtime_ns == before
