import json
import os
import random
from collections import deque

import numpy as np
import pytest

from megs.chains import (
    ChainStore,
    DegreeGuardError,
    SubgroupChain,
    block_product_chain,
    chain_digest,
    embed_pivots,
    quotient,
    section_chain,
)
from megs.cli import main
from megs.datum import NumericalDatum, generator_portraits
from megs.portraits import Portrait, commutator

GS = NumericalDatum.from_text("p = 3; E1 = (1, 2)")
S22 = NumericalDatum.from_text("p = 3; E1 = (2, 2)")
CONST = NumericalDatum.from_text("p = 3; E1 = (1, 1); E2 = (1, 1)")


def brute_closure(p, depth, seeds, conjugators=()):
    """Subgroup elements in discovery order, closed under the seeds and conjugation."""
    ident = Portrait.identity(p, depth)
    out = [ident]
    seen = {ident}
    frontier = deque([ident])
    while frontier:
        g = frontier.popleft()
        cands = [g * h for h in seeds] + [g * ~h for h in seeds]
        cands += [(~c) * g * c for c in conjugators]
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
    listed = list(kernel.elements())
    assert len(listed) == kernel.order() == 9
    assert len(set(listed)) == 9
    assert all(kernel.contains(g) for g in listed)


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
    assert q3.kernel_gamma3(1).order_exponent() == 3


def test_frozen_constant_pair_orders():
    store = ChainStore()
    assert quotient(CONST, 2, store=store).order_exponent() == 4
    q4 = quotient(CONST, 4, store=store)
    assert q4.order_exponent() == 27
    assert q4.kernel_derived(1).order_exponent() == 20


@pytest.mark.parametrize(
    "text, level, descriptor, digest",
    [
        ("p = 3; E1 = (2, 2)", 4, "full", "7b0ad9fea75ea185"),
        ("p = 3; E1 = (2, 2)", 4, "derived", "316be755978a437e"),
        ("p = 3; E1 = (2, 2)", 4, "gamma3", "d60b5ca410922010"),
        ("p = 5; E1 = (1, 2, 0, 0)", 3, "full", "08e168c06be0def0"),
        ("p = 5; E1 = (1, 2, 0, 0)", 3, "derived", "b74db45004b96b15"),
    ],
)
def test_pivot_order_is_pinned(text, level, descriptor, digest):
    # The digest covers every pivot's labels in insertion order, which
    # witness portraits and cache files depend on; a closure that changes
    # how it finds pivots must leave them where they were.
    chain = quotient(NumericalDatum.from_text(text), level).chain(descriptor)
    assert chain_digest(chain)[:16] == digest


def test_embed_and_block_product():
    store = ChainStore()
    sub = quotient(GS, 2, store=store).derived()
    block = block_product_chain(3, 3, 1, sub)
    assert block.order() == sub.order() ** 3
    for vertex in ((1,), (2,), (3,)):
        for g in embed_pivots(3, 3, vertex, sub):
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
    """The digest the store writes for this content, so only the pivot checks can object."""
    p, depth = data["p"], data["depth"]
    chain = SubgroupChain(p, depth, gens=tuple(Portrait(p, depth, g) for g in data["gens"]))
    for d, lv in enumerate(data["levels"]):
        for col, row, rep in lv:
            chain.levels[d].append((col, np.array(row, dtype=np.int64), Portrait(p, depth, rep)))
    return chain_digest(chain)


def _edit_row_and_digest(data):
    col, row, _ = data["levels"][1][0]
    row[col] = 2
    data["sha256"] = _digest_of(data)


def _rep_moves_upper_level_and_digest(data):
    data["levels"][2][0][2][0] = 1
    data["sha256"] = _digest_of(data)


@pytest.mark.parametrize(
    "edit",
    [_pop_last_pivot, _old_format, _edit_row_and_digest, _rep_moves_upper_level_and_digest],
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
