import random

import numpy as np
import pytest

from megs.datum import NumericalDatum, generator_portraits
from megs.portraits import Portrait, TreeError, commutator, label_count, level_offsets


def sample_pool(depth=3):
    datum = NumericalDatum.from_text("p = 3; E1 = (1, 2)")
    gens = generator_portraits(datum, depth)
    return gens["a"], gens["b[1,1]"]


def random_product(rng, gens, length):
    g = Portrait.identity(gens[0].p, gens[0].depth)
    for _ in range(length):
        g = g * rng.choice(gens) ** rng.randint(1, 2)
    return g


def test_label_count_and_offsets():
    assert label_count(3, 1) == 1
    assert label_count(3, 2) == 4
    assert label_count(3, 3) == 13
    assert level_offsets(3, 3) == (0, 1, 4, 13)


def test_identity_properties():
    e = Portrait.identity(3, 3)
    assert e.is_identity()
    assert e.act((1, 2, 3)) == (1, 2, 3)
    assert (e * e).is_identity()


def test_rooted_cycles_first_level():
    a = Portrait.rooted(3, 2, 1)
    assert a.act((1,)) == (2,)
    assert a.act((2,)) == (3,)
    assert a.act((3,)) == (1,)
    assert (a * a * a).is_identity()
    assert a.order() == 3


def test_multiplication_is_left_to_right_on_leaves():
    a, b = sample_pool()
    rng = random.Random(5)
    for _ in range(40):
        g = random_product(rng, [a, b], rng.randint(1, 4))
        h = random_product(rng, [a, b], rng.randint(1, 4))
        gp = g.leaf_permutation()
        hp = h.leaf_permutation()
        assert ((g * h).leaf_permutation() == hp[gp]).all()


def test_act_composes():
    a, b = sample_pool()
    rng = random.Random(6)
    for _ in range(40):
        g = random_product(rng, [a, b], 3)
        h = random_product(rng, [a, b], 3)
        v = tuple(rng.randint(1, 3) for _ in range(3))
        assert (g * h).act(v) == h.act(g.act(v))


def test_inverse_and_power_laws():
    a, b = sample_pool()
    rng = random.Random(7)
    for _ in range(30):
        g = random_product(rng, [a, b], rng.randint(1, 5))
        assert (g * ~g).is_identity()
        assert (~g * g).is_identity()
        assert g ** 0 == Portrait.identity(3, 3)
        assert g ** 2 == g * g
        assert g ** -1 == ~g


def test_order_is_power_of_p():
    a, b = sample_pool()
    rng = random.Random(8)
    for _ in range(30):
        g = random_product(rng, [a, b], rng.randint(1, 5))
        n = g.order()
        assert n in (1, 3, 9, 27)
        assert (g ** n).is_identity()
        if n > 1:
            assert not (g ** (n // 3)).is_identity()


def test_section_multiplicativity_on_stabilizing_elements():
    a, b = sample_pool()
    pool = [b, b * b, commutator(a, b), commutator(b, a * b)]
    for g in pool:
        for h in pool:
            for x in (1, 2, 3):
                v = (x,)
                assert (g * h).section(v) == g.section(v) * h.section(g.act(v))


def test_section_of_moved_vertex_raises():
    a, _ = sample_pool()
    with pytest.raises(TreeError):
        a.section((1,))


def test_generator_decomposition():
    datum = NumericalDatum.from_text("p = 3; E1 = (1, 2)")
    gens = generator_portraits(datum, 3)
    a2 = Portrait.rooted(3, 2, 1)
    b = gens["b[1,1]"]
    assert b.fixes((1,))
    assert b.section((1,)) == a2
    assert b.section((2,)) == a2 * a2
    assert b.section((3,)) == b.truncate(2)


def test_embed_and_section_round_trip():
    _, b = sample_pool()
    sub = b.truncate(2)
    g = Portrait.embed(3, 3, (2,), sub)
    assert g.fixes((2,))
    assert g.section((2,)) == sub
    assert g.section((1,)).is_identity()
    assert g.section((3,)).is_identity()


def test_truncate_is_consistent_with_action():
    a, b = sample_pool()
    rng = random.Random(9)
    for _ in range(20):
        g = random_product(rng, [a, b], 4)
        t = g.truncate(2)
        for x in (1, 2, 3):
            for y in (1, 2, 3):
                assert t.act((x, y)) == g.act((x, y))


def test_commutator_identity_cases():
    a, b = sample_pool()
    assert commutator(a, a).is_identity()
    assert commutator(a, b) == ~a * ~b * a * b


def test_conj_definition():
    a, b = sample_pool()
    assert b.conj(a) == ~a * b * a


def test_text_round_trip():
    a, b = sample_pool()
    rng = random.Random(10)
    for _ in range(10):
        g = random_product(rng, [a, b], 3)
        assert Portrait.from_text(g.to_text()) == g


def test_depth_mismatch_raises():
    e2 = Portrait.identity(3, 2)
    e3 = Portrait.identity(3, 3)
    with pytest.raises(TreeError):
        e2 * e3


# -- the leaf permutation against the labelled form ------------------------------
#
# The reference below works on labels only, with the per-level image arrays
# the labelled form composes by; a portrait's own operations work on its leaf
# permutation. Every operation must give the same labels both ways.


def ref_images(p, depth, labels):
    """Image positions of every vertex, one array per level."""
    offs = level_offsets(p, depth)
    imgs = [np.zeros(1, dtype=np.int64)]
    ar = np.arange(p)
    for l in range(depth):
        lab = np.asarray(labels[offs[l] : offs[l + 1]], dtype=np.int64)
        imgs.append((imgs[l][:, None] * p + (ar[None, :] + lab[:, None]) % p).ravel())
    return imgs


def ref_mul(p, depth, x, y):
    offs = level_offsets(p, depth)
    imgs = ref_images(p, depth, x)
    out = np.empty(len(x), dtype=np.int64)
    for l in range(depth):
        sl = slice(offs[l], offs[l + 1])
        out[sl] = (x[sl] + y[sl][imgs[l]]) % p
    return out


def ref_inv(p, depth, x):
    offs = level_offsets(p, depth)
    imgs = ref_images(p, depth, x)
    out = np.empty(len(x), dtype=np.int64)
    for l in range(depth):
        sl = slice(offs[l], offs[l + 1])
        out[sl][imgs[l]] = (-x[sl]) % p
    return out


def ref_pow(p, depth, x, e):
    if e < 0:
        x, e = ref_inv(p, depth, x), -e
    out = np.zeros(len(x), dtype=np.int64)
    for _ in range(e):
        out = ref_mul(p, depth, out, x)
    return out


def ref_act(p, depth, x, vertex):
    offs = level_offsets(p, depth)
    pos, out = 0, []
    for level, letter in enumerate(vertex):
        out.append((letter - 1 + int(x[offs[level] + pos])) % p + 1)
        pos = pos * p + (letter - 1)
    return tuple(out)


def ref_section(p, depth, x, vertex):
    offs = level_offsets(p, depth)
    sub_depth = depth - len(vertex)
    sub_offs = level_offsets(p, sub_depth)
    q = 0
    for letter in vertex:
        q = q * p + (letter - 1)
    out = np.empty(label_count(p, sub_depth), dtype=np.int64)
    width = 1
    for l in range(sub_depth):
        src = offs[len(vertex) + l] + q * width
        out[sub_offs[l] : sub_offs[l + 1]] = x[src : src + width]
        width *= p
    return out


def ref_embed(p, depth, vertex, sub):
    offs = level_offsets(p, depth)
    sub_depth = depth - len(vertex)
    sub_offs = level_offsets(p, sub_depth)
    q = 0
    for letter in vertex:
        q = q * p + (letter - 1)
    out = np.zeros(label_count(p, depth), dtype=np.int64)
    width = 1
    for l in range(sub_depth):
        dst = offs[len(vertex) + l] + q * width
        out[dst : dst + width] = sub[sub_offs[l] : sub_offs[l + 1]]
        width *= p
    return out


def random_labels(rng, p, depth):
    return np.array([rng.randrange(p) for _ in range(label_count(p, depth))], dtype=np.int64)


def random_vertex(rng, p, length):
    return tuple(rng.randint(1, p) for _ in range(length))


def fixing(p, depth, x, vertex):
    """x with the labels on the path to `vertex` cleared, so it fixes `vertex`."""
    x = x.copy()
    offs = level_offsets(p, depth)
    q = 0
    for level, letter in enumerate(vertex):
        x[offs[level] + q] = 0
        q = q * p + (letter - 1)
    return x


def same(g, labels):
    return g.labels.tolist() == [int(v) for v in labels]


CASES = [(p, depth) for p in (3, 5) for depth in range(5)]


@pytest.mark.parametrize("p, depth", CASES)
def test_labels_and_leaf_permutation_round_trip(p, depth):
    rng = random.Random(100 * p + depth)
    for _ in range(8):
        x = random_labels(rng, p, depth)
        g = Portrait(p, depth, x)
        assert g.perm.shape == (p**depth,)
        assert sorted(g.perm.tolist()) == list(range(p**depth))
        # The identity's product is built from the permutation alone.
        h = Portrait.identity(p, depth) * g
        assert same(h, x)
        assert h.labels.dtype == np.int16
        assert Portrait(p, depth, h.labels).perm.tolist() == g.perm.tolist()
        assert h == g and hash(h) == hash(g)
        assert h.to_text() == g.to_text()
        for level in range(depth):
            assert h.level_labels(level).tolist() == g.level_labels(level).tolist()
    if depth == 0:
        e = Portrait.identity(p, 0)
        assert e.perm.tolist() == [0] and e.labels.size == 0 and e.is_identity()


@pytest.mark.parametrize("p, depth", CASES)
def test_group_operations_match_the_labelled_form(p, depth):
    rng = random.Random(200 * p + depth)
    for _ in range(8):
        x, y = random_labels(rng, p, depth), random_labels(rng, p, depth)
        g, h = Portrait(p, depth, x), Portrait(p, depth, y)
        assert same(g * h, ref_mul(p, depth, x, y))
        assert same(~g, ref_inv(p, depth, x))
        for e in (-3, -2, -1, 0, 1, 2, 3, p + 1):
            assert same(g**e, ref_pow(p, depth, x, e))
        assert same(h.conj(g), ref_mul(p, depth, ref_mul(p, depth, ref_inv(p, depth, x), y), x))
        # Operands that are themselves products carry only a permutation.
        gh, hg = g * h, h * g
        assert same(gh * hg, ref_mul(p, depth, ref_mul(p, depth, x, y), ref_mul(p, depth, y, x)))
        assert same(~gh, ref_inv(p, depth, ref_mul(p, depth, x, y)))
        assert (gh * ~gh).is_identity() and (~gh * gh).is_identity()
        assert gh == Portrait(p, depth, ref_mul(p, depth, x, y))
        assert hash(gh) == hash(Portrait(p, depth, ref_mul(p, depth, x, y)))
        assert (gh == hg) == (ref_mul(p, depth, x, y).tolist() == ref_mul(p, depth, y, x).tolist())


@pytest.mark.parametrize("p, depth", CASES)
def test_action_and_tree_surgery_match_the_labelled_form(p, depth):
    rng = random.Random(300 * p + depth)
    for _ in range(6):
        x = random_labels(rng, p, depth)
        for g in (Portrait(p, depth, x), Portrait.identity(p, depth) * Portrait(p, depth, x)):
            imgs = ref_images(p, depth, x)
            for level in range(depth + 1):
                assert g.leaf_permutation(level).tolist() == imgs[level].tolist()
                v = random_vertex(rng, p, level)
                assert g.act(v) == ref_act(p, depth, x, v)
            for level in range(depth):
                offs = level_offsets(p, depth)
                assert g.level_labels(level).tolist() == x[offs[level] : offs[level + 1]].tolist()
            for m in range(depth + 1):
                assert same(g.truncate(m), x[: label_count(p, m)])
        for k in range(1, depth + 1):
            v = random_vertex(rng, p, k)
            xf = fixing(p, depth, x, v)
            for g in (Portrait(p, depth, xf), Portrait.identity(p, depth) * Portrait(p, depth, xf)):
                assert g.fixes(v)
                assert same(g.section(v), ref_section(p, depth, xf, v))
            sub = random_labels(rng, p, depth - k)
            for s in (Portrait(p, depth - k, sub), Portrait.identity(p, depth - k) * Portrait(p, depth - k, sub)):
                assert same(Portrait.embed(p, depth, v, s), ref_embed(p, depth, v, sub))
