"""Finite-level verification of structural statements about the tree groups.

Every check here follows the same pattern: build congruence quotients of the
datum's group at a chosen tree depth, test a finite shadow of a statement
about the infinite group, and return a report with a verdict and
machine-checkable certificates.  The table `CHECKS` holds what each check
needs (levels, preconditions, a witness word, a seed), the verdict the
datum's classification predicts with the reason for it, and where the default
suite runs it; `run_check` does the shared preamble from that table.

Verdict semantics are asymmetric, as they must be for finite shadows:

- ``RefutedByWitness`` is rigorous: the recorded witness violates the finite
  shadow, and the shadow is a consequence of the infinite statement, so the
  infinite statement fails.
- ``Verified`` means the shadow holds at the tested level.  For embedding and
  containment statements this is evidence, not proof; deeper levels can still
  refute.
- ``GuardExceeded`` means a bounded search ended without an answer.

Each report also carries the verdict predicted by the datum's classification
at the tested level, so callers can tell "refuted, as the classification
predicts" apart from a genuine surprise.  Check bodies only measure; every
prediction is a rule in the table.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from .chains import (
    ChainStore,
    DEFAULT_DEGREE_GUARD,
    FiniteQuotient,
    SubgroupChain,
    block_product_chain,
    commutator_chain,
    planted,
    section_exponents,
)
from .datum import (
    HAS_CSP,
    Classification,
    NumericalDatum,
    classify,
    exceptional_pair,
    is_constant,
)
from .portraits import Portrait, perm_compose, perm_powers
from .words import (
    BranchElement,
    GroupWord,
    abelianization,
    commutator_word,
    dependency,
    evaluate,
    evaluate_branch,
    first_level_sections,
    is_trivial,
    parse_word,
    word_to_text,
)

VERIFIED = "Verified"
REFUTED = "RefutedByWitness"
GUARD = "GuardExceeded"

DEFAULT_SEED = 20260817
DEFAULT_SAMPLES = 20

# A check function takes (datum, classification, level, quotient_at) and, as
# its table entry asks, keyword arguments aux_level, word, seed and samples.
# quotient_at(n) is the level-n quotient with the call's one store and guard;
# a check opens its largest quotient first, so the guard trips before any work.
# It returns what it measures: verdict, certificates, notes, and the level
# where the report's level is not the one passed in.
QuotientAt = Callable[[int], FiniteQuotient]

# The verdict a classification predicts, None for no prediction, and the
# reasons for it, which the report lists ahead of the check's own notes.
Prediction = tuple[str | None, tuple[str, ...]]


class CheckError(ValueError):
    """A check was invoked on a datum or level outside its preconditions."""


# -- reports ---------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one finite-level check, with certificates."""

    check: str
    datum_text: str
    level: int
    verdict: str
    expected: str | None = None
    aux_level: int | None = None
    certificates: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    seed: int | None = None

    @property
    def as_predicted(self) -> bool:
        return self.expected is None or self.verdict == self.expected

    def to_text(self) -> str:
        lines = [
            f"check: {self.check}",
            f"datum: {self.datum_text}",
            f"level: {self.level}",
        ]
        if self.aux_level is not None:
            lines.append(f"aux-level: {self.aux_level}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.append(f"verdict: {self.verdict}")
        lines.append(f"expected: {self.expected or 'exploratory'}")
        lines.append(f"as-predicted: {'yes' if self.as_predicted else 'no'}")
        if self.certificates:
            lines.append("certificates:")
            for key in sorted(self.certificates):
                value = json.dumps(self.certificates[key], sort_keys=True)
                lines.append(f"  {key}: {value}")
        if self.notes:
            lines.append("notes:")
            for note in self.notes:
                lines.append(f"  - {note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "datum": self.datum_text,
            "level": self.level,
            "aux_level": self.aux_level,
            "seed": self.seed,
            "verdict": self.verdict,
            "expected": self.expected,
            "as_predicted": self.as_predicted,
            "certificates": self.certificates,
            "notes": list(self.notes),
        }


# -- shared helpers --------------------------------------------------------------


def single_constant_family(datum: NumericalDatum) -> bool:
    """One nonempty family, a singleton with a constant vector."""
    fams = [datum.family(j) for j in datum.nonempty_families]
    return len(fams) == 1 and len(fams[0]) == 1 and is_constant(fams[0][0])


def _witness_cert(certs: dict, key: str, g: Portrait) -> None:
    shown = g if g.depth <= 4 else g.truncate(4)
    certs[key] = shown.to_text()
    if g.depth > 4:
        certs[f"{key}-truncated-to-depth"] = 4


def _contains(certs: dict, key: str, target: SubgroupChain, sub: SubgroupChain) -> bool:
    """Whether `target` contains `sub`, recorded under `key`; the first pivot
    of `sub` that it misses goes into the certificates as the witness."""
    certs[key], bad = target.contains_chain(sub)
    if bad is not None:
        _witness_cert(certs, "witness", bad)
    return certs[key]


def _outcome(verdict: str, certs: dict, notes: tuple[str, ...] = ()) -> dict:
    """The report fields a check measures."""
    return dict(verdict=verdict, certificates=certs, notes=notes)


# -- abelianization --------------------------------------------------------------


def check_abelianization_index(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt
) -> dict:
    """Index of the derived subgroup in the level-n quotient against p^(1+r).

    For jointly independent defining vectors the quotient modulo its derived
    subgroup has order exactly p^(1+r) from level r+1 on.  The certificates
    also compare the measured index with p^(1+dim V) and, for dependent
    vectors, name the family of the dependency's target syllable.
    """
    q = quotient_at(level)
    measured = q.order_exponent() - q.derived().order_exponent()
    predicted = 1 + datum.total_generators
    reduced = 1 + cls.dimV
    certs = {
        "measured-exponent": measured,
        "predicted-exponent": predicted,
        "joint-span-dimension": cls.dimV,
        "reduced-exponent": reduced,
        "reduced-matches": measured == reduced,
    }
    dep = dependency(datum)
    if dep is not None:
        c_word, _ = dep
        certs["dependent-target-family"] = c_word.syllables[0][1]
    return _outcome(VERIFIED if measured == predicted else REFUTED, certs)


# -- branch structure ------------------------------------------------------------


def check_embedding(
    source: str,
    target: str,
    datum: NumericalDatum,
    cls: Classification,
    level: int,
    quotient_at: QuotientAt,
) -> dict:
    """A subgroup below one vertex against a subgroup of the stabilizer.

    Plants the pivots of chain `source` of the level-(n-1) quotient at the
    first vertex and sifts them into chain `target` of the level-n quotient;
    the table binds the two descriptors.
    """
    q = quotient_at(level)
    source = quotient_at(level - 1).chain(source)
    target = q.chain(target)
    pivots = planted(datum.p, level, source.perms(), [0])
    failed = np.flatnonzero(target.sift_batch(pivots)[0] >= 0)
    certs = {
        "source-order-exponent": source.order_exponent(),
        "target-order-exponent": target.order_exponent(),
        "pivot-count": len(pivots),
        "failed-pivot-count": len(failed),
    }
    if len(failed):
        _witness_cert(certs, "witness", Portrait._from_perm(datum.p, level, pivots[failed[0]]))
    return _outcome(VERIFIED if not len(failed) else REFUTED, certs)


def check_st1_derived_in_gamma3(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt
) -> dict:
    """Derived subgroup of the level-1 kernel inside the third lower-central term."""
    q = quotient_at(level)
    sub = q.kernel_derived(1)
    target = q.gamma3()
    certs = {
        "sub-order-exponent": sub.order_exponent(),
        "target-order-exponent": target.order_exponent(),
    }
    return _outcome(VERIFIED if _contains(certs, "contained", target, sub) else REFUTED, certs)


def check_subdirect(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt
) -> dict:
    """First-level sections of a distinguished subgroup against the full quotient.

    For data with a non-symmetric vector or joint span of dimension at least
    two, the derived subgroup's section at every first-level vertex should be
    the whole smaller quotient; otherwise the third lower-central term is
    tested the same way.
    """
    route = "derived" if cls.branch_over_derived else "gamma3"
    q = quotient_at(level)
    chain = q.chain(route)
    full = quotient_at(level - 1)
    full_exp = full.order_exponent()
    section_exps = section_exponents(chain, q.gen_perms, 1)
    bad = [x for x, e in enumerate(section_exps, start=1) if e != full_exp]
    certs = {
        "route": route,
        "full-order-exponent": full_exp,
        "section-order-exponents": section_exps,
        "deficient-coordinates": bad,
    }
    return _outcome(VERIFIED if not bad else REFUTED, certs)


# -- congruence subgroup property -------------------------------------------------


def _csp_route(cls: Classification, datum: NumericalDatum) -> tuple[str, int]:
    """Target subgroup and kernel level of the positive congruence-kernel check."""
    if cls.branch_over_derived:
        return "derived", datum.total_generators + 1
    return "gamma3", 5


def check_csp_positive(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt
) -> dict:
    """A level kernel inside the predicted normal subgroup, for positive data.

    For data with full joint span and a branch structure over the derived
    subgroup, the level-(r+1) kernel should lie in the derived subgroup.  For
    the remaining positive data the level-5 kernel should lie in the third
    lower-central term, which needs level at least 6.
    """
    route, k = _csp_route(cls, datum)
    q = quotient_at(level)
    kern = q.kernel(k)
    target = q.chain(route)
    certs = {
        "route": route,
        "kernel-level": k,
        "kernel-order-exponent": kern.order_exponent(),
        "target-order-exponent": target.order_exponent(),
    }
    return _outcome(VERIFIED if _contains(certs, "contained", target, kern) else REFUTED, certs)


def _nested(p: int, inner: GroupWord, slot: int, leaves: list[GroupWord], depth: int) -> BranchElement:
    """`inner` nested `depth` levels down at child `slot`, every other child
    of a node the leaf of the same position in `leaves`."""
    element = BranchElement.leaf(inner)
    for _ in range(depth):
        children = [BranchElement.leaf(w) for w in leaves]
        children[slot] = element
        element = BranchElement.node(p, 0, children)
    return element


def dependent_witness(
    datum: NumericalDatum, level: int
) -> tuple[GroupWord, GroupWord, BranchElement]:
    """Words for the dependent-family defect and its level-n stabilizer twin.

    Returns (c, t1, tn): c is the target syllable, t1 the cross-family product
    congruent to it to depth 2, and tn the recursively built element that
    agrees with c to depth n while staying in the coset of t1 modulo the
    derived subgroup.  The datum must have linearly dependent joint vectors.
    """
    c_word, t1_word = dependency(datum)
    sections = first_level_sections(c_word, datum)
    slot = next(x for x, section in enumerate(sections) if section.syllable_length)
    return c_word, t1_word, _nested(datum.p, t1_word, slot, sections, level - 1)


def check_csp_witness_dependent(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt, aux_level: int
) -> dict:
    """Constructive congruence defect for linearly dependent defining vectors.

    Builds an element tn that agrees with the target syllable c to depth n
    while lying in the coset of the cross-family product t1 modulo the derived
    subgroup.  Since c and t1 have different abelianization classes, c cannot
    be congruent to tn modulo the derived subgroup in the infinite group, yet
    the defect lies in every level kernel shadow tested here.
    """
    q = quotient_at(aux_level)
    c_word, t1_word, tn = dependent_witness(datum, level)
    c_small = evaluate(c_word, datum, level)
    tn_small = evaluate_branch(tn, datum, level)
    agrees = (~c_small * tn_small).is_identity()

    ab_c = abelianization(c_word, datum)
    ab_t1 = abelianization(t1_word, datum)

    c_img = evaluate(c_word, datum, aux_level)
    t1_img = evaluate(t1_word, datum, aux_level)
    tn_img = evaluate_branch(tn, datum, aux_level)
    defect = ~c_img * tn_img
    derived = q.derived()
    in_kernel = q.kernel(level).contains(defect)
    in_derived = derived.contains(defect)
    coset_ok = derived.contains(~t1_img * tn_img)

    certs = {
        "target-word": word_to_text(c_word, datum),
        "factor-word": word_to_text(t1_word, datum),
        "agrees-to-level": agrees,
        "abelianization-target": list(ab_c),
        "abelianization-factor": list(ab_t1),
        "classes-differ": ab_c != ab_t1,
        "factor-coset-in-derived": coset_ok,
        "defect-in-level-kernel": in_kernel,
        "defect-in-derived": in_derived,
    }
    ok = agrees and ab_c != ab_t1 and coset_ok and in_kernel
    return _outcome(VERIFIED if ok else REFUTED, certs)


def exceptional_witness(
    datum: NumericalDatum, level: int
) -> tuple[GroupWord, BranchElement]:
    """Commutator witness and its level-n stabilizer twin for exceptional pairs.

    The datum must lie in the exceptional class.
    """
    j, k = exceptional_pair(datum)
    p = datum.p
    bj = GroupWord.generator(datum, j, 1)
    bk = GroupWord.generator(datum, k, 1)
    w = commutator_word(bj, bk)
    t2 = commutator_word(bj.conj(GroupWord.rooted(p, (j - k) % p)), bk)
    return w, _nested(p, t2, (p - k) % p, [GroupWord.identity(p)] * p, level - 2)


def check_csp_witness_exceptional(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt, aux_level: int
) -> dict:
    """Constructive congruence defect for the exceptional two-family data.

    The commutator w of the two involved generators admits, for every n, an
    element tn of the level-n stabilizer congruent to it modulo the third
    lower-central term.  If w escaped that term in some finite quotient the
    statement would be refuted there; the search over levels 2..m records the
    first escape level, or None when the term's congruence closure already
    holds w at every tested level.
    """
    q = quotient_at(aux_level)
    w, tn = exceptional_witness(datum, level)
    in_stab = evaluate_branch(tn, datum, level).is_identity()

    w_img = evaluate(w, datum, aux_level)
    tn_img = evaluate_branch(tn, datum, aux_level)
    coset_ok = q.gamma3().contains(tn_img * ~w_img)

    escape_level = None
    for m in range(2, aux_level + 1):
        qm = quotient_at(m)
        if not qm.gamma3().contains(evaluate(w, datum, m)):
            escape_level = m
            break
    in_final = q.gamma3().contains(w_img)
    consistent = (escape_level is None) == in_final

    certs = {
        "witness-word": word_to_text(w, datum),
        "t-in-level-stabilizer": in_stab,
        "t-w-coset-in-gamma3": coset_ok,
        "escape-level": escape_level,
        "witness-in-gamma3-at-aux": in_final,
        "consistent": consistent,
    }
    return _outcome(VERIFIED if (in_stab and coset_ok and consistent) else REFUTED, certs)


# -- fractality and closures -------------------------------------------------------


def check_fractality(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt
) -> dict:
    """Sections of level stabilizers at every vertex against the full quotient.

    For each k below the level, the section of the level-k kernel at each
    depth-k vertex is compared with the full quotient at the remaining depth.
    """
    q = quotient_at(level)
    per_level = []
    first_defect = None
    for k in range(1, level):
        full_exp = quotient_at(level - k).order_exponent()
        exps = section_exponents(q.kernel(k), q.gen_perms, k)
        vertices = itertools.product(range(1, datum.p + 1), repeat=k)
        defects = [(vertex, exp) for vertex, exp in zip(vertices, exps) if exp != full_exp]
        if defects and first_defect is None:
            # The smallest position of its orbit, where the section was computed.
            vertex, exp = defects[0]
            first_defect = {
                "k": k,
                "vertex": list(vertex),
                "section-exponent": exp,
                "full-exponent": full_exp,
            }
        per_level.append(
            {"k": k, "full-exponent": full_exp, "defect-count": len(defects)}
        )
    certs: dict = {"levels": per_level}
    if first_defect is not None:
        certs["first-defect"] = first_defect
    return _outcome(VERIFIED if first_defect is None else REFUTED, certs)


def check_full_section_vertex(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt, word: GroupWord
) -> dict:
    """Search for a vertex where a normal closure has a full section.

    Takes a nontrivial word, forms its normal closure in the quotient two
    levels below the search bound, and scans vertices in breadth-first order
    for one whose section of the closure is the whole smaller quotient.  The
    level passed in is the depth bound of the search; the report gives the
    level of the quotient, two deeper.
    """
    depth_bound = level
    level = depth_bound + 2
    q = quotient_at(level)
    closure = q.normal_closure([evaluate(word, datum, level)])
    found = None
    found_exp = None
    target_exp = None
    for d in range(1, depth_bound + 1):
        full_exp = quotient_at(level - d).order_exponent()
        exps = section_exponents(closure, q.gen_perms, d)
        vertices = itertools.product(range(1, datum.p + 1), repeat=d)
        # The first full vertex in product order is the smallest of its orbit.
        found = next((list(vertex) for vertex, exp in zip(vertices, exps) if exp == full_exp), None)
        if found is not None:
            found_exp = target_exp = full_exp
            break
    certs = {
        "closure-order-exponent": closure.order_exponent(),
        "vertex": found,
        "section-order-exponent": found_exp,
        "target-order-exponent": target_exp,
    }
    notes: tuple[str, ...] = ()
    if found is None:
        notes = (
            "no vertex within the depth bound has a full section; a larger "
            "bound or level may still find one",
        )
    return {**_outcome(VERIFIED if found is not None else GUARD, certs, notes), "level": level}


def check_normal_closure_blocks(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt, word: GroupWord
) -> dict:
    """Blocks of lower-central terms inside the normal closure of one element.

    For a nontrivial word, finds the first n such that the product of copies
    of the smaller quotient's third lower-central term over all depth-n
    vertices lies inside the closure; outside the exceptional class the same
    search is run with derived-subgroup blocks.
    """
    q = quotient_at(level)
    closure = q.normal_closure([evaluate(word, datum, level)])

    def first_level(descriptor: str) -> int | None:
        for n in range(1, level):
            small = quotient_at(level - n)
            blocks = block_product_chain(datum.p, level, n, small.chain(descriptor))
            if closure.contains_chain(blocks)[0]:
                return n
        return None

    gamma3_level = first_level("gamma3")
    derived_level = None if cls.in_E_class else first_level("derived")
    certs = {
        "closure-order-exponent": closure.order_exponent(),
        "first-gamma3-block-level": gamma3_level,
        "first-derived-block-level": derived_level,
        "derived-route-applicable": not cls.in_E_class,
    }
    ok = gamma3_level is not None and (cls.in_E_class or derived_level is not None)
    notes: tuple[str, ...] = ()
    if not ok:
        notes = ("no block level found below the tested level; raise the level",)
    return _outcome(VERIFIED if ok else GUARD, certs, notes)


def check_weak_csp(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt, aux_level: int
) -> dict:
    """Derived blocks at depth n against the derived part of the level-n kernel.

    In the quotient at the aux level m, the product of derived-subgroup copies
    over all depth-n vertices should lie inside the image of the derived
    subgroup of the level-n stabilizer; the reverse containment holds for
    trivial reasons and is asserted as a sanity certificate.
    """
    q = quotient_at(aux_level)
    stab_derived = q.kernel_derived(level)
    small = quotient_at(aux_level - level)
    blocks = block_product_chain(datum.p, aux_level, level, small.derived())
    certs = {
        "stabilizer-derived-exponent": stab_derived.order_exponent(),
        "derived-blocks-exponent": blocks.order_exponent(),
    }
    contained = _contains(certs, "blocks-inside-stabilizer-derived", stab_derived, blocks)
    trivial_dir, _ = blocks.contains_chain(stab_derived)
    certs["stabilizer-derived-inside-blocks"] = trivial_dir
    certs["equal"] = contained and trivial_dir
    return _outcome(VERIFIED if contained else REFUTED, certs)


# -- constant-vector data ----------------------------------------------------------


def _index_p_elements(datum: NumericalDatum, q: FiniteQuotient, families: tuple[int, ...]) -> list[Portrait]:
    """The classes of b a^-1 for the generators b of the given families,
    which generate the index-p subgroup as a normal subgroup."""
    directed = [GroupWord.generator(datum, j, i) for j in families for i in range(1, len(datum.family(j)) + 1)]
    return [evaluate(b * ~GroupWord.rooted(datum.p, 1), datum, q.level) for b in directed]


def _star_products(p: int, level: int, pivots: np.ndarray, rng: random.Random, samples: int) -> np.ndarray:
    """Seeded star products as a stack of leaf permutations, one row per sample.

    A sample g is the product of 2 to 5 factors, each a random pivot (a row
    of `pivots`) to a random power from 1 to p-1, drawn as
    `rng.choice(pivots) ** rng.randint(1, p - 1)` would draw them; its star
    is the product of the conjugates a^-i g a^i for i = 0, ..., p-1. The
    draws come first, then every sample is built by one stack product per
    factor slot, over the samples that have that factor, and every star by
    one per conjugate.
    """
    powers = perm_powers(pivots, p - 1)  # powers[e - 1][i] is pivot i to the e
    picks = np.zeros((5, samples, 2), np.intp)  # (pivot, exponent) of each factor slot, 0 for none
    for s in range(samples):
        for t in range(rng.randint(2, 5)):
            picks[t, s] = rng.choice(range(len(pivots))), rng.randint(1, p - 1)
    g = powers[picks[0, :, 1] - 1, picks[0, :, 0]]
    for slot in picks[1:]:
        has = slot[:, 1] > 0
        g[has] = perm_compose(g[has], powers[slot[has, 1] - 1, slot[has, 0]])
    star = g
    for i in range(1, p):
        untwist, twist = Portrait.rooted(p, level, -i).perm, Portrait.rooted(p, level, i).perm
        star = perm_compose(star, perm_compose(perm_compose(untwist, g), twist))
    return star


def check_constant_vector(
    datum: NumericalDatum, cls: Classification, level: int, quotient_at: QuotientAt,
    seed: int, samples: int,
) -> dict:
    """Structure of the index-p subgroup for all-constant multi-family data.

    Certifies that the subgroup generated by the classes of b a^{-1} has index
    p and contains the derived subgroup, that its derived subgroup repeats one
    level down, that seeded star products from each single-family version land
    in that version's derived subgroup, and that at level 2 the derived
    subgroup meets each single-family version exactly in its derived subgroup.
    """
    p = datum.p
    fams = datum.nonempty_families

    @cache  # each level's index-p subgroup N of some families, and [N, N], closed once a call
    def index_p(lvl: int, families: tuple[int, ...]) -> tuple[SubgroupChain, SubgroupChain]:
        q = quotient_at(lvl)
        elements = _index_p_elements(datum, q, families)
        sub = q.normal_closure(elements)
        return sub, commutator_chain(p, lvl, np.stack([g.perm for g in elements]), sub.perms(), q.gen_perms)

    q = quotient_at(level)
    sub, sub_derived = index_p(level, fams)
    index_exp = q.order_exponent() - sub.order_exponent()
    contains_derived = sub.contains_chain(q.derived())[0]

    embedded = planted(p, level, index_p(level - 1, fams)[1].perms(), [0])
    block_fails = int((sub_derived.sift_batch(embedded)[0] >= 0).sum())

    rng = random.Random(seed)
    star_fails = star_runs = 0
    for j in fams:
        single, single_derived = index_p(level, (j,))
        stars = _star_products(p, level, single.perms(), rng, samples)
        star_runs += len(stars)
        star_fails += int((single_derived.sift_batch(stars)[0] >= 0).sum())

    k2_derived_elems = index_p(2, fams)[1].elements()
    intersection_ok = []
    for j in fams:
        single, single_derived = index_p(2, (j,))
        meet = k2_derived_elems[single.sift_batch(k2_derived_elems)[0] < 0]
        intersection_ok.append({g.tobytes() for g in meet} == {g.tobytes() for g in single_derived.elements()})

    certs = {
        "index-exponent": index_exp,
        "contains-derived": contains_derived,
        "derived-block-failures": block_fails,
        "star-sample-count": star_runs,
        "star-failures": star_fails,
        "level2-intersections-equal": intersection_ok,
    }
    ok = index_exp == 1 and contains_derived and block_fails == star_fails == 0 and all(intersection_ok)
    return _outcome(VERIFIED if ok else REFUTED, certs)


# -- the check table -----------------------------------------------------------------

# A precondition: a test on the classification and the datum, and the error
# message when it fails; "{name}" in the message becomes the check's name.
Requirement = tuple[Callable[[Classification, NumericalDatum], bool], str]

NOT_CONSTANT_CLASS: Requirement = (lambda cls, datum: not cls.in_G_class, "{name} does not apply "
    "to data whose families are all constant singletons across two or more families")
BRANCH_OVER_DERIVED: Requirement = (lambda cls, datum: cls.branch_over_derived,
    "{name} needs a branch structure over the derived subgroup")
CSP_PREDICTED: Requirement = (lambda cls, datum: cls.csp == HAS_CSP, "{name} applies only to data "
    "whose classification predicts that every finite-index subgroup is a congruence subgroup")
# The joint vectors have a nonzero left kernel exactly when their rank is below their count.
DEPENDENT_VECTORS: Requirement = (lambda cls, datum: cls.dimV < datum.total_generators,
    "the joint defining vectors are linearly independent")
P_ABOVE_3: Requirement = (lambda cls, datum: datum.p != 3,
    "the exceptional class is empty for p = 3")
EXCEPTIONAL_CLASS: Requirement = (lambda cls, datum: cls.in_E_class,
    "{name} applies only to the exceptional two-family symmetric data")
CONSTANT_CLASS: Requirement = (lambda cls, datum: cls.in_G_class,
    "{name} applies only to data with two or more families, all constant singletons")


@dataclass(frozen=True)
class CheckSpec:
    """What one check needs, what it predicts and where the default suite runs it.

    `level` is the default level, None for the minimum level; `min_level` is
    a number or a function of the classification and the datum.  A check with
    an aux level m takes m = level + `aux` by default and needs m > level.
    `expect` maps the classification, the datum and the level asked for to
    the predicted verdict and its reasons.  `suite_level` maps the
    classification and the default level to the level the suite uses, or to
    None to leave the datum out; `suite_data` limits the suite rows to the
    named data, which it runs with the word `SUITE_WORD`.
    """

    run: Callable[..., dict]
    level: int | None = 3
    min_level: int | Callable[[Classification, NumericalDatum], int] = 2
    aux: int | None = None
    word: bool = False
    seeded: bool = False
    requires: tuple[Requirement, ...] = ()
    expect: Callable[[Classification, NumericalDatum, int], Prediction] = (
        lambda cls, datum, level: (VERIFIED, ())
    )
    suite_level: Callable[[Classification, int], int | None] | None = None
    suite_data: tuple[str, ...] | None = None

    def applies(self, cls: Classification, datum: NumericalDatum) -> str | None:
        """The message of the first precondition the datum fails, or None."""
        for holds, message in self.requires:
            if not holds(cls, datum):
                return message
        return None

    def levels(self, cls: Classification, datum: NumericalDatum) -> tuple[int, int]:
        """(minimum level, default level) for this datum."""
        low = self.min_level(cls, datum) if callable(self.min_level) else self.min_level
        return low, low if self.level is None else self.level


def _expect_abelianization_index(cls: Classification, datum: NumericalDatum, level: int) -> Prediction:
    """Independent joint vectors reach the index p^(1+r) from level r+1 on.
    Constant-class data with two families reach it too, as no branch
    containment forces a merge; with three or more families the index stays
    at p^3 (measured at p = 3 to level 5, at p = 5 to level 4, at p = 7 at
    level 3). Dependent joint vectors merge the involved generator classes
    in every congruence abelianization of data that branch over the derived
    subgroup; the other dependent data get no prediction."""
    if cls.in_G_class and len(datum.nonempty_families) > 2:
        return None, (
            "with three or more constant singleton families the measured index "
            "is p^3, below p^(1+r), so no verdict is predicted",
        )
    if cls.dimV == datum.total_generators or cls.in_G_class:
        if level > datum.total_generators:
            return VERIFIED, ()
        return None, ("the index p^(1+r) is predicted only from level r+1 on",)
    if cls.branch_over_derived:
        return REFUTED, (
            "the joint defining vectors are linearly dependent, so the involved "
            "generator classes coincide in every congruence abelianization and "
            "the full-rank index cannot appear at any level",
        )
    return None, ()


CHECKS: dict[str, CheckSpec] = {
    "abelianization-index": CheckSpec(check_abelianization_index, expect=_expect_abelianization_index),
    # The derived subgroup embeds below one vertex exactly when some defining
    # vector is non-symmetric or the joint span has dimension at least two.
    "branch-over-derived": CheckSpec(
        partial(check_embedding, "derived", "kernel-derived:1"),
        expect=lambda cls, datum, level: (
            (VERIFIED, ()) if cls.branch_over_derived
            else (VERIFIED, (
                "at level 2 the source is the derived subgroup of the level-1 "
                "quotient C_p, which is trivial, so the embedding holds vacuously",
            )) if level == 2
            else (REFUTED, ())
        ),
    ),
    "branch-over-gamma3": CheckSpec(
        partial(check_embedding, "gamma3", "kernel-gamma3:1"), requires=(NOT_CONSTANT_CLASS,),
        expect=lambda cls, datum, level: (
            (VERIFIED if level <= 3 else REFUTED, (
                "a single constant singleton family embeds at levels up to 3 and "
                "fails from level 4 on; a failure is exact at the tested level",
            )) if single_constant_family(datum) else (VERIFIED, ())
        ),
    ),
    "st1-derived-in-gamma3": CheckSpec(
        check_st1_derived_in_gamma3, requires=(NOT_CONSTANT_CLASS,),
        expect=lambda cls, datum, level: (VERIFIED, (
            "for this datum the containment fails in the infinite group but "
            "the defect is not visible at levels up to 4; a non-containment "
            "here would be a rigorous refutation at the tested level",
        ) if cls.in_E_class else ()),
    ),
    # For a single constant singleton family the sections are whole at level
    # 2, exponents [1, 1, 1] against 1, and fall short from level 3 on. The
    # wording of the level-3 reason is kept as the suite's golden report has it.
    "subdirect": CheckSpec(
        check_subdirect, requires=(NOT_CONSTANT_CLASS,),
        expect=lambda cls, datum, level: (
            (VERIFIED, ()) if not single_constant_family(datum)
            else (VERIFIED, (
                "for a single constant singleton family the tested sections at "
                "level 2 are the whole level-1 quotient C_p",
            )) if level == 2
            else (REFUTED, (
                "for a single constant singleton family the tested sections stay "
                "a fixed index below the full quotient at every level",
            ))
        ),
    ),
    "second-derived": CheckSpec(
        partial(check_embedding, "gamma3", "second-derived"), requires=(BRANCH_OVER_DERIVED,)
    ),
    # The default level is the minimum; the suite leaves out the gamma3 route,
    # whose level 6 is too deep for it.
    "csp-positive": CheckSpec(
        check_csp_positive, level=None, min_level=lambda cls, datum: _csp_route(cls, datum)[1] + 1,
        requires=(CSP_PREDICTED,), suite_level=lambda cls, n: n if cls.branch_over_derived else None
    ),
    "csp-witness-dependent": CheckSpec(
        check_csp_witness_dependent, min_level=0, aux=2,
        requires=(BRANCH_OVER_DERIVED, DEPENDENT_VECTORS),
        expect=lambda cls, datum, level: (VERIFIED, (
            "the defect lands inside the derived image at every finite level "
            "because the dependent generator classes already merge there; the "
            "non-congruence in the infinite group is witnessed by the different "
            "abelianization classes together with the coset certificate",
        )),
    ),
    "csp-witness-exceptional": CheckSpec(
        check_csp_witness_exceptional, level=2, aux=2, requires=(P_ABOVE_3, EXCEPTIONAL_CLASS),
        expect=lambda cls, datum, level: (VERIFIED, (
            "an escape level of None means the defect of the infinite statement "
            "is not visible at the tested levels: the congruence closure of the "
            "third lower-central term contains the witness in every tested "
            "quotient",
        )),
    ),
    # Every nonempty family a constant singleton, one family or several.
    "fractality": CheckSpec(
        check_fractality, suite_level=lambda cls, n: 4 if cls.in_G_class else n,
        expect=lambda cls, datum, level: (
            (VERIFIED if level <= 3 else REFUTED, (
                "for data whose families are all constant singletons the level-2 "
                "kernel sections drop to index p once the level reaches 4",
            )) if cls.in_G_class or single_constant_family(datum) else (VERIFIED, ())
        ),
    ),
    # Constant-class data and a single constant singleton family are not
    # branch; the search finds no full section within the bound (levels 2-4).
    "full-section-vertex": CheckSpec(
        check_full_section_vertex, level=2, min_level=1, word=True, suite_data=("single-12",),
        expect=lambda cls, datum, level: (
            None if cls.in_G_class or single_constant_family(datum) else VERIFIED, ()
        ),
    ),
    "normal-closure-blocks": CheckSpec(
        check_normal_closure_blocks, level=4, word=True, requires=(BRANCH_OVER_DERIVED,),
        suite_data=("single-12",),
    ),
    "weak-csp": CheckSpec(
        check_weak_csp, level=1, min_level=1, aux=2, requires=(NOT_CONSTANT_CLASS,),
        suite_data=("single-12",),
        expect=lambda cls, datum, level: (VERIFIED if cls.branch_over_derived else None, ()),
    ),
    "constant-vector": CheckSpec(check_constant_vector, seeded=True, requires=(CONSTANT_CLASS,)),
}

CHECK_NAMES = tuple(CHECKS)


def run_check(
    name: str,
    datum: NumericalDatum,
    level: int | None = None,
    aux_level: int | None = None,
    word: GroupWord | str | None = None,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    store: ChainStore | None = None,
    degree_guard: int = DEFAULT_DEGREE_GUARD,
) -> CheckReport:
    """Run one named check with defaults filled in from its table entry.

    The shared preamble classifies the datum (which validates it), tests the
    check's preconditions, parses and tests the witness word where the check
    takes one, fills in and bounds the levels, and takes the prediction from
    the table. Every quotient the check asks for shares the store; without
    one, a store made for the call.
    """
    spec = CHECKS.get(name)
    if spec is None:
        raise CheckError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    cls = classify(datum)
    problem = spec.applies(cls, datum)
    if problem is not None:
        raise CheckError(problem.format(name=name))
    extra: dict = {}
    if spec.word:
        if word is None:
            raise CheckError(f"{name} needs a witness word")
        if isinstance(word, str):
            word = parse_word(word, datum)
        if is_trivial(word, datum):
            raise CheckError("the witness word evaluates to the identity")
        extra["word"] = word
    min_level, default_level = spec.levels(cls, datum)
    if level is None:
        level = default_level
    if level < min_level:
        for_datum = " for this datum" if callable(spec.min_level) else ""
        raise CheckError(f"{name} needs level >= {min_level}{for_datum}")
    if spec.aux is None:
        aux_level = None
    else:
        if aux_level is None:
            aux_level = level + spec.aux
        if aux_level <= level:
            raise CheckError(f"{name} needs aux level > level")
        extra["aux_level"] = aux_level
    if spec.seeded:
        if samples < 1:
            raise CheckError(f"{name} needs samples >= 1")
        extra.update(seed=seed, samples=samples)
    if store is None:
        store = ChainStore()
    quotient_at = partial(FiniteQuotient, datum, degree_guard=degree_guard, store=store)
    expected, reasons = spec.expect(cls, datum, level)
    fields = {"level": level, "aux_level": aux_level, "seed": extra.get("seed")}
    fields.update(spec.run(datum, cls, level, quotient_at, **extra))
    fields["notes"] = reasons + fields["notes"]
    return CheckReport(check=name, datum_text=datum.canonical_line(), expected=expected, **fields)


SUITE_DATA = (
    ("single-12", "p = 3; E1 = (1, 2)"),
    ("single-11", "p = 3; E1 = (1, 1)"),
    ("single-22", "p = 3; E1 = (2, 2)"),
    ("single-01", "p = 3; E1 = (0, 1)"),
    ("pair-dependent", "p = 3; E1 = (1, 2); E2 = (1, 2)"),
    ("pair-independent", "p = 3; E1 = (1, 2); E2 = (2, 2)"),
    ("pair-reversed", "p = 3; E1 = (1, 2); E2 = (2, 1)"),
    ("rank-two", "p = 3; E1 = (1, 0), (0, 1)"),
    ("constant-pair", "p = 3; E1 = (1, 1); E2 = (1, 1)"),
    ("p5-exceptional", "p = 5; E1 = (1, 0, 0, 1); E2 = (0, 1, 1, 0)"),
    ("p5-symmetric", "p = 5; E1 = (1, 0, 0, 1)"),
    ("p5-generic", "p = 5; E1 = (1, 2, 0, 0)"),
)

SUITE_WORD = "a"


def suite_plan() -> list[tuple[str, str, str, dict]]:
    """Deterministic (datum name, datum text, check name, kwargs) rows.

    For each suite datum, in table order, every check that applies to it and
    whose `suite_level` and `suite_data` keep it.
    """
    return [(name, text, check, kwargs) for name, text, _, check, kwargs in _suite_rows()]


def _suite_rows() -> list[tuple[str, str, NumericalDatum, str, dict]]:
    """The rows of `suite_plan`, each with its datum, parsed once per datum."""
    rows = []
    for name, text in SUITE_DATA:
        datum = NumericalDatum.from_text(text)
        cls = classify(datum)
        for check, spec in CHECKS.items():
            if spec.applies(cls, datum) is not None:
                continue
            if spec.suite_data is not None and name not in spec.suite_data:
                continue
            level = spec.levels(cls, datum)[1]
            if spec.suite_level is not None:
                level = spec.suite_level(cls, level)
                if level is None:
                    continue
            kwargs: dict = {"level": level}
            if spec.word:
                kwargs["word"] = SUITE_WORD
            rows.append((name, text, datum, check, kwargs))
    return rows


def run_suite(
    store: ChainStore | None = None,
    degree_guard: int = DEFAULT_DEGREE_GUARD,
    seed: int = DEFAULT_SEED,
) -> list[tuple[str, CheckReport]]:
    """Run every suite row sequentially with one shared store."""
    if store is None:
        store = ChainStore()
    out = []
    for name, _, datum, check, kwargs in _suite_rows():
        report = run_check(
            check, datum, seed=seed, store=store, degree_guard=degree_guard, **kwargs
        )
        out.append((name, report))
    return out
