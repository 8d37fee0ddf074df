"""Numerical data defining groups of tree automorphisms with directed generators.

A datum over an odd prime p assigns to each index j in 1..p a (possibly empty)
family of defining vectors in F_p^(p-1). Family j produces directed generators
whose portraits follow the path (p-j+1, p-j+1, ...) down the tree; the vector
entries are the rotation exponents planted on the siblings of that path. The
rooted generator a rotates the top-level subtrees by one step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fp import rank_mod
from .portraits import Portrait, label_count, leaf_count, level_offsets


class DatumError(ValueError):
    """Invalid defining datum or datum text."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class NumericalDatum:
    """Defining vectors grouped by family index; `families[j-1]` is family j."""

    p: int
    families: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        _check_datum(
            self.p,
            len(self.families),
            {j: fam for j, fam in enumerate(self.families, start=1) if fam},
        )

    # -- structure ----------------------------------------------------------

    def family(self, j: int) -> tuple[tuple[int, ...], ...]:
        return self.families[j - 1]

    @property
    def nonempty_families(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.p + 1) if self.families[j - 1])

    @property
    def total_generators(self) -> int:
        return sum(len(f) for f in self.families)

    def all_vectors(self) -> list[tuple[int, ...]]:
        out = []
        for fam in self.families:
            out.extend(fam)
        return out

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"p = {self.p}"]
        for j in self.nonempty_families:
            vecs = ", ".join("(" + ", ".join(str(x) for x in v) + ")" for v in self.family(j))
            lines.append(f"E{j} = {vecs}")
        return "\n".join(lines) + "\n"

    def canonical_line(self) -> str:
        return "; ".join(self.to_text().strip().splitlines())

    @classmethod
    def from_text(cls, text: str) -> "NumericalDatum":
        """Parse a datum from text; lines may be separated by newlines or semicolons."""
        p = None
        fams: dict[int, tuple[tuple[int, ...], ...]] = {}
        pieces = [part for chunk in text.splitlines() for part in chunk.split(";")]
        for lineno, raw in enumerate(pieces, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DatumError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "p":
                if p is not None:
                    raise DatumError(f"line {lineno}: p defined twice")
                try:
                    p = int(value)
                except ValueError as exc:
                    raise DatumError(f"line {lineno}: p must be an integer") from exc
            elif re.fullmatch(r"E\d+", key):
                j = int(key[1:])
                if j in fams:
                    raise DatumError(f"line {lineno}: family {j} defined twice")
                fams[j] = _parse_vectors(value, lineno)
            else:
                raise DatumError(f"line {lineno}: unknown key {key!r}")
        if p is None:
            raise DatumError("datum text never defines p")
        for j in fams:
            if not 1 <= j <= p:
                raise DatumError(f"family index {j} outside 1..{p}")
        # Checked before the families are padded to p, so a huge p costs nothing.
        _check_datum(p, p, fams)
        return cls(p, tuple(fams.get(j, ()) for j in range(1, p + 1)))


def _check_datum(p: int, count: int, named: dict[int, tuple[tuple[int, ...], ...]]) -> None:
    """Raise DatumError unless p and the `count` families form a valid datum.

    `named` maps the index of each nonempty family to its vectors; the
    problems of the families are all named, in family order. The cost
    is bounded by the size of the vectors: p is tested for primality only
    when p - 1 is at most the longest vector's length. Otherwise a vector has
    the wrong length, or there is none, whatever p is, and that is reported.
    """
    for j, fam in named.items():
        if not (isinstance(fam, tuple) and all(isinstance(vec, tuple) for vec in fam)):
            raise DatumError(f"family {j} must be a tuple of vectors, each a tuple of integers")
    longest = max((len(vec) for fam in named.values() for vec in fam), default=0)
    if p - 1 <= longest and (p == 2 or not _is_prime(p)):
        raise DatumError(f"p must be an odd prime, got {p}")
    if count != p:
        raise DatumError(f"expected {p} families, got {count}")
    problems = []
    for j, fam in sorted(named.items()):
        if len(fam) > p - 1:
            problems.append(f"family {j} has {len(fam)} vectors, at most {p - 1} allowed")
        for i, vec in enumerate(fam, start=1):
            if len(vec) != p - 1:
                problems.append(f"vector {i} of family {j} has length {len(vec)}, expected {p - 1}")
            elif any(not 0 <= x < p for x in vec):
                problems.append(f"vector {i} of family {j} has entries outside 0..{p - 1}")
        vecs = [[x % p for x in vec] for vec in fam if len(vec) == p - 1]
        if vecs and rank_mod(vecs, p) < len(vecs):
            problems.append(f"family {j} is linearly dependent")
    if not named:
        problems.append("at least one family must be nonempty")
    if problems:
        raise DatumError("; ".join(problems))


def _parse_vectors(value: str, lineno: int) -> tuple[tuple[int, ...], ...]:
    vecs = []
    pattern = re.compile(r"\(([^()]*)\)")
    pos = 0
    for match in pattern.finditer(value):
        gap = value[pos : match.start()]
        if gap.strip() not in ("", ","):
            raise DatumError(f"line {lineno}: unexpected text {gap.strip()!r} between vectors")
        inner = match.group(1).strip()
        if not inner:
            raise DatumError(f"line {lineno}: empty vector")
        try:
            vecs.append(tuple(int(tok.strip()) for tok in inner.split(",")))
        except ValueError as exc:
            raise DatumError(f"line {lineno}: bad vector entry in ({inner})") from exc
        pos = match.end()
    tail = value[pos:].strip()
    if tail:
        raise DatumError(f"line {lineno}: unexpected trailing text {tail!r}")
    if not vecs:
        raise DatumError(f"line {lineno}: family line has no vectors")
    return tuple(vecs)


# -- vector predicates ---------------------------------------------------------


def is_symmetric(vector: tuple[int, ...], p: int) -> bool:
    """Entry k equals entry p-k for all k (indices 1-based into length p-1)."""
    return all(vector[k - 1] == vector[p - k - 1] for k in range(1, (p - 1) // 2 + 1))


def is_constant(vector: tuple[int, ...]) -> bool:
    """All entries equal and nonzero."""
    return len(set(vector)) == 1 and vector[0] != 0


# -- generator portraits -------------------------------------------------------


@lru_cache(maxsize=None)
def _generator_portrait_cached(datum: NumericalDatum, j: int, i: int, depth: int) -> Portrait:
    p = datum.p
    vec = datum.family(j)[i - 1]
    labels = np.zeros(label_count(p, depth), dtype=np.int16)
    offs = level_offsets(p, depth)
    s = p - j + 1
    q = 0
    for t in range(depth - 1):
        for c in range(1, p + 1):
            if c == s:
                continue
            m = (j - 1 + c) % p
            labels[offs[t + 1] + q * p + (c - 1)] = vec[m - 1] % p
        q = q * p + (s - 1)
    return Portrait(p, depth, labels)


def generator_portrait(datum: NumericalDatum, j: int, i: int, depth: int) -> Portrait:
    """Depth-truncated portrait of directed generator i of family j."""
    if j not in datum.nonempty_families:
        raise DatumError(f"family {j} is empty or out of range")
    if not 1 <= i <= len(datum.family(j)):
        raise DatumError(f"family {j} has no generator {i}")
    leaf_count(datum.p, depth)
    return _generator_portrait_cached(datum, j, i, depth)


def generator_portraits(datum: NumericalDatum, depth: int) -> dict[str, Portrait]:
    """All generator portraits keyed by name, rooted generator first."""
    out = {"a": Portrait.rooted(datum.p, depth, 1)}
    for j in datum.nonempty_families:
        for i in range(1, len(datum.family(j)) + 1):
            out[f"b[{j},{i}]"] = generator_portrait(datum, j, i, depth)
    return out


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    dimV: int
    torsion: bool
    in_G_class: bool
    in_S_class: bool
    in_E_class: bool
    branch_over_derived: bool
    branch_over_gamma3_only: bool
    not_branch: bool
    csp: str
    reasons: tuple[str, ...]


HAS_CSP = "HasCSP"
NO_CSP = "NoCSP"
OUTSIDE_SCOPE = "OutsideTheoremScope"


def is_torsion(datum: NumericalDatum) -> bool:
    """Torsion holds exactly when every defining vector's entries sum to 0 mod p."""
    return all(sum(v) % datum.p == 0 for v in datum.all_vectors())


def exceptional_pair(datum: NumericalDatum) -> tuple[int, int] | None:
    """The two family indices if the datum lies in the exceptional class."""
    p = datum.p
    fams = datum.nonempty_families
    if len(fams) != 2:
        return None
    j, k = fams
    if len(datum.family(j)) != 1 or len(datum.family(k)) != 1:
        return None
    e = datum.family(j)[0]
    f = datum.family(k)[0]
    if not (is_symmetric(e, p) and is_symmetric(f, p)):
        return None
    if rank_mod([e, f], p) != 2:
        return None
    for alpha in range(1, p):
        u = tuple((alpha * x) % p for x in e)
        if any(x not in (0, 1) for x in u):
            continue
        for beta in range(1, p):
            v = tuple((beta * x) % p for x in f)
            if all(x in (0, 1) for x in v) and all(a != b for a, b in zip(u, v)):
                return (j, k)
    return None


def classify(datum: NumericalDatum) -> Classification:
    p = datum.p
    vectors = datum.all_vectors()
    reasons = []

    dimV = rank_mod(vectors, p)
    torsion = is_torsion(datum)
    nonsym = [
        (j, i)
        for j in datum.nonempty_families
        for i, v in enumerate(datum.family(j), start=1)
        if not is_symmetric(v, p)
    ]
    branch_over_derived = bool(nonsym) or dimV >= 2
    if nonsym:
        j, i = nonsym[0]
        reasons.append(f"vector b[{j},{i}] is non-symmetric")
    if dimV >= 2:
        reasons.append(f"joint vector span has dimension {dimV}")

    singletons = all(len(datum.family(j)) == 1 for j in datum.nonempty_families)
    all_constant = all(is_constant(v) for v in vectors)
    all_symmetric = all(is_symmetric(v, p) for v in vectors)

    in_G_class = len(datum.nonempty_families) >= 2 and singletons and all_constant
    if in_G_class:
        reasons.append("two or more singleton families, all vectors constant")
    in_S_class = all_symmetric and singletons
    in_E_class = exceptional_pair(datum) is not None
    if in_E_class:
        reasons.append("two independent symmetric singletons scale to complementary 0/1 vectors")

    not_branch = in_G_class
    branch_over_gamma3_only = not branch_over_derived and not in_G_class
    if branch_over_gamma3_only:
        reasons.append("all vectors symmetric with joint span of dimension 1; branch only over the third lower central term")

    if in_G_class:
        csp = OUTSIDE_SCOPE
    elif branch_over_gamma3_only:
        csp = HAS_CSP
    elif in_E_class:
        csp = NO_CSP
    elif dimV == datum.total_generators:
        csp = HAS_CSP
        reasons.append("joint vectors linearly independent")
    else:
        csp = NO_CSP
        reasons.append("joint vectors linearly dependent")

    return Classification(
        dimV=dimV,
        torsion=torsion,
        in_G_class=in_G_class,
        in_S_class=in_S_class,
        in_E_class=in_E_class,
        branch_over_derived=branch_over_derived,
        branch_over_gamma3_only=branch_over_gamma3_only,
        not_branch=not_branch,
        csp=csp,
        reasons=tuple(reasons),
    )

