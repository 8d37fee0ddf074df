"""Words in the rooted and directed generators, with exact recursive invariants.

A word is a sequence of syllables: powers of the rooted generator `a` and
family syllables collecting commuting directed generators of one family.
Reduction merges adjacent syllables of the same kind and drops trivial ones,
giving the normal form in the free product of the generator subgroups. The
syllable count of the reduced word (its family syllables only) is the length
measure that first-level sections never increase in total.

Words, and the branch elements built on them, are the one representation
of elements of the infinite group; a portrait is an element's image in a
finite quotient (`evaluate`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .datum import DatumError, NumericalDatum, generator_portrait
from .fp import left_kernel_vector
from .portraits import GuardExceeded, Portrait, leaf_count


class WordError(ValueError):
    """Malformed word text or an operation outside its domain."""


class ExceedsCap(Exception):
    """The order computation exceeded the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"order exceeds cap {cap}")
        self.cap = cap


# Guards of is_trivial: section levels descended, and syllables in one word.
MAX_SECTION_DEPTH = 30
MAX_SYLLABLES = 10000


def _reduce_syllables(p: int, syllables) -> tuple[tuple, ...]:
    out: list[tuple] = []
    for syl in syllables:
        out.append(syl)
        while len(out) >= 1:
            top = out[-1]
            if top[0] == "a" and top[1] % p == 0:
                out.pop()
                continue
            if top[0] == "b" and all(c % p == 0 for c in top[2]):
                out.pop()
                continue
            if len(out) >= 2:
                prev = out[-2]
                if prev[0] == "a" and top[0] == "a":
                    out.pop()
                    out.pop()
                    out.append(("a", (prev[1] + top[1]) % p))
                    continue
                if prev[0] == "b" and top[0] == "b" and prev[1] == top[1]:
                    merged = tuple((x + y) % p for x, y in zip(prev[2], top[2]))
                    out.pop()
                    out.pop()
                    out.append(("b", top[1], merged))
                    continue
            break
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """Reduced word; construct via the factory helpers or parse_word."""

    p: int
    syllables: tuple[tuple, ...]

    @classmethod
    def identity(cls, p: int) -> "GroupWord":
        return cls(p, ())

    @classmethod
    def from_syllables(cls, p: int, syllables) -> "GroupWord":
        return cls(p, _reduce_syllables(p, syllables))

    @classmethod
    def rooted(cls, p: int, k: int = 1) -> "GroupWord":
        return cls.from_syllables(p, (("a", k % p),))

    @classmethod
    def generator(cls, datum: NumericalDatum, j: int, i: int = 1, power: int = 1) -> "GroupWord":
        size = len(datum.family(j))
        if not 1 <= i <= size:
            raise WordError(f"family {j} has no generator {i}")
        beta = tuple(power % datum.p if t == i - 1 else 0 for t in range(size))
        return cls.from_syllables(datum.p, (("b", j, beta),))

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.p != other.p:
            raise WordError("words over different primes")
        return GroupWord.from_syllables(self.p, self.syllables + other.syllables)

    def __invert__(self) -> "GroupWord":
        inv = []
        for syl in reversed(self.syllables):
            if syl[0] == "a":
                inv.append(("a", (-syl[1]) % self.p))
            else:
                inv.append(("b", syl[1], tuple((-c) % self.p for c in syl[2])))
        return GroupWord.from_syllables(self.p, inv)

    def __pow__(self, e: int) -> "GroupWord":
        """Power by repeated squaring. Raises GuardExceeded once a factor it
        needs passes MAX_SYLLABLES: the reduced word of w^e is at least as
        long as that of w^f for 1 <= f <= e, so the power would pass it too."""
        if e < 0:
            return (~self) ** (-e)
        out = GroupWord.identity(self.p)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
            if max(out.syllable_length, base.syllable_length) > MAX_SYLLABLES:
                raise GuardExceeded(f"a power of a word exceeded the syllable guard {MAX_SYLLABLES}")
        return out

    def conj(self, g: "GroupWord") -> "GroupWord":
        return ~g * self * g

    # -- measures -------------------------------------------------------------

    @property
    def syllable_length(self) -> int:
        """Number of family syllables in the reduced form."""
        return sum(1 for s in self.syllables if s[0] == "b")

    @property
    def a_exponent(self) -> int:
        """Total rooted exponent mod p."""
        return sum(s[1] for s in self.syllables if s[0] == "a") % self.p

    def is_empty(self) -> bool:
        return not self.syllables


def commutator_word(x: GroupWord, y: GroupWord) -> GroupWord:
    return ~x * ~y * x * y


# -- parsing ----------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(b\[\s*\d+\s*(?:,\s*\d+\s*)?\]|a|\(|\)|\[|\]|,|\^|-?\d+)"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise WordError(f"unexpected character {text[pos:].strip()[0]!r} in word")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], datum: NumericalDatum):
        self.tokens = tokens
        self.pos = 0
        self.datum = datum

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise WordError("unexpected end of word")
        self.pos += 1
        return tok

    def parse_word(self, stop: tuple[str, ...] = ()) -> GroupWord:
        out = GroupWord.identity(self.datum.p)
        while True:
            tok = self.peek()
            if tok is None or tok in stop:
                return out
            out = out * self.parse_term()

    def parse_term(self) -> GroupWord:
        atom = self.parse_atom()
        while self.peek() == "^":
            self.take()
            tok = self.peek()
            if tok == "(":
                self.take()
                conj = self.parse_word(stop=(")",))
                if self.take() != ")":
                    raise WordError("unclosed conjugator")
                atom = atom.conj(conj)
            else:
                tok = self.take()
                try:
                    e = int(tok)
                except ValueError as exc:
                    raise WordError(f"expected an exponent after '^', got {tok!r}") from exc
                atom = atom ** e
        return atom

    def parse_atom(self) -> GroupWord:
        tok = self.take()
        if tok == "a":
            return GroupWord.rooted(self.datum.p)
        if tok.startswith("b["):
            inner = tok[2:-1]
            parts = [part.strip() for part in inner.split(",")]
            j = int(parts[0])
            i = int(parts[1]) if len(parts) > 1 else 1
            if j not in self.datum.nonempty_families:
                raise WordError(f"family {j} is empty or out of range")
            return GroupWord.generator(self.datum, j, i)
        if tok == "(":
            word = self.parse_word(stop=(")",))
            if self.take() != ")":
                raise WordError("unclosed parenthesis")
            return word
        if tok == "[":
            x = self.parse_word(stop=(",",))
            if self.take() != ",":
                raise WordError("commutator needs two arguments")
            y = self.parse_word(stop=("]",))
            if self.take() != "]":
                raise WordError("unclosed commutator bracket")
            return commutator_word(x, y)
        raise WordError(f"unexpected token {tok!r}")


def parse_word(text: str, datum: NumericalDatum) -> GroupWord:
    """Parse word text: juxtaposition, a, b[j,i], ^k, ^(w), (...), [x, y]."""
    parser = _Parser(_tokenize(text), datum)
    word = parser.parse_word()
    if parser.peek() is not None:
        raise WordError(f"unexpected token {parser.peek()!r} after word")
    return word


def word_to_text(word: GroupWord, datum: NumericalDatum) -> str:
    parts = []
    for syl in word.syllables:
        if syl[0] == "a":
            parts.append("a" if syl[1] == 1 else f"a^{syl[1]}")
        else:
            _, j, beta = syl
            solo = len(datum.family(j)) == 1
            for i, c in enumerate(beta, start=1):
                if c % datum.p == 0:
                    continue
                name = f"b[{j}]" if solo else f"b[{j},{i}]"
                parts.append(name if c == 1 else f"{name}^{c}")
    return " ".join(parts) if parts else "()"


def branch_to_text(element: BranchElement, datum: NumericalDatum) -> str:
    """A branch element as text: a leaf is its word, "1" when empty, and a
    node `a^alpha (child, ..., child)`, without `a^alpha` when alpha is 0."""
    if element.children is None:
        if element.word.is_empty():
            return "1"
        return word_to_text(element.word, datum)
    inner = ", ".join(branch_to_text(child, datum) for child in element.children)
    head = f"a^{element.alpha} " if element.alpha % datum.p else ""
    return f"{head}({inner})"


# -- evaluation and sections --------------------------------------------------------


def evaluate(word: GroupWord, datum: NumericalDatum, depth: int) -> Portrait:
    """Portrait of the word at the given depth."""
    out = Portrait.identity(datum.p, depth)
    for syl in word.syllables:
        if syl[0] == "a":
            out = out * Portrait.rooted(datum.p, depth, syl[1])
        else:
            for i, c in enumerate(syl[2], start=1):
                if c % datum.p:
                    out = out * generator_portrait(datum, syl[1], i, depth) ** (c % datum.p)
    return out


def dependency(datum: NumericalDatum) -> tuple[GroupWord, GroupWord] | None:
    """The words (c, t1) of a cross-family dependency, or None if the joint
    vectors are linearly independent.

    A left kernel vector of the joint vectors splits into one coefficient
    tuple per family. c is the syllable of the first family involved, j,
    and t1 the product over the other involved families k of their negated
    syllables conjugated by a^(k-j). The two agree to depth 2, which is
    checked here.
    """
    p = datum.p
    lam = left_kernel_vector(datum.all_vectors(), p)
    if lam is None:
        return None
    involved = []
    pos = 0
    for j in datum.nonempty_families:
        size = len(datum.family(j))
        coeffs = tuple(int(x) % p for x in lam[pos : pos + size])
        pos += size
        if any(coeffs):
            involved.append((j, coeffs))
    (target, coeffs), rest = involved[0], involved[1:]
    c = GroupWord.from_syllables(p, [("b", target, coeffs)])
    parts = []
    for k, beta in rest:
        m = (k - target) % p
        parts += [("a", -m), ("b", k, tuple((-x) % p for x in beta)), ("a", m)]
    t1 = GroupWord.from_syllables(p, parts)
    if evaluate(c, datum, 2) != evaluate(t1, datum, 2):
        raise DatumError("internal error: dependency fails its depth-2 verification")
    return c, t1


def _combined_vector(datum: NumericalDatum, j: int, beta: tuple[int, ...]) -> tuple[int, ...]:
    p = datum.p
    fam = datum.family(j)
    out = [0] * (p - 1)
    for i, c in enumerate(beta):
        if c % p:
            for t in range(p - 1):
                out[t] = (out[t] + c * fam[i][t]) % p
    return tuple(out)


def first_level_sections(word: GroupWord, datum: NumericalDatum) -> list[GroupWord]:
    """Sections at the p top-level vertices; the word must fix the first level."""
    p = datum.p
    if word.a_exponent != 0:
        raise WordError("word does not fix the first level")
    shifted = []
    s = 0
    for syl in word.syllables:
        if syl[0] == "a":
            s += syl[1]
        else:
            shifted.append((syl[1], syl[2], s % p))
    sections = []
    for x in range(1, p + 1):
        parts = []
        for j, beta, shift in shifted:
            m = (j - 1 + x + shift) % p
            if m == 0:
                parts.append(("b", j, beta))
            else:
                vec = _combined_vector(datum, j, beta)
                parts.append(("a", vec[m - 1]))
        sections.append(GroupWord.from_syllables(p, parts))
    return sections


def is_trivial(word: GroupWord, datum: NumericalDatum) -> bool:
    """Exact triviality via the section recursion; raises GuardExceeded if the guards trip.

    The sections are visited depth first, in the order a recursion would
    visit them, so the same first nontrivial section or guard decides.
    """
    stack = [(word, MAX_SECTION_DEPTH)]
    while stack:
        word, depth_left = stack.pop()
        if word.is_empty():
            continue
        if word.a_exponent != 0 or word.syllable_length == 1:
            return False
        if depth_left <= 0:
            raise GuardExceeded("section recursion exceeded the depth guard")
        if word.syllable_length > MAX_SYLLABLES:
            raise GuardExceeded("word exceeded the syllable guard")
        stack.extend((sec, depth_left - 1) for sec in reversed(first_level_sections(word, datum)))
    return True


def order_cap(datum: NumericalDatum, cap: int | None = None) -> int:
    """The cap on an order computation: the one given, at least 1, or by default p^12."""
    if cap is not None and cap < 1:
        raise WordError("order needs cap >= 1")
    return datum.p**12 if cap is None else cap


def order(word: GroupWord, datum: NumericalDatum, cap: int | None = None) -> int:
    """Exact order of the word's automorphism; raises ExceedsCap beyond the cap (`order_cap`)."""
    cap = order_cap(datum, cap)
    return _order(word, datum, cap, cap)


def _order(word: GroupWord, datum: NumericalDatum, cap: int, full_cap: int) -> int:
    p = datum.p
    if word.is_empty():
        return 1
    if word.a_exponent != 0:
        if cap < p:
            raise ExceedsCap(full_cap)
        return p * _order(word ** p, datum, cap // p, full_cap)
    if word.syllable_length == 1:
        if cap < p:
            raise ExceedsCap(full_cap)
        return p
    return max(_order(sec, datum, cap, full_cap) for sec in first_level_sections(word, datum))


def abelianization(word: GroupWord, datum: NumericalDatum) -> tuple[int, ...]:
    """Exponent vector (rooted, then directed generators family by family) mod p."""
    p = datum.p
    out = [word.a_exponent]
    for j in datum.nonempty_families:
        sums = [0] * len(datum.family(j))
        for syl in word.syllables:
            if syl[0] == "b" and syl[1] == j:
                for i, c in enumerate(syl[2]):
                    sums[i] = (sums[i] + c) % p
        out.extend(sums)
    return tuple(out)


# -- branch elements --------------------------------------------------------------


@dataclass(frozen=True)
class BranchElement:
    """A tree of first-level decompositions whose leaves are words.

    An internal node carries a rooted label alpha and p children; it denotes
    the automorphism acting as alpha at the root and as child x on the subtree
    under letter x. A leaf denotes its word.
    """

    p: int
    alpha: int = 0
    children: tuple["BranchElement", ...] | None = None
    word: GroupWord | None = None

    @classmethod
    def leaf(cls, word: GroupWord) -> "BranchElement":
        return cls(p=word.p, word=word)

    @classmethod
    def node(cls, p: int, alpha: int, children) -> "BranchElement":
        kids = tuple(children)
        if len(kids) != p:
            raise WordError(f"internal node needs {p} children, got {len(kids)}")
        return cls(p=p, alpha=alpha % p, children=kids)


def evaluate_branch(element: BranchElement, datum: NumericalDatum, depth: int) -> Portrait:
    """Portrait of a branch element at the given depth; total while p^depth fits int32."""
    p = datum.p
    if element.children is None:
        return evaluate(element.word, datum, depth)
    if depth == 0:
        return Portrait.identity(p, 0)
    # Leaf (x, rest) goes to ((x + alpha) % p, image of rest under child x).
    width = leaf_count(p, depth) // p
    perm = np.concatenate([
        ((x + element.alpha) % p) * width + evaluate_branch(child, datum, depth - 1).perm
        for x, child in enumerate(element.children)
    ])
    return Portrait._from_perm(p, depth, perm)
