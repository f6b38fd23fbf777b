"""Words and presentations.

A word is a tuple of nonzero signed generator indices: ``k`` stands for the
k-th generator, ``-k`` for its inverse (1-based).  For a surface of genus g
the generators are a1, b1, ..., ag, bg in that order, so a1 = 1, b1 = 2,
a2 = 3, b2 = 4 and so on, and the single relator is the product of the
handle commutators [a1,b1]...[ag,bg].

Word equality in the surface group is decided by Dehn's algorithm.  The
standard one-relator presentation of a closed surface of genus >= 2
satisfies the C'(1/6) small-cancellation condition (every common subword of
two distinct symmetrized relators is a single letter), so a freely reduced
word represents the identity iff greedy replacement of any relator subword
longer than half the relator terminates at the empty word.

Every product of words is one kernel, ``_reduced_product``, which appends
freely reduced pieces, each cancelling against the tail so far; it serves
``substitute``, ``concat`` and ``cosets.rewrite_from``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import neg
from typing import Iterable, Sequence, Tuple

Word = Tuple[int, ...]


def free_reduce(letters: Iterable[int]) -> Word:
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a generator index")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    # A tuple that nothing cancels in is returned as it is, not copied.
    return letters if type(letters) is tuple and len(out) == len(letters) else tuple(out)


def inverse_word(w: Sequence[int]) -> Word:
    return tuple(map(neg, reversed(w)))


def _reduced_product(pieces: Iterable[Sequence[int]]) -> Word:
    """The reduced product of freely reduced ``pieces``: the tail that the
    head of a piece cancels is deleted, and the rest of the piece appended."""
    out: list[int] = []
    for p in pieces:
        if out and p and out[-1] == -p[0]:
            k, n = 1, min(len(out), len(p))
            while k < n and out[-1 - k] == -p[k]:
                k += 1
            del out[-k:]
            out.extend(p[k:])
        else:
            out.extend(p)
    return tuple(out)


class _PieceTable(dict):
    """A signed piece table: letter j to ``images[j-1]`` freely reduced, and
    -j to its inverse, each made on first use.  With ``reduced`` the images
    are tuples that are freely reduced already and are taken as they are."""

    def __init__(self, images: Sequence[Iterable[int]], reduced: bool = False) -> None:
        self.images = images
        self.reduced = reduced

    def __missing__(self, e: int) -> Word:
        if not 0 < abs(e) <= len(self.images):
            raise KeyError(e)
        if e < 0:
            piece = inverse_word(self[-e])
        else:
            piece = self.images[e - 1] if self.reduced else free_reduce(self.images[e - 1])
        self[e] = piece
        return piece


def substitute(images: Sequence[Iterable[int]] | _PieceTable, w: Iterable[int]) -> Word:
    """Replace each letter j of ``w`` by its image and -j by the image's
    inverse, then freely reduce.  ``images`` lists the images of 1, 2, ...
    or is a ``_PieceTable``; a letter with no image raises ValueError."""
    pieces = images if isinstance(images, _PieceTable) else _PieceTable(images)
    try:
        return _reduced_product([pieces[x] for x in w])
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]} has no image") from None


def concat(*ws: Iterable[int]) -> Word:
    return _reduced_product([free_reduce(w) for w in ws])


def commutator_word(u: Iterable[int], v: Iterable[int]) -> Word:
    u = tuple(u)
    v = tuple(v)
    return concat(u, v, inverse_word(u), inverse_word(v))


def conjugate_word(w: Iterable[int], by: Iterable[int]) -> Word:
    """by * w * by^-1."""
    by = tuple(by)
    return concat(by, w, inverse_word(by))


@dataclass(frozen=True)
class SurfacePresentation:
    """Fundamental group of a closed orientable surface of genus >= 2."""

    genus: int

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError("surface presentation needs genus >= 2")

    @property
    def generator_count(self) -> int:
        return 2 * self.genus

    @property
    def relator(self) -> Word:
        letters: list[int] = []
        for i in range(self.genus):
            a = 2 * i + 1
            b = 2 * i + 2
            letters.extend((a, b, -a, -b))
        return tuple(letters)

    @property
    def relators(self) -> tuple[Word, ...]:
        return (self.relator,)

    @cached_property
    def symmetrized_relators(self) -> tuple[Word, ...]:
        """Cyclic rotations of the relator and of its inverse, for Dehn's algorithm."""
        r = self.relator
        out: list[Word] = []
        for base in (r, inverse_word(r)):
            for i in range(len(base)):
                out.append(base[i:] + base[:i])
        # The rotations are pairwise distinct for the surface relator; keep a
        # deterministic order anyway.
        return tuple(dict.fromkeys(out))


@dataclass(frozen=True)
class GenericPresentation:
    """Finitely presented group on numbered generators.

    Used for the rewritten presentations of covers; no word-problem solver
    is attached (equality questions are pushed down to the ambient surface
    group by evaluating Schreier generator words).
    """

    generator_count: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if self.generator_count < 0:
            raise ValueError("negative generator count")
        for r in self.relators:
            if free_reduce(r) != tuple(r):
                raise ValueError("relators must be freely reduced")
            for x in r:
                if not (1 <= abs(x) <= self.generator_count):
                    raise ValueError(f"letter {x} out of range")


Presentation = SurfacePresentation | GenericPresentation


def validate_word(pres: Presentation, w: Iterable[int]) -> Word:
    w = tuple(w)
    k = pres.generator_count
    for x in w:
        if x == 0 or abs(x) > k:
            raise ValueError(f"letter {x} out of range for {k} generators")
    return w


def dehn_reduce(pres: SurfacePresentation, w: Iterable[int]) -> Word:
    """Greedy Dehn reduction of ``w``; identity words reduce to ()."""
    if not isinstance(pres, SurfacePresentation):
        raise TypeError("Dehn reduction is defined for surface presentations")
    word = free_reduce(w)
    rels = pres.symmetrized_relators
    length = 4 * pres.genus
    half = length // 2
    changed = True
    while changed and word:
        changed = False
        n = len(word)
        for i in range(n):
            if changed:
                break
            for s in rels:
                k = 0
                limit = min(length, n - i)
                while k < limit and word[i + k] == s[k]:
                    k += 1
                if k > half:
                    # word[i:i+k] equals the prefix of the relator s, so it
                    # can be traded for the inverse of the shorter suffix.
                    repl = inverse_word(s[k:])
                    word = free_reduce(word[:i] + repl + word[i + k:])
                    changed = True
                    break
    return word


def is_identity(pres: SurfacePresentation, w: Iterable[int]) -> bool:
    return dehn_reduce(pres, w) == ()


def words_equal(pres: SurfacePresentation, u: Iterable[int], v: Iterable[int]) -> bool:
    u, v = tuple(u), tuple(v)
    return u == v or is_identity(pres, u + inverse_word(v))


# ---------------------------------------------------------------------------
# Exponent sums over Z.


def _diagonal_form(relators: Iterable[Word], k: int) -> tuple[list[int], list[list[int]]]:
    """Diagonal entries d and column transform u of the exponent matrix of
    ``relators`` over k generators: one row per relator, one column per
    generator.

    Unimodular row and column operations bring the matrix to a diagonal
    one; ``u`` is the product of the column operations, so x -> x u maps
    Z^k modulo the row span onto the sum of the Z/d_i, and generator j goes
    to row j of ``u``.  ``d`` has k entries, zero for a free
    summand; no entry need divide the next.  Each pivot is an entry of least
    absolute value, so the remainders that clearing its row and column leave
    shrink until none is left (Cohen, *A Course in Computational Algebraic
    Number Theory*, 1993, 2.4.4).
    """
    a = []
    for r in relators:
        a.append([0] * k)
        for x in r:
            a[-1][abs(x) - 1] += 1 if x > 0 else -1
    a = [row for row in a if any(row)]
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    d: list[int] = []
    for t in range(min(len(a), k)):
        while True:
            pivot, least = None, 0
            for i in range(t, len(a)):
                row = a[i]
                for j in range(t, k):
                    v = abs(row[j])
                    if v and (not least or v < least):
                        pivot, least = (i, j), v
                if least == 1:
                    break
            if pivot is None:
                return d + [0] * (k - len(d)), u
            i, j = pivot
            a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a[t:] + u:
                    row[t], row[j] = row[j], row[t]
            top, p = a[t], a[t][t]
            clear = True
            for row in a[t + 1 :]:
                q = row[t] // p
                if q:
                    for c in range(t, k):
                        row[c] -= q * top[c]
                clear = clear and not row[t]
            for c in range(t + 1, k):
                q = top[c] // p
                if q:
                    for row in a[t:] + u:
                        row[c] -= q * row[t]
                clear = clear and not top[c]
            if clear:
                d.append(least)
                break
    return d + [0] * (k - len(d)), u
