"""Finite-index subgroups as coset tables.

A subgroup H of the ambient group G is stored as the right-coset action of
G on H\\G: ``table[c][j]`` is the coset reached from coset ``c`` by the
(j+1)-th generator, and words act by tracing letters left to right.  The
basepoint coset is H itself, so ``w in H`` iff tracing ``w`` from the
basepoint returns to it.

Every ``Subgroup`` is canonical: its cosets are labelled by breadth-first
search from the basepoint, scanning each coset's neighbours in the fixed
alphabet order x1, x1^-1, x2, x2^-1, ..., so the basepoint is always
coset 0.  Two subgroups are equal iff their canonical tables are identical,
which makes subgroup equality a tuple comparison.  Every public builder
checks once, through the full constructor, which checks the columns, the
transitivity and the relators and relabels the cosets from the basepoint
it is given; ``make_subgroup`` is that constructor read by columns, one
permutation per generator.  Only three functions call the unchecked
``Subgroup._trusted``, each on rows that are canonical, transitive and
relator-closed by construction: ``enumerate._each_subgroup`` (the
low-index search), ``intersect`` (the orbit of two validated product
actions) and ``chartower.char_core_within`` (the rows that
``_flatten_rows`` walks over a validated core).

Every orbit walk that builds or checks a table (the constructor itself,
intersection, tables from permutations, flattening an action over a
cover, and the abelian kernel tables of ``chartower``) goes through
one primitive, ``_orbit_rows``: it labels the orbit of a start state in
that same BFS order, so the rows it returns are canonical by
construction.  Flattening, ``_flatten_rows``, walks (cover coset, state)
pairs, so a relative core and the preimage of a germ are each one walk.
A conjugate is the constructor at a moved basepoint, not a walk of its
own.  Containment, normality and deck transformations are one coset-map
walk, ``_coset_map``: H <= K iff H's cosets map equivariantly to K's with
0 going to 0, H is normal iff its cosets map to themselves with 0 going to
each neighbour of 0, and the maps taking 0 to each coset are then its
deck group.  Each subgroup builds its own Schreier system once, as
``sub.schreier``, whose ``edge_ids`` label the coset graph's edges, so
Reidemeister rewriting never hashes or compares a table.  Rewriting
multiplies the pieces, read from a signed table, of the Schreier generators
that a walk crosses: the one-letter table rewrites, and a germ's image
table rewrites and substitutes in the same walk.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from math import lcm
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import (
    InconsistentInput,
    IndexOverflow,
    IntersectionIndexOverflow,
    NotNormal,
    NotTransitive,
    RelatorViolated,
)
from .words import (
    GenericPresentation,
    Presentation,
    SurfacePresentation,
    Word,
    free_reduce,
    inverse_word,
    validate_word,
    _PieceTable,
    _reduced_product,
)


def _alphabet(generator_count: int) -> tuple[int, ...]:
    """Scan order for BFS: x1, x1^-1, x2, x2^-1, ..."""
    out: list[int] = []
    for j in range(1, generator_count + 1):
        out.extend((j, -j))
    return tuple(out)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as its BFS-canonical coset table.

    ``basepoint`` names the coset of the subgroup in ``table``; the stored
    table is relabelled so that it becomes coset 0.
    """

    pres: Presentation
    table: tuple[tuple[int, ...], ...]
    basepoint: InitVar[int] = 0

    def __post_init__(self, basepoint: int) -> None:
        table = self.table
        n = len(table)
        k = self.pres.generator_count
        if n == 0:
            raise ValueError("empty coset table")
        if not (0 <= basepoint < n):
            raise ValueError("basepoint out of range")
        for row in table:
            if len(row) != k:
                raise ValueError("ragged coset table")
        for j in range(k):
            col = [row[j] for row in table]
            if sorted(col) != list(range(n)):
                raise ValueError(f"column {j + 1} is not a permutation")
        inv = _inverse_rows(table, k)
        rows = _orbit_rows(
            k,
            basepoint,
            lambda c, x: table[c][x - 1] if x > 0 else inv[c][-x - 1],
        )
        if len(rows) != n:
            raise NotTransitive(
                f"only {len(rows)} of {n} cosets reachable from basepoint"
            )
        # Relators must act trivially from every coset; relabelling the
        # cosets does not change that, so the input table is checked.
        for r in self.pres.relators:
            for c in range(n):
                d = c
                for x in r:
                    d = table[d][x - 1] if x > 0 else inv[d][-x - 1]
                if d != c:
                    raise RelatorViolated(
                        f"relator moves coset {c} to {d}"
                    )
        if rows != table:
            object.__setattr__(self, "table", rows)

    @classmethod
    def _trusted(cls, pres: Presentation, table: tuple[tuple[int, ...], ...]) -> Subgroup:
        """The subgroup of rows that are already canonical, transitive and
        relator-closed, with no check: the same fields as the constructor,
        without ``__post_init__``."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "pres", pres)
        object.__setattr__(sub, "table", table)
        return sub

    @cached_property
    def inverse_table(self) -> tuple[tuple[int, ...], ...]:
        return _inverse_rows(self.table, self.pres.generator_count)

    @cached_property
    def schreier(self) -> SchreierSystem:
        return _schreier_system(self)

    @property
    def index(self) -> int:
        return len(self.table)

    def act_letter(self, c: int, letter: int) -> int:
        if letter > 0:
            return self.table[c][letter - 1]
        return self.inverse_table[c][-letter - 1]

    def act_word(self, c: int, w: Iterable[int]) -> int:
        table = self.table
        inverse_table = self.inverse_table
        for x in w:
            c = table[c][x - 1] if x > 0 else inverse_table[c][-x - 1]
        return c


def full_subgroup(pres: Presentation) -> Subgroup:
    k = pres.generator_count
    return Subgroup(pres, ((0,) * k,))


def _inverse_rows(
    table: Sequence[Sequence[int]], generator_count: int
) -> tuple[tuple[int, ...], ...]:
    """Rows of the inverse generators of a table of permutations."""
    inv = [[0] * generator_count for _ in table]
    for c, row in enumerate(table):
        for j in range(generator_count):
            inv[row[j]][j] = c
    return tuple(tuple(row) for row in inv)


def _orbit_rows(
    generator_count: int,
    start: Hashable,
    step: Callable[[Hashable, int], Hashable],
    max_index: Optional[int] = None,
) -> tuple[tuple[int, ...], ...]:
    """Canonical coset table rows of the orbit of ``start`` under ``step``.

    ``step(state, letter)`` is the action of a signed generator letter; the
    letters of a generator and its inverse must act as inverse permutations
    of the orbit.  States are labelled in BFS order over the alphabet
    x1, x1^-1, x2, ..., which is the canonical order, and each row is
    recorded as its state is walked.  Past ``max_index`` states
    IndexOverflow is raised.
    """
    alphabet = _alphabet(generator_count)
    label = {start: 0}
    order = [start]
    rows = []
    for state in order:  # grows while it is walked
        row = []
        for letter in alphabet:
            nxt = step(state, letter)
            d = label.get(nxt)
            if d is None:
                if max_index is not None and len(order) >= max_index:
                    raise IndexOverflow(f"orbit exceeds index cap {max_index}")
                d = label[nxt] = len(order)
                order.append(nxt)
            if letter > 0:
                row.append(d)
        rows.append(tuple(row))
    return tuple(rows)


def make_subgroup(
    pres: Presentation,
    perms: Sequence[Sequence[int]],
    basepoint: int = 0,
) -> Subgroup:
    """Build a subgroup from one permutation per generator.

    Each entry of ``perms`` is the forward action of one generator on the
    points 0..n-1.  The stabilizer of ``basepoint`` is the subgroup being
    described.  This is the constructor read by columns: an orbit smaller
    than n raises NotTransitive, and a relator moving any point raises
    RelatorViolated.
    """
    k = pres.generator_count
    if len(perms) != k:
        raise ValueError(f"need {k} permutations, got {len(perms)}")
    if not perms[0]:
        raise ValueError("empty permutation")
    n = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(n)):
            raise ValueError("not a permutation of 0..n-1")
    if not (0 <= basepoint < n):
        raise ValueError("basepoint out of range")
    return Subgroup(pres, tuple(zip(*perms)), basepoint)


def contains(sub: Subgroup, w: Iterable[int]) -> bool:
    w = validate_word(sub.pres, w)
    return sub.act_word(0, w) == 0


def covering_genus(sub: Subgroup) -> int:
    """Genus of the covering surface: N(g-1)+1 for index N over genus g."""
    if not isinstance(sub.pres, SurfacePresentation):
        raise TypeError("covering genus needs a surface presentation")
    g = sub.pres.genus
    return sub.index * (g - 1) + 1


# ---------------------------------------------------------------------------
# Schreier transversal, generators, rewriting.


@dataclass(frozen=True)
class SchreierSystem:
    """A subgroup's BFS Schreier system, as the rows that rewriting walks.

    ``edge_ids[c][j-1]`` is 0 if the edge from coset c along x_j is in the
    transversal tree, else i+1 for the i-th non-tree edge in (c, j) order,
    whose Schreier generator is ``generators[i]``, and ``transversal[c]``
    is the tree's word to coset c.  It holds the subgroup's rows but not
    the subgroup, so no reference cycle keeps either alive.
    """

    table: tuple[tuple[int, ...], ...]
    inverse_table: tuple[tuple[int, ...], ...]
    edge_ids: tuple[tuple[int, ...], ...]
    generators: tuple[Word, ...]
    transversal: tuple[Word, ...]

    @cached_property
    def letters(self) -> _PieceTable:  # the piece table of plain rewriting
        return _PieceTable([(e,) for e in range(1, len(self.generators) + 1)])


def _schreier_system(sub: Subgroup) -> SchreierSystem:
    """Build the Schreier system of ``sub``; read it as ``sub.schreier``."""
    n = sub.index
    k = sub.pres.generator_count
    alphabet = _alphabet(k)
    transversal: list[Optional[Word]] = [()] + [None] * (n - 1)
    ids = [[-1] * k for _ in range(n)]
    for c in range(n):  # cosets are labelled in BFS order: this is the BFS
        for letter in alphabet:
            d = sub.act_letter(c, letter)
            if transversal[d] is None:
                transversal[d] = free_reduce(transversal[c] + (letter,))
                # Mark the tree edge in positive form: c.x = d or d.x = c.
                ids[c if letter > 0 else d][abs(letter) - 1] = 0
    gens: list[Word] = []
    for c, row in enumerate(ids):
        for j, d in enumerate(sub.table[c]):
            if row[j]:
                gens.append(free_reduce(transversal[c] + (j + 1,) + inverse_word(transversal[d])))
                row[j] = len(gens)
    edge_ids = tuple(tuple(row) for row in ids)
    return SchreierSystem(sub.table, sub.inverse_table, edge_ids, tuple(gens), tuple(transversal))


def schreier_generators(sub: Subgroup) -> tuple[Word, ...]:
    """Non-trivial Schreier generators; there are N*k - (N-1) of them."""
    return sub.schreier.generators


def rewrite_from(
    system: SchreierSystem, start: int, w: Iterable[int], pieces: _PieceTable
) -> tuple[Word, int]:
    """Reidemeister rewriting of ``w`` traced from coset ``start``, in one
    walk: the reduced product of the ``pieces`` of the signed Schreier
    generators crossed, and the final coset.  Through ``system.letters``
    the product expresses ``w`` in the Schreier generators."""
    table, inverse_table, edge_ids = system.table, system.inverse_table, system.edge_ids
    out: list[Word] = []
    c = start
    for x in w:
        if x > 0:
            e = edge_ids[c][x - 1]
            if e:
                out.append(pieces[e])
            c = table[c][x - 1]
        else:
            c = inverse_table[c][-x - 1]
            e = edge_ids[c][-x - 1]
            if e:
                out.append(pieces[-e])
    return _reduced_product(out), c


def rewrite_in_schreier_generators(
    sub: Subgroup, w: Iterable[int], pieces: Optional[_PieceTable] = None
) -> Word:
    """``w`` rewritten from the basepoint through ``pieces``, the Schreier
    generators' own letters by default; ValueError unless ``w`` is in ``sub``."""
    w = validate_word(sub.pres, w)
    system = sub.schreier
    rewritten, end = rewrite_from(system, 0, w, system.letters if pieces is None else pieces)
    if end != 0:
        raise ValueError("word is not in the subgroup")
    return rewritten


def reidemeister_schreier(sub: Subgroup) -> GenericPresentation:
    """Presentation of the subgroup on its Schreier generators."""
    system = sub.schreier
    relators: list[Word] = []
    seen: set[Word] = set()
    for r in sub.pres.relators:
        for c in range(sub.index):
            word, end = rewrite_from(system, c, r, system.letters)
            assert end == c
            if word and word not in seen:
                seen.add(word)
                relators.append(word)
    return GenericPresentation(len(system.generators), tuple(relators))


# ---------------------------------------------------------------------------
# Order structure: containment, intersection, conjugation, arrows.


def is_subgroup_of(a: Subgroup, b: Subgroup) -> bool:
    """True iff ``a`` is contained in ``b``: a covering arrow a -> b exists."""
    return factor_through(a, b) is not None


def intersect(a: Subgroup, b: Subgroup, max_index: Optional[int] = None) -> Subgroup:
    """Intersection: the input of larger index if one coset-map walk puts it
    in the other, else the orbit of (0, 0) in the product action."""
    if a.pres != b.pres:
        raise InconsistentInput("subgroups of different presentations")
    fine, coarse = (a, b) if a.index >= b.index else (b, a)
    if max_index is not None and fine.index > max_index:  # the result lies in ``fine``
        raise IntersectionIndexOverflow(f"intersection exceeds index cap {max_index}")
    if _coset_map(fine, coarse, 0) is not None:
        return fine
    # The product action of two valid tables satisfies every relator.
    try:
        rows = _orbit_rows(
            a.pres.generator_count,
            (0, 0),
            lambda p, x: (a.act_letter(p[0], x), b.act_letter(p[1], x)),
            max_index,
        )
    except IndexOverflow:
        raise IntersectionIndexOverflow(
            f"intersection exceeds index cap {max_index}"
        ) from None
    return Subgroup._trusted(a.pres, rows)


def conjugate_subgroup(sub: Subgroup, w: Iterable[int]) -> Subgroup:
    """The conjugate w H w^-1 (same table, basepoint moved along w^-1)."""
    w = validate_word(sub.pres, w)
    return Subgroup(sub.pres, sub.table, sub.act_word(0, inverse_word(w)))


def is_normal(sub: Subgroup) -> bool:
    """True iff the conjugate by each generator x_j, the stabilizer of 0.x_j,
    is ``sub``: iff the coset graph has an automorphism taking 0 to 0.x_j."""
    return all(_coset_map(sub, sub, c) is not None for c in set(sub.table[0]) - {0})


@dataclass(frozen=True)
class CoveringArrow:
    """Factoring map between two covers: ``sub`` refines ``super``."""

    sub: Subgroup
    super: Subgroup
    relative_degree: int
    coset_map: tuple[int, ...]  # cosets of sub -> cosets of super


def _coset_map(beta: Subgroup, alpha: Subgroup, start: int) -> Optional[list[int]]:
    """Equivariant map of beta's cosets to alpha's sending 0 to ``start``, or
    None: it exists iff beta lies in the stabilizer of alpha's coset ``start``."""
    f = [start] + [-1] * (beta.index - 1)
    pairs = ((beta.table, alpha.table), (beta.inverse_table, alpha.inverse_table))
    # beta's cosets are labelled in BFS order, so f[c] is set before c is walked.
    for c in range(beta.index):
        e = f[c]
        for beta_rows, alpha_rows in pairs:
            for d, image in zip(beta_rows[c], alpha_rows[e]):
                if f[d] < 0:
                    f[d] = image
                elif f[d] != image:
                    return None
    return f


def factor_through(beta: Subgroup, alpha: Subgroup) -> Optional[CoveringArrow]:
    """Equivariant basepoint-preserving map of coset spaces, if beta <= alpha.

    Both spaces are transitive, so the map is onto with equal-size fibres."""
    if beta.pres != alpha.pres:
        raise InconsistentInput("subgroups of different presentations")
    f = _coset_map(beta, alpha, 0)
    if f is None:
        return None
    return CoveringArrow(beta, alpha, beta.index // alpha.index, tuple(f))


# ---------------------------------------------------------------------------
# Relative tables: a subgroup of a cover, and flattening back to the base.


def restrict_to_cover(arrow: CoveringArrow) -> Subgroup:
    """Coset table of ``arrow.sub`` inside ``arrow.super``: the fibre over its
    coset 0, over the Reidemeister-Schreier presentation of ``arrow.super``."""
    generators = arrow.super.schreier.generators
    fiber = [c for c, e in enumerate(arrow.coset_map) if e == 0]
    relabel = {c: i for i, c in enumerate(fiber)}
    table = tuple(
        tuple(relabel[arrow.sub.act_word(c, g)] for g in generators) for c in fiber
    )
    return Subgroup(reidemeister_schreier(arrow.super), table)


def _flatten_rows(
    outer: Subgroup, act: Callable[[int, int], int]
) -> tuple[tuple[int, ...], ...]:
    """Canonical rows of the orbit of (0, 0) over (outer coset, state) pairs.

    ``act(e, g)`` moves a state along the signed Schreier generator ``g``
    of ``outer``.  The rows satisfy the base relators when ``act``
    satisfies those of ``reidemeister_schreier(outer)``, to which each base
    relator rewrites, as it does for a validated table over it.
    """
    system = outer.schreier
    table, inverse_table, edge_ids = system.table, system.inverse_table, system.edge_ids

    def step(state: tuple[int, int], letter: int) -> tuple[int, int]:
        d, e = state
        if letter > 0:
            gen = edge_ids[d][letter - 1]
            d = table[d][letter - 1]
        else:
            d = inverse_table[d][-letter - 1]
            gen = -edge_ids[d][-letter - 1]
        if gen:
            e = act(e, gen)
        return d, e

    return _orbit_rows(outer.pres.generator_count, (0, 0), step)


def twisted_subgroup(sub: Subgroup, generator_words: Sequence[Word]) -> Subgroup:
    """Subgroup whose table lets generator j act as ``generator_words[j]`` on sub.

    With generator_words = images of the generators under the inverse of an
    automorphism phi, this is the image subgroup phi(sub).
    """
    k = sub.pres.generator_count
    if len(generator_words) != k:
        raise ValueError("need one word per generator")
    table = tuple(
        tuple(sub.act_word(c, generator_words[j]) for j in range(k))
        for c in range(sub.index)
    )
    return Subgroup(sub.pres, table)


# ---------------------------------------------------------------------------
# Deck transformations of a normal cover.


@dataclass(frozen=True)
class DeckGroup:
    order: int
    generators: tuple[tuple[int, ...], ...]
    abelian: bool
    exponent: int


def _deck_order(f: Sequence[int]) -> int:
    """Order of a deck transformation: the length of its cycle through 0,
    since a deck transformation that fixes a coset is the identity."""
    order, c = 1, f[0]
    while c != 0:
        c = f[c]
        order += 1
    return order


def deck_group(sub: Subgroup) -> DeckGroup:
    """Quotient action of a normal subgroup; order equals the index.  Its
    elements are the coset maps from 0, so it is abelian iff every
    generator's column is one of them."""
    if not is_normal(sub):
        raise NotNormal("deck group computed only for normal subgroups")
    n = sub.index
    gens = tuple(zip(*sub.table))
    abelian = all(tuple(_coset_map(sub, sub, g[0])) == g for g in gens)
    exponent = lcm(*(_deck_order(_coset_map(sub, sub, c)) for c in range(n)))
    return DeckGroup(n, gens, abelian, exponent)
