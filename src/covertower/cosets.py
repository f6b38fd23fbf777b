"""Finite-index subgroups as coset tables.

A subgroup H of the ambient group G is stored as the right-coset action of
G on H\\G: ``table[c][j]`` is the coset reached from coset ``c`` by the
(j+1)-th generator.  Every walk reads one signed action, ``sub.moves``: a
dict from each letter x in ±1..±k to a column, ``moves[x][c]`` being coset
c moved by x, so a word acts by one lookup per letter, left to right, and
a letter outside ±1..±k raises instead of reading another column.  The
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
permutation per generator.  Only four functions call the unchecked
``Subgroup._trusted``, each on rows that are canonical and transitive by
construction.  Three of them are relator-closed by construction too:
``enumerate._each_subgroup`` (the low-index search), ``intersect`` (the
orbit of two validated product actions) and ``chartower.char_core_within``
(the rows that ``_flatten_rows`` walks over a validated core).  The
fourth, ``chartower._abelian_kernel``, runs the constructor's own relator
check, ``_check_relators``, on its orbit's rows: that is the check on its
diagonal form.

Every orbit walk that builds or checks a table (the constructor itself,
intersection, tables from permutations, flattening an action over a
cover, and the abelian kernel tables of ``chartower``) goes through
one primitive, ``_orbit_rows``: it labels the orbit of a start state in
that same BFS order, so the rows it returns are canonical by
construction.  Flattening, ``_flatten_rows``, walks (cover coset, state)
pairs, so a relative core and the preimage of a germ are each one walk.
A conjugate is the constructor at a moved basepoint, not a walk of its
own.  Containment, normality and deck transformations are one coset-map
walk, ``_coset_map`` (containment takes none when the indices do not
divide, or when the larger group is the whole group): H <= K iff H's cosets map equivariantly to K's with
0 going to 0, H is normal iff its cosets map to themselves with 0 going to
each neighbour of 0, and the maps taking 0 to each coset are then its
deck group.  Each subgroup builds its own Schreier system once, as
``sub.schreier``, whose signed ``edges`` name the Schreier generator that
each move crosses, so Reidemeister rewriting never hashes or compares a
table.  Rewriting multiplies the pieces, read from a signed table, of the
Schreier generators that a walk crosses: the one-letter table rewrites,
and a germ's image table rewrites and substitutes in the same walk.
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
        for j, col in enumerate(zip(*table), 1):
            if sorted(col) != list(range(n)):
                raise ValueError(f"column {j} is not a permutation")
        moves = _signed_columns(table)
        rows = _orbit_rows(k, basepoint, lambda c, x: moves[x][c])
        if len(rows) != n:
            raise NotTransitive(
                f"only {len(rows)} of {n} cosets reachable from basepoint"
            )
        # Relabelling the cosets does not change the relators' action, so
        # the input table is checked.
        _check_relators(self.pres, moves, n)
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
    def moves(self) -> dict[int, tuple[int, ...]]:
        return _signed_columns(self.table)

    @cached_property
    def schreier(self) -> SchreierSystem:
        return _schreier_system(self)

    @property
    def index(self) -> int:
        return len(self.table)

    def act_letter(self, c: int, letter: int) -> int:
        return self.moves[letter][c]

    def act_word(self, c: int, w: Iterable[int]) -> int:
        moves = self.moves
        try:
            for x in w:
                c = moves[x][c]
        except KeyError:
            raise _letter_error(moves, x) from None
        return c


def full_subgroup(pres: Presentation) -> Subgroup:
    k = pres.generator_count
    return Subgroup(pres, ((0,) * k,))


def _signed_columns(table: Sequence[Sequence[int]]) -> dict[int, tuple[int, ...]]:
    """The signed action of a table of permutations: a dict from each letter
    x in ±1..±k, in the scan order x1, x1^-1, x2, ..., to the column whose
    entry c is coset c moved by x."""
    moves = {}
    points = tuple(range(len(table)))  # one int per coset, shared by every column
    for j, col in enumerate(zip(*table), 1):
        back = list(points)
        for c, d in zip(points, col):
            back[d] = c
        moves[j], moves[-j] = col, tuple(back)
    return moves


def _check_relators(pres: Presentation, moves: dict[int, tuple[int, ...]], n: int) -> None:
    """Raise RelatorViolated unless every relator of ``pres`` acts trivially
    from each of the ``n`` cosets of the signed action ``moves``."""
    for r in pres.relators:
        ends = range(n)
        for x in r:
            col = moves[x]
            ends = [col[d] for d in ends]
        for c, d in enumerate(ends):
            if d != c:
                raise RelatorViolated(f"relator moves coset {c} to {d}")


def _letter_error(moves: dict[int, tuple[int, ...]], x: object) -> ValueError:
    return ValueError(f"letter {x} out of range for {len(moves) // 2} generators")


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
    recorded, on the generators x1, x2, ..., as its state is walked.  Past
    ``max_index`` states IndexOverflow is raised.
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
            row.append(d)
        rows.append(tuple(row[::2]))
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
    return sub.act_word(0, w) == 0


def covering_genus(sub: Subgroup) -> int:
    """Genus of the covering surface: N(g-1)+1 for index N over genus g."""
    if not isinstance(sub.pres, SurfacePresentation):
        raise TypeError("covering genus needs a surface presentation")
    g = sub.pres.genus
    return sub.index * (g - 1) + 1


# ---------------------------------------------------------------------------
# Schreier systems, generators, rewriting.


@dataclass(frozen=True, eq=False)
class SchreierSystem:
    """A subgroup's BFS Schreier system, as the columns that rewriting walks.

    ``moves`` is the subgroup's signed action.  ``edges[x][c]`` is 0 if
    moving coset c by x crosses an edge of the BFS tree, else the signed
    id of the Schreier generator crossed: the edge c -> c.x_j is the
    generator ``generators[i]`` if it is the i-th non-tree edge in (c, j)
    order, so ``edges[j][c]`` is i+1 and ``edges[-j][c.x_j]`` is -(i+1).
    ``tree_letters[c]`` is the letter of the tree edge entering coset c
    (0 at the basepoint).  It holds the subgroup's action but not the
    subgroup, so no reference cycle keeps either alive.
    """

    moves: dict[int, tuple[int, ...]]
    edges: dict[int, tuple[int, ...]]
    generators: tuple[Word, ...]
    tree_letters: tuple[int, ...]

    @cached_property
    def letters(self) -> _PieceTable:  # the piece table of plain rewriting
        return _PieceTable([(e,) for e in range(1, len(self.generators) + 1)])


def _schreier_system(sub: Subgroup) -> SchreierSystem:
    """Build the Schreier system of ``sub``; read it as ``sub.schreier``."""
    n = sub.index
    moves = sub.moves
    paths: list[Optional[Word]] = [()] + [None] * (n - 1)  # the tree's words
    tree = [0] * n
    for c in range(n):  # cosets are labelled in BFS order: this is the BFS
        for x, col in moves.items():
            d = col[c]
            if paths[d] is None:
                paths[d], tree[d] = paths[c] + (x,), x
    # The edge c -> d = c.x_j is the tree edge into d (letter x_j) or into c
    # (letter x_j^-1), or else it gives the next Schreier generator.
    ids = [[0] * n for _ in range(sub.pres.generator_count)]
    gens: list[Word] = []
    for c, row in enumerate(sub.table):
        for j, d in enumerate(row, 1):
            if tree[d] != j and tree[c] != -j:
                gens.append(free_reduce(paths[c] + (j,) + inverse_word(paths[d])))
                ids[j - 1][c] = len(gens)
    edges = {}
    for j, col in enumerate(ids, 1):
        edges[j], edges[-j] = tuple(col), tuple(-col[c] for c in moves[-j])
    return SchreierSystem(moves, edges, tuple(gens), tuple(tree))


def schreier_generators(sub: Subgroup) -> tuple[Word, ...]:
    """Non-trivial Schreier generators; there are N*k - (N-1) of them."""
    return sub.schreier.generators


def rewrite_from(
    system: SchreierSystem, start: int, w: Iterable[int], pieces: _PieceTable
) -> tuple[Word, int]:
    """Reidemeister rewriting of ``w`` traced from coset ``start``, in one
    walk: the reduced product of the ``pieces`` of the signed Schreier
    generators crossed, and the final coset.  Through ``system.letters``
    the product expresses ``w`` in the Schreier generators.  A letter
    outside ±1..±k raises ValueError; a missing piece raises KeyError."""
    moves, edges = system.moves, system.edges
    out: list[Word] = []
    c = start
    for x in w:
        try:
            e = edges[x][c]
        except KeyError:
            raise _letter_error(moves, x) from None
        if e:
            out.append(pieces[e])
        c = moves[x][c]
    return _reduced_product(out), c


def rewrite_in_schreier_generators(
    sub: Subgroup, w: Iterable[int], pieces: Optional[_PieceTable] = None
) -> Word:
    """``w`` rewritten from the basepoint through ``pieces``, the Schreier
    generators' own letters by default; ValueError unless ``w`` is in ``sub``."""
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
    in the other, else the orbit of (0, 0) in the product action.

    Past ``max_index`` the overflow names both input indices, smaller
    first, and what is known of the intersection's: at least the larger
    input's when that is already past the cap, else a multiple of their lcm
    and at most their product."""
    if a.pres != b.pres:
        raise InconsistentInput("subgroups of different presentations")
    fine, coarse = (a, b) if a.index >= b.index else (b, a)
    if max_index is not None and fine.index > max_index:  # the result lies in ``fine``
        raise IntersectionIndexOverflow(
            f"intersection of subgroups of index {coarse.index} and {fine.index} "
            f"has index at least {fine.index}, above index cap {max_index}"
        )
    if _coset_map(fine, coarse, 0) is not None:
        return fine
    # The product action of two valid tables satisfies every relator.
    a_moves, b_moves = a.moves, b.moves
    try:
        rows = _orbit_rows(
            a.pres.generator_count,
            (0, 0),
            lambda p, x: (a_moves[x][p[0]], b_moves[x][p[1]]),
            max_index,
        )
    except IndexOverflow:
        raise IntersectionIndexOverflow(
            f"intersection of subgroups of index {coarse.index} and {fine.index} "
            f"has index a multiple of {lcm(coarse.index, fine.index)} and at most "
            f"{coarse.index * fine.index}, above index cap {max_index}"
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
    pairs = [(col, alpha.moves[x]) for x, col in beta.moves.items()]
    # beta's cosets are labelled in BFS order, so f[c] is set before c is walked.
    for c in range(beta.index):
        e = f[c]
        for beta_col, alpha_col in pairs:
            d, image = beta_col[c], alpha_col[e]
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
    if beta.index % alpha.index:  # Lagrange: no subgroup of alpha has this index
        return None
    # Into the whole group every coset maps to its one coset, with no walk.
    f = (0,) * beta.index if alpha.index == 1 else _coset_map(beta, alpha, 0)
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
    moves, edges = system.moves, system.edges

    def step(state: tuple[int, int], letter: int) -> tuple[int, int]:
        d, e = state
        gen = edges[letter][d]
        return moves[letter][d], act(e, gen) if gen else e

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
