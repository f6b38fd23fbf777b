"""Virtual automorphisms: isomorphisms between finite-index subgroups.

A virtual automorphism is stored by its images on the Schreier generators
of its domain, as words in the ambient group.  Two of them are germ-equal
when they agree on the common restriction of their domains; since both are
homomorphisms and the ambient surface group has unique roots, agreement on
the Schreier generators of the intersection already pins the germ.

A germ keeps its images as a signed table, each reduced once, so applying
it is one ``rewrite_from`` walk that rewrites and substitutes.  On its own
domain ``compose`` and ``germ_equals`` read the table with no walk.

Domain and codomain have equal index, so they are surface groups of one
genus h, and surface groups are Hopfian (Mal'cev, 1940): a homomorphism of
one onto the other is an isomorphism.  If the images satisfy the rewritten
relators and lie in the codomain K, v is a homomorphism into K; inverse
witnesses with v(w_t) = t for each Schreier generator t of K make it onto,
and then each w_t is v^-1(t).  So every germ carries its witnesses, and
its inverse is the same data read the other way.

``validate_vaut`` rewrites each image and each witness once, for
membership and for the round trip.  It runs where a germ from outside
enters: ``from_two_arrow`` on a cycle that a caller built or loaded, and
documents loaded by the CLI.  The germs the library builds go through the
trusted ``_certified`` unchecked: ``identity_vaut``,
``vaut_from_automorphism`` (a checked ``Automorphism`` and its inverse
along the BFS trees of the domain and of a fully constructed codomain) and
``compose`` (the isomorphism v^-1(overlap) -> w(overlap) composed from
certified maps).  Every leg of a cycle is an inclusion whose germ is the
identity, so ``reduce_cycle`` returns the identity on the meet of the
legs' covers, and ``from_two_arrow`` recognises an identity cycle, built
or loaded, by one comparison, not by trust.  Certified words are freely
reduced products of reduced pieces, so their piece tables, and those of
their inverses, reduce nothing again; a caller's images are reduced on
first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .cosets import (
    CoveringArrow,
    Subgroup,
    contains,
    factor_through,
    full_subgroup,
    intersect,
    is_subgroup_of,
    reidemeister_schreier,
    rewrite_from,
    rewrite_in_schreier_generators,
    schreier_generators,
    twisted_subgroup,
    _flatten_rows,
)
from .chartower import Automorphism
from .errors import BudgetExceeded, IdentificationInvalid, IndexOverflow
from .words import (
    SurfacePresentation,
    Word,
    _PieceTable,
    _reduced_product,
    inverse_word,
    substitute,
    words_equal,
)


@dataclass(frozen=True)
class VirtualAutomorphism:
    """Isomorphism domain -> codomain between equal-index subgroups.

    ``images[i]`` is the image of the i-th Schreier generator of the
    (canonical) domain, written in ambient letters.  ``inverse_images``
    are the corresponding witnesses for the codomain's Schreier
    generators: the images of the inverse germ.
    """

    domain: Subgroup
    codomain: Subgroup
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]
    _reduced = False  # set by ``_certified``: every word is freely reduced

    @cached_property
    def _pieces(self) -> _PieceTable:
        return _PieceTable(self.images, self._reduced)

    @cached_property
    def _swapped(self) -> VirtualAutomorphism:  # the inverse from the witnesses
        swapped = VirtualAutomorphism(self.codomain, self.domain, self.inverse_images, self.images)
        object.__setattr__(swapped, "_reduced", self._reduced)
        return swapped


# ---------------------------------------------------------------------------
# Evaluation and validation.


def _rewritten_members(sub: Subgroup, words: Sequence[Word]) -> Optional[list[Word]]:
    """Each word rewritten in ``sub``'s Schreier generators, or None as soon
    as one leaves ``sub``; a letter out of range raises ValueError."""
    system = sub.schreier
    out = []
    for w in words:
        rewritten, end = rewrite_from(system, 0, w, system.letters)
        if end != 0:
            return None
        out.append(rewritten)
    return out


def apply_vaut(v: VirtualAutomorphism, w: Iterable[int]) -> Word:
    """Image of a domain element: one walk through the image table."""
    return rewrite_in_schreier_generators(v.domain, w, v._pieces)


def _images_on(v: VirtualAutomorphism, sub: Subgroup) -> Iterator[Word]:
    """v's images of the Schreier generators of ``sub`` <= its domain."""
    if sub.table == v.domain.table:
        return (v._pieces[i] for i in range(1, len(v.images) + 1))
    return (apply_vaut(v, s) for s in schreier_generators(sub))


def validate_vaut(v: VirtualAutomorphism) -> None:
    """Raise IdentificationInvalid unless v is a certified isomorphism: by
    the relators and the round trip v(w_t) = t.  Words are compared in the
    base surface group, so the domain must live over a
    ``SurfacePresentation`` (ValueError otherwise).
    """
    base = v.domain.pres
    if not isinstance(base, SurfacePresentation):
        raise ValueError("virtual automorphisms live over the base surface group")
    dom = v.domain
    cod = v.codomain
    if dom.pres != cod.pres:
        raise IdentificationInvalid("domain and codomain over different presentations")
    if dom.index != cod.index:
        raise IdentificationInvalid(
            f"index mismatch: {dom.index} vs {cod.index}"
        )
    if len(v.images) != len(schreier_generators(dom)):
        raise IdentificationInvalid("one image per domain Schreier generator required")
    if _rewritten_members(cod, v.images) is None:
        raise IdentificationInvalid("an image leaves the codomain")
    for r in reidemeister_schreier(dom).relators:
        if not words_equal(base, substitute(v._pieces, r), ()):
            raise IdentificationInvalid("images violate a rewritten relator")
    cogens = schreier_generators(cod)
    if len(v.inverse_images) != len(cogens):
        raise IdentificationInvalid("one witness per codomain Schreier generator")
    witnesses = _rewritten_members(dom, v.inverse_images)
    if witnesses is None:
        raise IdentificationInvalid("an inverse witness leaves the domain")
    for t, w in zip(cogens, witnesses):
        if not words_equal(base, substitute(v._pieces, w), t):
            raise IdentificationInvalid("the map does not undo its inverse witnesses")


# ---------------------------------------------------------------------------
# Constructors.


def identity_vaut(sub: Subgroup) -> VirtualAutomorphism:
    gens = schreier_generators(sub)
    return _certified(sub, sub, gens, gens)


@dataclass(frozen=True)
class TwoArrowCycle:
    """Two covering arrows out of a common cover, plus identification data.

    ``forward`` gives, for each Schreier generator of ``alpha``, its image
    in ``beta`` as an ambient word; ``backward`` goes the other way, and
    one is given exactly when the other is.  When alpha equals beta the
    identity identification may be left implicit, or given as the Schreier
    generators both ways, as ``reduce_cycle`` does.
    """

    alpha: Subgroup
    beta: Subgroup
    forward: Optional[tuple[Word, ...]] = None
    backward: Optional[tuple[Word, ...]] = None


def from_two_arrow(cycle: TwoArrowCycle) -> VirtualAutomorphism:
    """The cycle's germ: the identity of one cover, implicit or as its
    Schreier generators both ways, by one comparison, else validated."""
    alpha = cycle.alpha
    beta = cycle.beta
    if alpha.pres != beta.pres:
        raise IdentificationInvalid("arrows over different presentations")
    if alpha.index != beta.index:
        raise IdentificationInvalid(
            "covers of different degree admit no identification"
        )
    if (cycle.forward is None) != (cycle.backward is None):
        raise IdentificationInvalid("forward and backward words must be given together")
    if cycle.forward is None and alpha != beta:
        raise IdentificationInvalid("identification must be supplied for distinct covers")
    if cycle.forward is None or (
        alpha == beta and cycle.forward == cycle.backward == schreier_generators(alpha)
    ):
        return identity_vaut(alpha)
    v = VirtualAutomorphism(alpha, beta, cycle.forward, cycle.backward)
    try:
        validate_vaut(v)
    except (ValueError, KeyError) as exc:
        raise IdentificationInvalid(str(exc)) from exc
    return v


def _images_along_tree(sub: Subgroup, pieces: _PieceTable) -> tuple[Word, ...]:
    """Images of ``sub``'s Schreier generators t_c x t_d^-1 from three pieces
    each, the tree words' images built once, each from its parent's."""
    system, tree = sub.schreier, [()]
    moves, edges = system.moves, system.edges
    for d, x in enumerate(system.tree_letters[1:], 1):
        tree.append(_reduced_product((tree[moves[-x][d]], pieces[x])))
    back = [inverse_word(t) for t in tree]
    return tuple(
        _reduced_product((tree[c], pieces[j], back[d]))
        for c, row in enumerate(sub.table)
        for j, d in enumerate(row, 1)
        if edges[j][c]
    )


def vaut_from_automorphism(phi: Automorphism, domain: Subgroup) -> VirtualAutomorphism:
    """Restrict an ambient automorphism to a finite-index subgroup."""
    # A characteristic domain is its own image: share its Schreier system.
    codomain = _held(twisted_subgroup(domain, phi.inverse_images), (domain,))
    forth, back = phi._tables
    return _certified(
        domain, codomain, _images_along_tree(domain, forth), _images_along_tree(codomain, back)
    )


# ---------------------------------------------------------------------------
# Germ arithmetic.


def germ_equals(
    v: VirtualAutomorphism,
    w: VirtualAutomorphism,
    config: Optional[RunConfig] = None,
) -> bool:
    """Agreement on the Schreier generators of the common domain.

    By unique root extraction in the ambient surface group, generator-level
    agreement on any finite-index subgroup already decides the germ, so the
    common domain itself is the cheapest subgroup that does.  Its index is
    capped by ``max_result_index``.
    """
    cfg = config or DEFAULT_CONFIG
    pres = v.domain.pres
    if not isinstance(pres, SurfacePresentation):
        raise ValueError("germ comparison works over the base surface group")
    if w.domain.pres != pres:
        return False
    common = intersect(v.domain, w.domain, cfg.max_result_index)
    pairs = zip(_images_on(v, common), _images_on(w, common))
    return all(words_equal(pres, x, y) for x, y in pairs)


def preimage_subgroup(v: VirtualAutomorphism, s: Subgroup) -> Subgroup:
    """{h in domain : v(h) in s}, as a subgroup of the ambient group.

    The domain's Schreier generators act on the cosets of ``s`` through
    their images, and the preimage is the stabilizer of (domain coset 0,
    coset 0 of ``s``) in one flattening walk over the domain's cosets.
    When every image fixes the basepoint, the preimage is the whole
    domain, and the domain itself is returned.
    """
    dom = v.domain
    if s.pres != dom.pres:
        raise ValueError("target subgroup over a different presentation")
    if len(v.images) != len(schreier_generators(dom)):
        raise ValueError("one image per domain Schreier generator required")
    if all(s.act_word(0, w) == 0 for w in v.images):
        return dom
    # A caller's germ need not be a homomorphism: check the flattened rows.
    return Subgroup(dom.pres, _flatten_rows(dom, lambda c, g: s.act_word(c, v._pieces[g])))


def inverse(v: VirtualAutomorphism) -> VirtualAutomorphism:
    """Swap domain and codomain: the witnesses are the inverse's images."""
    return v._swapped


def _certified(
    domain: Subgroup,
    codomain: Subgroup,
    images: tuple[Word, ...],
    inverse_images: tuple[Word, ...],
) -> VirtualAutomorphism:
    """A germ that the library built as an isomorphism, with every image and
    witness freely reduced: no check, and its piece tables reduce nothing."""
    v = VirtualAutomorphism(domain, codomain, images, inverse_images)
    object.__setattr__(v, "_reduced", True)
    return v


def _held(sub: Subgroup, inputs: Sequence[Subgroup]) -> Subgroup:
    """The input that holds ``sub``'s table, so that its Schreier system is
    reused, else ``sub``.  All of them live over one presentation."""
    for held in inputs:
        if held.table == sub.table:
            return held
    return sub


def compose(
    v: VirtualAutomorphism,
    w: VirtualAutomorphism,
    config: Optional[RunConfig] = None,
) -> VirtualAutomorphism:
    """Apply v first, then w, on the largest domain where that makes sense."""
    cfg = config or DEFAULT_CONFIG
    held = (v.domain, v.codomain, w.domain, w.codomain)
    # The preimages have the overlap's index, so the cap bounds them too.
    overlap = intersect(v.codomain, w.domain, cfg.max_result_index)
    new_domain = _held(preimage_subgroup(v, overlap), held)
    images = tuple(apply_vaut(w, x) for x in _images_on(v, new_domain))
    w_inv = inverse(w)
    v_inv = inverse(v)
    new_codomain = _held(preimage_subgroup(w_inv, overlap), held)
    inverse_images = tuple(apply_vaut(v_inv, y) for y in _images_on(w_inv, new_codomain))
    return _certified(new_domain, new_codomain, images, inverse_images)


# ---------------------------------------------------------------------------
# Cycles of covering arrows.


@dataclass(frozen=True)
class CyclePath:
    """Alternating traversal of covering arrows, closing up at the root."""

    legs: tuple[tuple[CoveringArrow, str], ...]  # direction "down" | "up"

    def validate(self) -> None:
        if not self.legs:
            raise ValueError("empty cycle")
        pres = self.legs[0][0].sub.pres

        def is_root(sub: Subgroup) -> bool:  # the one cover of index 1
            return sub.pres == pres and sub.index == 1

        current = None  # the root
        for arrow, direction in self.legs:
            if direction not in ("down", "up"):
                raise ValueError(f"bad direction {direction!r}")
            start, end = arrow.super, arrow.sub
            if direction == "up":
                start, end = end, start
            if not (is_root(start) if current is None else start == current):
                raise ValueError(f"{direction}-leg does not start at the current cover")
            current = end
        if not is_root(current):
            raise ValueError("cycle does not close up at the root")


def cycle_from_subgroups(subgroups: Sequence[Subgroup]) -> CyclePath:
    """Down-up zigzag through a list of nested hops.

    ``subgroups`` lists the covers visited between root visits, e.g.
    [H1, C, H2] produces root -> H1 -> C -> H2 -> root with arrows
    (H1 <= root), (C <= H1), (C <= H2), (H2 <= root).
    """
    if len(subgroups) % 2 == 0:
        raise ValueError("need an odd number of intermediate covers")
    pres = subgroups[0].pres
    root = full_subgroup(pres)
    chain = [root, *subgroups, root]
    legs: list[tuple[CoveringArrow, str]] = []
    for a, b in zip(chain, chain[1:]):
        arrow_down = factor_through(b, a)
        if arrow_down is not None:
            legs.append((arrow_down, "down"))
            continue
        arrow_up = factor_through(a, b)
        if arrow_up is None:
            raise ValueError("consecutive covers are not nested")
        legs.append((arrow_up, "up"))
    path = CyclePath(tuple(legs))
    path.validate()
    return path


def reduce_cycle(
    path: CyclePath,
    order: str = "left",
    config: Optional[RunConfig] = None,
) -> TwoArrowCycle:
    """Collapse a cycle to a two-arrow cycle by iterated fiber products.

    Every leg is a basepoint-preserving inclusion whose germ is the
    identity, so the composite in either order is the identity on the meet
    of the legs' covers: the fiber products intersect them, left-to-right
    or right-to-left according to ``order``, and both give the same cycle.
    """
    if order not in ("left", "right"):
        raise ValueError(f"unknown reduction order {order!r}")
    cfg = config or DEFAULT_CONFIG
    path.validate()
    subs = [arrow.sub for arrow, _ in path.legs]
    meet = reduce(
        lambda acc, sub: intersect(acc, sub, cfg.max_result_index),
        subs if order == "left" else reversed(subs),
    )
    gens = schreier_generators(meet)
    return TwoArrowCycle(meet, meet, gens, gens)


# ---------------------------------------------------------------------------
# Mapping-class-like witnesses.


def is_mcl_witness(v: VirtualAutomorphism, candidate: Subgroup) -> bool:
    """True iff v maps ``candidate`` onto itself setwise.

    The candidate must be contained in the domain for the restriction to
    exist; otherwise this representative does not witness anything and the
    answer is False.  v must be a validated germ, as every constructor and
    every CLI load returns: an isomorphism keeps the candidate's index, so
    v(candidate) <= candidate already forces equality, and one membership
    walk per image decides it.
    """
    if candidate.pres != v.domain.pres:
        return False
    if not is_subgroup_of(candidate, v.domain):
        return False
    return all(contains(candidate, w) for w in _images_on(v, candidate))


def bounded_mcl_search(
    v: VirtualAutomorphism,
    depth: int,
    config: Optional[RunConfig] = None,
) -> Optional[Subgroup]:
    """Search iterated intersections of v-translates for a setwise-fixed
    subgroup, the candidates at depths 0 to ``depth``; None means no
    witness found at this depth, not a refutation.  A candidate past
    ``max_result_index`` raises BudgetExceeded, saying how far it got."""
    cfg = config or DEFAULT_CONFIG
    v_inv = inverse(v)
    candidate = v.domain
    for reached in range(max(depth, 0) + 1):
        if reached:
            try:
                # candidate lies in v.domain, the codomain of v_inv.
                image = preimage_subgroup(v_inv, candidate)
                candidate = intersect(candidate, image, cfg.max_result_index)
            except IndexOverflow as exc:
                raise BudgetExceeded(
                    f"mcl search reached depth {reached - 1} of {depth} at a "
                    f"candidate of index {candidate.index}: {exc}"
                ) from exc
        if is_mcl_witness(v, candidate):
            return candidate
    return None
