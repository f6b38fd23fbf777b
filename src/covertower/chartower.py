"""Characteristic subgroups, homology kernels, and tower graphs.

A finite-index subgroup is certified characteristic by construction, never
by quantifying over the full automorphism group:

* hom-kernel-intersection: the intersection of the kernels of every
  homomorphism to the symmetric group on n points (automorphisms permute
  the homomorphism set, so the intersection is invariant);
* homology-level: the kernel of the mod-n first-homology map, realized as
  a translation action on (Z/n)^(2g);
* intersection: an intersection of two certified subgroups;
* supplied-aut-invariance: invariance checked against an explicit list of
  automorphisms only (a partial certificate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, lcm
from typing import Iterable, Optional, Sequence, Union

from .config import DEFAULT_CONFIG, RunConfig
from .cosets import (
    CoveringArrow,
    Subgroup,
    contains,
    covering_genus,
    factor_through,
    flatten_cover_subgroup,
    full_subgroup,
    intersect,
    is_normal,
    is_subgroup_of,
    restrict_to_cover,
    schreier_generators,
    _orbit_table,
    _perm_mul,
)
from .enumerate import low_index_subgroups
from .errors import (
    BudgetExceeded,
    IndexOverflow,
    InconsistentInput,
    NotInvariant,
)
from .words import (
    Presentation,
    SurfacePresentation,
    Word,
    commutator_word,
    concat,
    conjugate_word,
    inverse_word,
    is_identity,
    substitute,
    validate_word,
)

CharKind = str  # "hom-kernel-intersection" | "homology-level" | "intersection" | "supplied-aut-invariance"


# ---------------------------------------------------------------------------
# Automorphisms given by generator images.


@dataclass(frozen=True)
class Automorphism:
    """Automorphism of the ambient surface group, given on generators.

    An instance counts as verified only when explicit inverse images are
    supplied; construction checks that both directions are endomorphisms
    (the relator maps to the identity) and compose to the identity on
    generators.
    """

    pres: SurfacePresentation
    images: tuple[Word, ...]
    inverse_images: Optional[tuple[Word, ...]] = None
    name: str = ""

    def __post_init__(self) -> None:
        k = self.pres.generator_count
        if len(self.images) != k:
            raise ValueError("need one image per generator")
        for w in self.images:
            validate_word(self.pres, w)
        if self.inverse_images is not None:
            if len(self.inverse_images) != k:
                raise ValueError("need one inverse image per generator")
            for w in self.inverse_images:
                validate_word(self.pres, w)

    @property
    def verified(self) -> bool:
        return self.inverse_images is not None


def apply_automorphism(phi: Automorphism, w: Iterable[int], inverse: bool = False) -> Word:
    images = phi.inverse_images if inverse else phi.images
    if images is None:
        raise ValueError("automorphism has no inverse images")
    return substitute(images, w)


def check_automorphism(phi: Automorphism) -> None:
    """Raise ValueError unless phi is a verified automorphism."""
    pres = phi.pres
    for r in pres.relators:
        if not is_identity(pres, apply_automorphism(phi, r)):
            raise ValueError("images do not kill the relator")
    if phi.inverse_images is None:
        raise ValueError("no inverse images supplied")
    for r in pres.relators:
        if not is_identity(pres, apply_automorphism(phi, r, inverse=True)):
            raise ValueError("inverse images do not kill the relator")
    for j in range(1, pres.generator_count + 1):
        round_trip = apply_automorphism(phi, phi.images[j - 1], inverse=True)
        if not is_identity(pres, concat(round_trip, (-j,))):
            raise ValueError("inverse does not undo the automorphism")
        round_trip = apply_automorphism(phi, phi.inverse_images[j - 1])
        if not is_identity(pres, concat(round_trip, (-j,))):
            raise ValueError("automorphism does not undo the inverse")


def inner_automorphism(pres: SurfacePresentation, w: Iterable[int]) -> Automorphism:
    w = validate_word(pres, w)
    k = pres.generator_count
    images = tuple(conjugate_word((j,), w) for j in range(1, k + 1))
    inv = tuple(conjugate_word((j,), inverse_word(w)) for j in range(1, k + 1))
    return Automorphism(pres, images, inv, name=f"inner{list(w)}")


def handle_swap(pres: SurfacePresentation) -> Automorphism:
    """Swap the first two handles: a1 <-> a2, b1 <-> b2 on homology.

    At genus 2 the plain swap sends the relator to a cyclic rotation of
    itself.  At higher genus the swapped images need a conjugation
    correction to fix the relator exactly.
    """
    g = pres.genus
    k = pres.generator_count
    if g == 2:
        images = ((3,), (4,), (1,), (2,))
        return Automorphism(pres, images, images, name="handle-swap")
    c = inverse_word(commutator_word((3,), (4,)))  # [a2,b2]^-1
    e = commutator_word((1,), (2,))  # [a1,b1]
    images = [(3,), (4,), conjugate_word((1,), c), conjugate_word((2,), c)]
    inv = [conjugate_word((3,), e), conjugate_word((4,), e), (1,), (2,)]
    for j in range(5, k + 1):
        images.append((j,))
        inv.append((j,))
    phi = Automorphism(pres, tuple(images), tuple(inv), name="handle-swap")
    check_automorphism(phi)
    return phi


def builtin_test_automorphisms(pres: SurfacePresentation) -> tuple[Automorphism, ...]:
    inners = tuple(
        inner_automorphism(pres, (j,)) for j in range(1, pres.generator_count + 1)
    )
    return inners + (handle_swap(pres),)


# ---------------------------------------------------------------------------
# Homomorphism enumeration into small symmetric groups.


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _perm_of_word(assignment: Sequence[tuple[int, ...]], w: Iterable[int], n: int) -> tuple[int, ...]:
    p = tuple(range(n))
    for x in w:
        q = assignment[abs(x) - 1]
        if x < 0:
            q = _perm_inverse(q)
        p = _perm_mul(p, q)
    return p


def hom_enumeration(
    pres: Presentation,
    n: int,
    config: Optional[RunConfig] = None,
) -> list[tuple[tuple[int, ...], ...]]:
    """Every homomorphism to Sym(n) as a tuple of generator permutations.

    Intransitive actions are included.  The list is in lexicographic order
    of the permutation tuples.  For surface presentations the relator
    condition is solved handle by handle via commutator buckets; generic
    presentations fall back to a filtered product scan under budget.
    """
    cfg = config or DEFAULT_CONFIG
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cfg.max_hom_degree:
        raise BudgetExceeded(f"hom degree {n} above cap {cfg.max_hom_degree}")
    perms = list(itertools.permutations(range(n)))
    identity = tuple(range(n))
    if isinstance(pres, SurfacePresentation):
        g = pres.genus
        pairs: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = []
        bucket: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for a in perms:
            for b in perms:
                c = _perm_mul(
                    _perm_mul(_perm_mul(a, b), _perm_inverse(a)), _perm_inverse(b)
                )
                pairs.append((a, b, c))
                bucket.setdefault(c, []).append((a, b))
        out: list[tuple[tuple[int, ...], ...]] = []

        def extend(handle: int, prefix: tuple, product: tuple[int, ...]) -> None:
            if handle == g - 1:
                for a, b in bucket.get(_perm_inverse(product), ()):
                    out.append(prefix + (a, b))
                return
            for a, b, c in pairs:
                extend(handle + 1, prefix + (a, b), _perm_mul(product, c))

        extend(0, (), identity)
        return out
    # Generic presentation: raw product scan.
    m = pres.generator_count
    total = factorial(n) ** m
    if total > cfg.max_hom_assignments:
        raise BudgetExceeded(
            f"{total} assignments above cap {cfg.max_hom_assignments}"
        )
    out = []
    for assignment in itertools.product(perms, repeat=m):
        if all(
            _perm_of_word(assignment, r, n) == identity for r in pres.relators
        ):
            out.append(assignment)
    return out


def kernel_subgroup(pres: Presentation, assignment: Sequence[tuple[int, ...]]) -> Subgroup:
    """Kernel of the homomorphism as a coset table (the regular image action)."""
    n = len(assignment[0]) if assignment else 1
    gens = [tuple(p) for p in assignment]
    inverses = [_perm_inverse(p) for p in gens]
    return _orbit_table(
        pres,
        tuple(range(n)),
        lambda e, x: _perm_mul(e, gens[x - 1] if x > 0 else inverses[-x - 1]),
    )


def _hom_kernel_core(pres: Presentation, n: int, cfg: RunConfig) -> Subgroup:
    """Intersection of the kernels of every homomorphism to Sym(n)."""
    core = full_subgroup(pres)
    for assignment in hom_enumeration(pres, n, cfg):
        ker = kernel_subgroup(pres, assignment)
        if not is_subgroup_of(core, ker):
            core = intersect(core, ker, max_index=cfg.max_result_index)
    return core


# ---------------------------------------------------------------------------
# Certified characteristic subgroups.


@dataclass(frozen=True)
class CharCertificate:
    kind: CharKind
    level: Optional[int] = None
    auts: tuple[Automorphism, ...] = ()
    parents: tuple["CharSubgroup", ...] = ()
    partial: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (
            "hom-kernel-intersection",
            "homology-level",
            "intersection",
            "supplied-aut-invariance",
        ):
            raise ValueError(f"unknown certificate kind {self.kind!r}")


@dataclass(frozen=True)
class CharSubgroup:
    subgroup: Subgroup
    certificate: CharCertificate


def _subgroup_of(x: Union[Subgroup, CharSubgroup]) -> Subgroup:
    return x.subgroup if isinstance(x, CharSubgroup) else x


def char_core(sub: Subgroup, config: Optional[RunConfig] = None) -> CharSubgroup:
    """Intersection of the kernels of all homomorphisms to Sym(index(sub)).

    The result is a characteristic subgroup contained in ``sub``.  The
    enumeration includes intransitive actions.  Degree and intersection
    caps come from the config; beyond them BudgetExceeded or
    IntersectionIndexOverflow is raised.
    """
    cfg = config or DEFAULT_CONFIG
    n = sub.index
    core = _hom_kernel_core(sub.pres, n, cfg)
    assert is_subgroup_of(core, sub), "core must land inside the input"
    assert is_normal(core)
    return CharSubgroup(core, CharCertificate("hom-kernel-intersection", level=n))


def homology_cover(
    pres: SurfacePresentation,
    n: int,
    config: Optional[RunConfig] = None,
) -> CharSubgroup:
    """Kernel of the mod-n first homology map, index n^(2g)."""
    cfg = config or DEFAULT_CONFIG
    if not isinstance(pres, SurfacePresentation):
        raise TypeError("homology covers are built over surface presentations")
    if n < 1:
        raise ValueError("n must be >= 1")
    k = pres.generator_count
    if n == 1:
        return CharSubgroup(full_subgroup(pres), CharCertificate("homology-level", level=1))
    size = n**k
    if size > cfg.max_result_index:
        raise IndexOverflow(
            f"homology cover index {size} above cap {cfg.max_result_index}"
        )
    # Vectors of (Z/n)^k are encoded in base n; letter +-j adds +-1 to digit j.
    powers = [n**j for j in range(k)]

    def step(c: int, x: int) -> int:
        p = powers[abs(x) - 1]
        digit = (c // p) % n
        return c + ((digit + (1 if x > 0 else -1)) % n - digit) * p

    sub = _orbit_table(pres, 0, step)
    return CharSubgroup(sub, CharCertificate("homology-level", level=n))


def is_invariant_under(
    sub: Subgroup, auts: Sequence[Automorphism]
) -> bool:
    """True iff phi(sub) = sub for every verified automorphism supplied.

    Membership of every Schreier generator image suffices: an automorphism
    preserves the index, and a finite-index subgroup containing an
    equal-index subgroup equals it.
    """
    gens = schreier_generators(sub)
    for phi in auts:
        if not phi.verified:
            raise ValueError("automorphism must carry verified inverse images")
        for s in gens:
            if not contains(sub, apply_automorphism(phi, s)):
                return False
    return True


@dataclass(frozen=True)
class RestrictedAutomorphism:
    """An automorphism cut down to an invariant subgroup."""

    subgroup: Subgroup
    images: tuple[Word, ...]  # image of each Schreier generator, in ambient letters


def restrict_aut(phi: Automorphism, char: Union[Subgroup, CharSubgroup]) -> RestrictedAutomorphism:
    sub = _subgroup_of(char)
    if not phi.verified:
        raise ValueError("automorphism must carry verified inverse images")
    images = []
    for s in schreier_generators(sub):
        img = apply_automorphism(phi, s)
        if not contains(sub, img):
            raise NotInvariant("image of a Schreier generator leaves the subgroup")
        images.append(img)
    return RestrictedAutomorphism(sub, tuple(images))


# ---------------------------------------------------------------------------
# Relative cores inside a cover.


@dataclass(frozen=True)
class RelativeCharSubgroup:
    """A characteristic subgroup of a cover's group.

    ``relative`` is a coset table over the Reidemeister-Schreier
    presentation of ``ambient``; ``absolute`` is the same subgroup viewed
    in the ambient surface group.
    """

    ambient: Subgroup
    relative: Subgroup
    absolute: Subgroup
    certificate: CharCertificate


def char_core_within(
    ambient: Union[Subgroup, CharSubgroup],
    inner: Subgroup,
    config: Optional[RunConfig] = None,
) -> RelativeCharSubgroup:
    """char_core of ``inner`` computed inside the cover group of ``ambient``."""
    arrow = factor_through(inner, _subgroup_of(ambient))
    if arrow is None:
        raise InconsistentInput("inner subgroup is not contained in the ambient cover")
    return _relative_core(arrow, restrict_to_cover(arrow), config or DEFAULT_CONFIG)


def _relative_core(
    arrow: CoveringArrow, rel: Subgroup, cfg: RunConfig
) -> RelativeCharSubgroup:
    """char_core_within for ``rel = restrict_to_cover(arrow)``."""
    core = _hom_kernel_core(rel.pres, rel.index, cfg)
    assert is_subgroup_of(core, rel)
    assert is_normal(core)
    absolute = flatten_cover_subgroup(arrow.super, core)
    assert is_subgroup_of(absolute, arrow.sub)
    cert = CharCertificate("hom-kernel-intersection", level=rel.index)
    return RelativeCharSubgroup(arrow.super, core, absolute, cert)


_CONSTRUCTIVE_KINDS = ("hom-kernel-intersection", "homology-level", "intersection")


def char_order(
    beta: Union[Subgroup, CharSubgroup],
    alpha: Union[Subgroup, CharSubgroup],
    config: Optional[RunConfig] = None,
) -> str:
    """Decide whether beta factors through alpha with a characteristic
    relative cover; returns "yes", "no", or "unknown".

    "no" is returned when the factorization fails outright or the relative
    cover is not even normal; a completed relative core equal to the
    relative cover gives "yes"; anything undecided under budget stays
    "unknown".
    """
    arrow = factor_through(_subgroup_of(beta), _subgroup_of(alpha))
    return "no" if arrow is None else _arrow_tag(beta, arrow, config or DEFAULT_CONFIG)


def _arrow_tag(
    beta: Union[Subgroup, CharSubgroup], arrow: CoveringArrow, cfg: RunConfig
) -> str:
    """char_order of ``beta`` over the covering arrow it already has."""
    b, a = arrow.sub, arrow.super
    if b == a:
        return "yes"
    if a.index == 1:
        if isinstance(beta, CharSubgroup) and beta.certificate.kind in _CONSTRUCTIVE_KINDS:
            return "yes"
        if not is_normal(b):
            return "no"
        try:
            core = char_core(b, cfg)
        except (BudgetExceeded, IndexOverflow):
            return "unknown"
        return "yes" if core.subgroup == b else "unknown"
    rel = restrict_to_cover(arrow)
    if not is_normal(rel):
        return "no"
    try:
        within = _relative_core(arrow, rel, cfg)
    except (BudgetExceeded, IndexOverflow):
        return "unknown"
    return "yes" if within.relative == rel else "unknown"


def fiber_product_preserves_char(
    a: CharSubgroup,
    b: CharSubgroup,
    config: Optional[RunConfig] = None,
) -> CharSubgroup:
    """Intersection of two certified subgroups, with a derived certificate."""
    cfg = config or DEFAULT_CONFIG
    sa = a.subgroup
    sb = b.subgroup
    if sa.pres != sb.pres:
        raise InconsistentInput("subgroups over different presentations")
    inter = intersect(sa, sb, max_index=cfg.max_result_index)
    ca, cb = a.certificate, b.certificate
    if ca.kind == "homology-level" and cb.kind == "homology-level":
        level = lcm(ca.level or 1, cb.level or 1)
        candidate = homology_cover(sa.pres, level, cfg)
        assert inter == candidate.subgroup, "homology kernels intersect to the lcm level"
        return CharSubgroup(inter, CharCertificate("homology-level", level=level))
    if inter == sa:
        return CharSubgroup(inter, ca)
    if inter == sb:
        return CharSubgroup(inter, cb)
    partial = ca.partial or cb.partial
    return CharSubgroup(
        inter,
        CharCertificate("intersection", parents=(a, b), partial=partial),
    )


def verify_certificate(
    char: CharSubgroup, config: Optional[RunConfig] = None
) -> bool:
    """Re-run the checkable content of a certificate."""
    cfg = config or DEFAULT_CONFIG
    sub = char.subgroup
    cert = char.certificate
    if cert.kind == "homology-level":
        if not isinstance(sub.pres, SurfacePresentation):
            return False
        return sub == homology_cover(sub.pres, cert.level or 1, cfg).subgroup
    if cert.kind == "hom-kernel-intersection":
        return _hom_kernel_core(sub.pres, cert.level or 1, cfg) == sub
    if cert.kind == "intersection":
        if len(cert.parents) != 2:
            return False
        pa, pb = cert.parents
        inter = intersect(pa.subgroup, pb.subgroup, max_index=cfg.max_result_index)
        return (
            inter == sub
            and verify_certificate(pa, cfg)
            and verify_certificate(pb, cfg)
        )
    if cert.kind == "supplied-aut-invariance":
        return is_invariant_under(sub, cert.auts)
    return False


# ---------------------------------------------------------------------------
# Tower graphs.


@dataclass(frozen=True)
class TowerNode:
    name: str
    char: CharSubgroup
    genus: int
    degree: int


@dataclass(frozen=True)
class TowerEdge:
    sub: str
    super: str
    relative_degree: int
    char_tag: str  # "yes" | "no" | "unknown"


@dataclass(frozen=True)
class TowerGraph:
    pres: SurfacePresentation
    nodes: tuple[TowerNode, ...]
    edges: tuple[TowerEdge, ...]

    def node(self, name: str) -> TowerNode:
        for nd in self.nodes:
            if nd.name == name:
                return nd
        raise KeyError(name)


def build_char_tower(
    pres: SurfacePresentation,
    steps: Sequence[dict],
    config: Optional[RunConfig] = None,
) -> TowerGraph:
    """Assemble a tower of certified subgroups plus all factorization arrows.

    Step vocabulary: {"kind": "homology", "n": int},
    {"kind": "char-core", "index": int, "ordinal": int} (core of the
    ordinal-th enumerated subgroup of that index), and
    {"kind": "subgroup", "subgroup": Subgroup-or-CharSubgroup} for explicit
    tables.  Duplicate subgroups collapse to the first occurrence.
    """
    cfg = config or DEFAULT_CONFIG
    chars: list[CharSubgroup] = []

    def resolve(step: dict) -> CharSubgroup:
        kind = step.get("kind")
        if kind == "homology":
            return homology_cover(pres, int(step["n"]), cfg)
        if kind == "char-core":
            want = int(step["index"])
            ordinal = int(step.get("ordinal", 0))
            subs = [s for s in low_index_subgroups(pres, want, cfg) if s.index == want]
            if not (0 <= ordinal < len(subs)):
                raise InconsistentInput(
                    f"no subgroup of index {want} with ordinal {ordinal}"
                )
            return char_core(subs[ordinal], cfg)
        if kind == "subgroup":
            payload = step["subgroup"]
            if isinstance(payload, CharSubgroup):
                if payload.subgroup.pres != pres:
                    raise InconsistentInput("subgroup over a different presentation")
                return payload
            if payload.pres != pres:
                raise InconsistentInput("subgroup over a different presentation")
            auts = builtin_test_automorphisms(pres)
            if not is_invariant_under(payload, auts):
                raise NotInvariant(
                    "explicit subgroup fails built-in automorphism invariance"
                )
            cert = CharCertificate(
                "supplied-aut-invariance", auts=auts, partial=True
            )
            return CharSubgroup(payload, cert)
        raise InconsistentInput(f"unknown tower step {step!r}")

    for step in steps:
        cs = resolve(step)
        if all(cs.subgroup != existing.subgroup for existing in chars):
            chars.append(cs)

    root = CharSubgroup(
        full_subgroup(pres), CharCertificate("homology-level", level=1)
    )
    all_chars = [root] + [c for c in chars if c.subgroup != root.subgroup]
    nodes = tuple(
        TowerNode(
            name=f"n{i}",
            char=c,
            genus=covering_genus(c.subgroup),
            degree=c.subgroup.index,
        )
        for i, c in enumerate(all_chars)
    )
    edges: list[TowerEdge] = []
    for i, ni in enumerate(nodes):
        for j, nj in enumerate(nodes):
            if i == j:
                continue
            arrow = factor_through(ni.char.subgroup, nj.char.subgroup)
            if arrow is None:
                continue
            tag = _arrow_tag(ni.char, arrow, cfg)
            edges.append(
                TowerEdge(
                    sub=ni.name,
                    super=nj.name,
                    relative_degree=arrow.relative_degree,
                    char_tag=tag,
                )
            )
    return TowerGraph(pres, nodes, tuple(edges))
