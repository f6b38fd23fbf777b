"""Characteristic subgroups, homology kernels, and tower graphs.

A finite-index subgroup is certified characteristic by construction, never
by quantifying over the full automorphism group:

* hom-kernel-intersection: the intersection of the kernels of every
  homomorphism to the symmetric group on n points (automorphisms permute
  the homomorphism set, so the intersection is invariant): the abelian
  kernel mod lcm(1..n) cut by every subgroup of index <= n;
* homology-level: the kernel of G -> H1(G) (x) Z/n, which like the abelian
  kernels ``_abelian_kernel`` reads off the relator matrix's diagonal form;
* intersection: an intersection of two certified subgroups;
* supplied-aut-invariance: invariance checked against an explicit list of
  automorphisms only (a partial certificate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence, Union

from .config import DEFAULT_CONFIG, RunConfig
from .cosets import (
    CoveringArrow,
    Subgroup,
    covering_genus,
    factor_through,
    full_subgroup,
    intersect,
    is_normal,
    is_subgroup_of,
    restrict_to_cover,
    twisted_subgroup,
    _check_relators,
    _flatten_rows,
    _orbit_rows,
    _signed_columns,
)
from .enumerate import _each_subgroup, low_index_subgroups
from .errors import (
    BudgetExceeded,
    IndexOverflow,
    InconsistentInput,
    IntersectionIndexOverflow,
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
    _PieceTable,
    _diagonal_form,
)

CharKind = str  # "hom-kernel-intersection" | "homology-level" | "intersection" | "supplied-aut-invariance"


# ---------------------------------------------------------------------------
# Automorphisms given by generator images.


@dataclass(frozen=True)
class Automorphism:
    """Automorphism of the ambient surface group, given on generators.

    ``images`` are the generators' images and ``inverse_images`` those of
    the inverse map.  Construction runs ``check_automorphism`` (the images
    kill the relator, and the map undoes the inverse on every generator),
    and a map that fails raises ValueError, so every instance is an
    automorphism.
    """

    pres: SurfacePresentation
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]
    name: str = ""

    def __post_init__(self) -> None:
        k = self.pres.generator_count
        if len(self.images) != k:
            raise ValueError("need one image per generator")
        if len(self.inverse_images) != k:
            raise ValueError("need one inverse image per generator")
        for w in (*self.images, *self.inverse_images):
            validate_word(self.pres, w)
        check_automorphism(self)

    @cached_property
    def _tables(self) -> tuple[_PieceTable, _PieceTable]:
        """The signed tables of the images and of the inverse images."""
        return _PieceTable(self.images), _PieceTable(self.inverse_images)


def apply_automorphism(phi: Automorphism, w: Iterable[int]) -> Word:
    return substitute(phi._tables[0], w)


def check_automorphism(phi: Automorphism) -> None:
    """Raise ValueError unless phi's images and inverse images are mutually
    inverse automorphisms; ``Automorphism`` runs it on construction.

    Two checks suffice: the images kill the relator, and phi(psi(x_j)) = x_j
    for every generator, psi the inverse images.  The first makes phi an
    endomorphism, and the second makes it onto.  Surface groups are Hopfian
    (Mal'cev, 1940), so phi is an automorphism, and then each psi(x_j) is
    phi^-1(x_j): psi kills the relator and undoes phi with no further check.
    """
    pres = phi.pres
    for r in pres.relators:
        if not is_identity(pres, apply_automorphism(phi, r)):
            raise ValueError("images do not kill the relator")
    for j, w in enumerate(phi.inverse_images, 1):
        if not is_identity(pres, concat(apply_automorphism(phi, w), (-j,))):
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
    return Automorphism(pres, tuple(images), tuple(inv), name="handle-swap")


def builtin_test_automorphisms(pres: SurfacePresentation) -> tuple[Automorphism, ...]:
    inners = tuple(
        inner_automorphism(pres, (j,)) for j in range(1, pres.generator_count + 1)
    )
    return inners + (handle_swap(pres),)


# ---------------------------------------------------------------------------
# Certified characteristic subgroups.


def _abelian_kernel(pres: Presentation, n: int, cap: int) -> tuple[int, Optional[Subgroup]]:
    """The index of the kernel of G -> H1(G) (x) Z/n, and the kernel if the
    index is within ``cap``, else None.  Its cosets are the vectors of the
    sum of the Z/gcd(d_i, n), d the diagonal form, coded as a mixed-radix
    int; a letter adds its row of the column transform."""
    if n == 1:  # the whole group, with no elimination
        return 1, full_subgroup(pres)
    k = pres.generator_count
    d, u = _diagonal_form(pres.relators, k)
    radices = [gcd(x, n) for x in d]
    index = prod(radices)
    if index > cap:
        return index, None
    places = [prod(radices[:i]) for i in range(k)]
    # moves[x]: (place value, radix, digit added) for each digit letter x moves.
    moves = {
        s * j: [(p, m, s * x % m) for p, m, x in zip(places, radices, row) if x % m]
        for j, row in enumerate(u, 1)
        for s in (1, -1)
    }

    def step(c: int, x: int) -> int:
        for p, m, s in moves[x]:
            c += s * p if c // p % m < m - s else (s - m) * p
        return c

    # The orbit's rows are canonical and transitive by construction; the
    # relators are the check on the diagonal form.  Their columns are not
    # kept: holding them until first use raises peak memory.
    rows = _orbit_rows(k, 0, step)
    _check_relators(pres, _signed_columns(rows), index)
    return index, Subgroup._trusted(pres, rows)


def _search_refused(n: int, cfg: RunConfig) -> Optional[BudgetExceeded]:
    """The refusal of a core search over Sym(n) that no bound is reached
    for: the low-index search's own cap, read before any table is built."""
    if n > max(2, cfg.max_index):
        return BudgetExceeded(f"max_index {n} above configured cap {cfg.max_index}")
    return None


def _kernel_core(pres: Presentation, n: int, cfg: RunConfig) -> Subgroup:
    """Intersection of the kernels of every homomorphism to Sym(n).

    Maps onto Z/m, m <= n, are among them, so the core lies in the abelian
    kernel mod L = lcm(1..n), and is that kernel at n <= 2.  Past that, a
    kernel over the cap refuses with no search, else each subgroup of index
    <= n (a point stabilizer of such a map) cuts it."""
    cap = cfg.max_result_index
    refusal = _search_refused(n, cfg)
    if refusal:
        raise refusal
    L = lcm(*range(1, n + 1))
    # No elimination: a relator lowers the rank by one at most (shown as a power: it may be huge).
    e = max(pres.generator_count - len(pres.relators), 0)
    if L**e > cap:
        raise IntersectionIndexOverflow(f"core at n={n} has index at least {L}^{e}, above cap {cap}")
    index, core = _abelian_kernel(pres, L, cap)
    if core is None:
        least = "at least " if n > 2 else ""
        raise IntersectionIndexOverflow(f"core at n={n} has index {least}{index}, above cap {cap}")
    if n <= 2:
        return core
    used = 0

    def meet(s: Subgroup) -> None:
        nonlocal core, used
        used += 1
        try:
            core = intersect(core, s, cap)
        except IntersectionIndexOverflow:
            raise IntersectionIndexOverflow(
                f"core at n={n} exceeds index cap {cap} at subgroup {used} of "
                f"index <= {n}; the first {used - 1} intersect to index {core.index}"
            ) from None

    _each_subgroup(pres, n, cfg, meet)
    return core


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
    low-index search is bounded by ``max_index`` and ``max_search_nodes``
    (BudgetExceeded), the core by ``max_result_index`` (IntersectionIndexOverflow),
    which the abelian kernel's index may pass with no search."""
    core = _kernel_core(sub.pres, sub.index, config or DEFAULT_CONFIG)
    assert is_subgroup_of(core, sub), "core must land inside the input"
    assert is_normal(core)
    return CharSubgroup(core, CharCertificate("hom-kernel-intersection", level=sub.index))


def homology_cover(
    pres: SurfacePresentation,
    n: int,
    config: Optional[RunConfig] = None,
) -> CharSubgroup:
    """Kernel of the mod-n first homology map, index n^(2g)."""
    cap = (config or DEFAULT_CONFIG).max_result_index
    if not isinstance(pres, SurfacePresentation):
        raise TypeError("homology covers are built over surface presentations")
    if n < 1:
        raise ValueError("n must be >= 1")
    index, sub = _abelian_kernel(pres, n, cap)
    if sub is None:
        raise IndexOverflow(f"homology cover index {index} above cap {cap}")
    return CharSubgroup(sub, CharCertificate("homology-level", level=n))


def is_invariant_under(
    sub: Subgroup, auts: Sequence[Automorphism]
) -> bool:
    """True iff phi(sub), as ``twisted_subgroup`` builds it, is sub for each phi."""
    return all(twisted_subgroup(sub, phi.inverse_images) == sub for phi in auts)


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
    cfg = config or DEFAULT_CONFIG
    arrow = factor_through(inner, _subgroup_of(ambient))
    if arrow is None:
        raise InconsistentInput("inner subgroup is not contained in the ambient cover")
    refusal = _search_refused(arrow.relative_degree, cfg)
    if refusal:  # before the relative table is built
        raise refusal
    rel = restrict_to_cover(arrow)
    core = _kernel_core(rel.pres, rel.index, cfg)
    assert is_subgroup_of(core, rel)
    assert is_normal(core)
    # ``core`` is a validated table over ``rel.pres``, the cover's
    # Reidemeister-Schreier presentation, so its flattening is relator-closed.
    absolute = Subgroup._trusted(
        inner.pres, _flatten_rows(arrow.super, core.act_letter)
    )
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
    "unknown".  A beta with a constructive certificate is normal in G, so
    in alpha: over the base it is "yes", and past the core search's cap
    (relative index above max(2, ``max_index``)) it is "unknown" with no
    relative table and no normality walk.  Any other beta past the cap is
    restricted and walked, so a relative cover that is not normal is "no".
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
    certified = isinstance(beta, CharSubgroup) and beta.certificate.kind in _CONSTRUCTIVE_KINDS
    if a.index == 1 and certified:
        return "yes"
    # A certified b is normal in G, so in a: past the core search's cap
    # nothing is left to decide.
    if certified and _search_refused(arrow.relative_degree, cfg):
        return "unknown"
    # The relative cover as a subgroup of the cover group of ``a``.
    rel = b if a.index == 1 else restrict_to_cover(arrow)
    if not is_normal(rel):
        return "no"
    try:
        core = _kernel_core(rel.pres, rel.index, cfg)
    except (BudgetExceeded, IndexOverflow):
        return "unknown"
    return "yes" if core == rel else "unknown"


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
        return _kernel_core(sub.pres, cert.level or 1, cfg) == sub
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
