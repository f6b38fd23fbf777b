"""Exact rational bookkeeping for determinant bundles along a tower.

Per stratum the rational Picard group is a copy of Q generated by the
Hodge class, so bundles are exponents: tensor product is addition and
pullback along a degree-N covering is multiplication by N.  The ledger
assigns to every stratum of a tower the exponent of the inverse-limit
bundle, checks pullback compatibility along every arrow, and records the
curvature and Weil-Petersson scaling facts as exact identities.

Quillen norms, zeta determinants and the analytic isomorphisms behind
these exponents carry no data here; only their scalar consequences enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Optional, Union

from .chartower import TowerGraph
from .errors import IncompatibleTower

Rational = Union[int, Fraction]


def mumford_exponent(m: int) -> int:
    """Hodge power of the m-th determinant bundle: 6m^2 - 6m + 1."""
    return 6 * m * m - 6 * m + 1


def serre_dual(m: int) -> int:
    """The dual weight 1 - m; the Mumford exponent is invariant under it."""
    return 1 - m


def pullback_exponent(q: Rational, degree: int) -> Fraction:
    """Exponent after pullback along a degree-N covering: q * N."""
    if degree < 1:
        raise ValueError("covering degree must be at least 1")
    return Fraction(q) * degree


def wp_pullback_coefficient(degree: int) -> Fraction:
    """Factor relating the cover's Weil-Petersson form to the base one."""
    if degree < 1:
        raise ValueError("covering degree must be at least 1")
    return Fraction(degree)


def wp_limit_scale(genus: int) -> Fraction:
    """Normalization 1/(h-1) making scaled WP forms agree along arrows."""
    if genus < 2:
        raise ValueError("scale is defined for genus at least 2")
    return Fraction(1, genus - 1)


def check_composition_diagram(n1: int, n2: int, q: Rational) -> bool:
    """Pullback along a composite covering equals composed pullbacks."""
    if n1 < 1 or n2 < 1:
        raise ValueError("covering degrees must be at least 1")
    return pullback_exponent(pullback_exponent(q, n1), n2) == pullback_exponent(
        q, n1 * n2
    )


def hurwitz_bound(genus: int) -> int:
    """84(g-1), the automorphism bound entering the descent factor."""
    if genus < 2:
        raise ValueError("bound is defined for genus at least 2")
    return 84 * (genus - 1)


def descent_factor(genus: int) -> int:
    """[84(g-1)]! as an exact integer; kills all isotropy group actions."""
    return factorial(hurwitz_bound(genus))


@dataclass(frozen=True)
class StratumLabel:
    genus: int
    degree_over_base: int
    tower_node_ref: str


@dataclass(frozen=True)
class BundleClass:
    """Exponent q of the Hodge class on one stratum."""

    stratum: StratumLabel
    exponent: Fraction

    @property
    def integral(self) -> bool:
        """Whether the class lies in the honest (non-fractional) sublattice."""
        return self.exponent.denominator == 1

    @property
    def torsion_warning(self) -> bool:
        """Genus-2 strata have 10-torsion hiding behind the rational ledger."""
        return self.stratum.genus == 2


@dataclass(frozen=True)
class CurvatureClass:
    """Coefficient c meaning c * (12 pi^2)^{-1} * omega_WP on the stratum."""

    stratum: StratumLabel
    wp_coefficient: Fraction


def curvature_of(bundle: BundleClass) -> CurvatureClass:
    return CurvatureClass(bundle.stratum, Fraction(bundle.exponent))


def tensor_bundles(a: BundleClass, b: BundleClass) -> BundleClass:
    if a.stratum != b.stratum:
        raise ValueError("tensor product needs classes on the same stratum")
    return BundleClass(a.stratum, a.exponent + b.exponent)


def torsion_residue(bundle: BundleClass) -> Optional[int]:
    """Residue mod 10 of an integral genus-2 class; None otherwise."""
    if bundle.stratum.genus != 2 or not bundle.integral:
        return None
    return int(bundle.exponent) % 10


@dataclass(frozen=True)
class PicTorsionInfo:
    genus: int
    infinite_cyclic: bool
    torsion_order: Optional[int]


def pic_structure(genus: int) -> PicTorsionInfo:
    """Infinite cyclic from genus 3 on; cyclic of order 10 at genus 2."""
    if genus < 2:
        raise ValueError("structure recorded for genus at least 2")
    if genus == 2:
        return PicTorsionInfo(2, False, 10)
    return PicTorsionInfo(genus, True, None)


@dataclass(frozen=True)
class UniversalBundle:
    """Inverse-limit class: exponent e(m)/n_i on the degree-n_i stratum."""

    label: int
    assignment: Mapping[StratumLabel, BundleClass]

    def on_node(self, node_name: str) -> BundleClass:
        for label, bundle in self.assignment.items():
            if label.tower_node_ref == node_name:
                return bundle
        raise KeyError(node_name)


def _strata_of(tower: TowerGraph) -> dict[str, StratumLabel]:
    base_genus = tower.pres.genus
    strata: dict[str, StratumLabel] = {}
    for node in tower.nodes:
        if node.genus != node.degree * (base_genus - 1) + 1:
            raise IncompatibleTower(
                f"stratum {node.name}: genus {node.genus} does not match "
                f"degree {node.degree} over genus {base_genus}"
            )
        strata[node.name] = StratumLabel(node.genus, node.degree, node.name)
    return strata


def universal_bundle(m: int, tower: TowerGraph) -> UniversalBundle:
    """Assign exponent e(m)/n_i per stratum and re-check every arrow."""
    strata = _strata_of(tower)
    e = mumford_exponent(m)
    assignment = {
        label: BundleClass(label, Fraction(e, label.degree_over_base))
        for label in strata.values()
    }
    for edge in tower.edges:
        deep = strata[edge.sub]
        coarse = strata[edge.super]
        if deep.degree_over_base != edge.relative_degree * coarse.degree_over_base:
            raise IncompatibleTower(
                f"arrow {edge.sub} -> {edge.super}: degrees "
                f"{deep.degree_over_base} vs {edge.relative_degree} * "
                f"{coarse.degree_over_base}"
            )
        pulled = pullback_exponent(
            assignment[deep].exponent, edge.relative_degree
        )
        if pulled != assignment[coarse].exponent:
            raise IncompatibleTower(
                f"arrow {edge.sub} -> {edge.super}: pullback breaks "
                f"compatibility"
            )
    return UniversalBundle(m, assignment)


def universal_mumford_check(m: int, tower: TowerGraph) -> bool:
    """Stratumwise identity: exponent of label m = e(m) * exponent of label 0."""
    bundle_m = universal_bundle(m, tower)
    bundle_0 = universal_bundle(0, tower)
    e = mumford_exponent(m)
    for label, cls in bundle_m.assignment.items():
        if cls.exponent != e * bundle_0.assignment[label].exponent:
            return False
    return True


def wp_coherence(tower: TowerGraph) -> bool:
    """Scaled WP forms agree along every arrow: (1/(g~ -1)) * N = 1/(g-1)."""
    genus = {node.name: node.genus for node in tower.nodes}
    for edge in tower.edges:
        lhs = wp_limit_scale(genus[edge.sub]) * wp_pullback_coefficient(
            edge.relative_degree
        )
        if lhs != wp_limit_scale(genus[edge.super]):
            return False
    return True


def _rational_doc(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def ledger_report(
    tower: TowerGraph,
    m_values: Iterable[int],
    tower_ref: str = "tower",
) -> dict:
    """Plain-data report: per-stratum exponents plus named pass/fail checks."""
    ms = sorted(set(int(m) for m in m_values))
    strata = _strata_of(tower)
    per_stratum = []
    for name in sorted(strata, key=lambda n: (strata[n].degree_over_base, n)):
        label = strata[name]
        exponents = {
            str(m): _rational_doc(Fraction(mumford_exponent(m), label.degree_over_base))
            for m in ms
        }
        per_stratum.append(
            {
                "node": name,
                "degree": label.degree_over_base,
                "genus": label.genus,
                "torsionWarning": label.genus == 2,
                "exponents": exponents,
            }
        )
    checks = []
    for m in ms:
        try:
            universal_bundle(m, tower)
            compatible = True
        except IncompatibleTower:
            compatible = False
        # An incompatible tower carries no universal bundle to compare.
        mumford = compatible and universal_mumford_check(m, tower)
        checks.append({"name": f"compatibility-m{m}", "pass": compatible})
        checks.append({"name": f"universal-mumford-m{m}", "pass": mumford})
    checks.append({"name": "wp-coherence", "pass": wp_coherence(tower)})
    checks.append(
        {
            "name": "serre-duality",
            "pass": all(
                mumford_exponent(m) == mumford_exponent(serre_dual(m)) for m in ms
            ),
        }
    )
    return {
        "schema": "ledger/1",
        "tower": tower_ref,
        "perStratum": per_stratum,
        "checks": checks,
    }
