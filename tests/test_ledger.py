import math
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from covertower import (
    BundleClass,
    IncompatibleTower,
    StratumLabel,
    SurfacePresentation,
    TowerGraph,
    TowerNode,
    build_char_tower,
    check_composition_diagram,
    curvature_of,
    descent_factor,
    hurwitz_bound,
    ledger_report,
    mumford_exponent,
    pic_structure,
    pullback_exponent,
    serre_dual,
    tensor_bundles,
    torsion_residue,
    universal_bundle,
    universal_mumford_check,
    wp_coherence,
    wp_limit_scale,
    wp_pullback_coefficient,
)


@pytest.fixture(scope="module")
def tower():
    return build_char_tower(SurfacePresentation(2), [{"kind": "homology", "n": 2}])


def test_exponent_formula():
    assert mumford_exponent(2) == 13
    assert mumford_exponent(0) == 1
    assert mumford_exponent(1) == 1
    assert mumford_exponent(-1) == 13
    for m in range(-100, 101):
        e = mumford_exponent(m)
        assert e == 6 * m * m - 6 * m + 1
        assert e >= 1
        assert e % 2 == 1
        assert mumford_exponent(serre_dual(m)) == e


def test_serre_dual_is_an_involution():
    for m in range(-50, 51):
        assert serre_dual(m) == 1 - m
        assert serre_dual(serre_dual(m)) == m


def test_pullback_is_linear_and_multiplicative():
    for q in (Fraction(13), Fraction(13, 16), Fraction(-7, 3)):
        assert pullback_exponent(q, 1) == q
        assert pullback_exponent(q, 5) == 5 * q
        assert pullback_exponent(pullback_exponent(q, 3), 4) == pullback_exponent(
            q, 12
        )
    assert pullback_exponent(2 * Fraction(1, 2) + Fraction(3), 2) == Fraction(8)


def test_composition_diagram_closes():
    for n1 in (2, 3, 16):
        for n2 in (2, 5, 81):
            for q in (Fraction(1), Fraction(13), Fraction(13, 16)):
                assert check_composition_diagram(n1, n2, q)


def test_curvature_coefficients():
    base = StratumLabel(2, 1, "n0")
    assert curvature_of(BundleClass(base, Fraction(13))).wp_coefficient == 13
    assert curvature_of(BundleClass(base, Fraction(0))).wp_coefficient == 0
    assert curvature_of(BundleClass(base, Fraction(1))).wp_coefficient == 1


def test_wp_scalings():
    assert wp_pullback_coefficient(16) == 16
    assert wp_limit_scale(2) == 1
    assert wp_limit_scale(17) == Fraction(1, 16)
    assert wp_limit_scale(17) * wp_pullback_coefficient(16) == wp_limit_scale(2)


def test_hurwitz_and_descent():
    assert hurwitz_bound(2) == 84
    assert hurwitz_bound(3) == 168
    expected = reduce(mul, range(1, 85), 1)
    got = descent_factor(2)
    assert got == expected
    assert got == math.factorial(84)
    assert len(str(got)) == 127


def test_pic_structure():
    two = pic_structure(2)
    assert not two.infinite_cyclic
    assert two.torsion_order == 10
    for g in (3, 5, 11):
        info = pic_structure(g)
        assert info.infinite_cyclic
        assert info.torsion_order is None
    with pytest.raises(ValueError):
        pic_structure(1)


def test_torsion_residue():
    base = StratumLabel(2, 1, "n0")
    thirteen = BundleClass(base, Fraction(13))
    assert thirteen.torsion_warning
    assert thirteen.integral
    assert torsion_residue(thirteen) == 3
    doubled = tensor_bundles(thirteen, thirteen)
    assert torsion_residue(doubled) == 6
    fractional = BundleClass(base, Fraction(13, 16))
    assert torsion_residue(fractional) is None
    high = BundleClass(StratumLabel(17, 16, "n1"), Fraction(13))
    assert not high.torsion_warning
    assert torsion_residue(high) is None


def test_universal_bundle_on_one_step_tower(tower):
    bundle = universal_bundle(2, tower)
    exponents = {
        label.degree_over_base: cls.exponent for label, cls in bundle.assignment.items()
    }
    assert exponents == {1: Fraction(13), 16: Fraction(13, 16)}
    deep = bundle.on_node(
        next(nd.name for nd in tower.nodes if nd.degree == 16)
    )
    assert not deep.integral
    assert deep.stratum.genus == 17


def test_universal_bundle_on_two_step_tower():
    tower = build_char_tower(
        SurfacePresentation(2),
        [{"kind": "homology", "n": 2}, {"kind": "homology", "n": 4}],
    )
    bundle = universal_bundle(2, tower)
    exponents = {
        label.degree_over_base: cls.exponent for label, cls in bundle.assignment.items()
    }
    assert exponents == {
        1: Fraction(13),
        16: Fraction(13, 16),
        256: Fraction(13, 256),
    }
    assert universal_mumford_check(2, tower)


def test_mumford_sweep(tower):
    for m in range(-10, 11):
        assert universal_mumford_check(m, tower)


def test_wp_coherence(tower):
    assert wp_coherence(tower)


def test_forged_genus_is_rejected(tower):
    nodes = []
    for node in tower.nodes:
        if node.degree == 16:
            nodes.append(TowerNode(node.name, node.char, node.genus + 1, node.degree))
        else:
            nodes.append(node)
    forged = TowerGraph(tower.pres, tuple(nodes), tower.edges)
    with pytest.raises(IncompatibleTower):
        universal_bundle(2, forged)


def _double_edge_degrees(tower):
    edges = tuple(
        edge.__class__(edge.sub, edge.super, edge.relative_degree * 2, edge.char_tag)
        for edge in tower.edges
    )
    return TowerGraph(tower.pres, tower.nodes, edges)


def test_forged_edge_degree_is_rejected(tower):
    with pytest.raises(IncompatibleTower):
        universal_bundle(2, _double_edge_degrees(tower))


def test_ledger_report_records_a_forged_edge_degree(tower):
    report = ledger_report(_double_edge_degrees(tower), [0, 2])
    assert {check["name"]: check["pass"] for check in report["checks"]} == {
        "compatibility-m0": False,
        "universal-mumford-m0": False,
        "compatibility-m2": False,
        "universal-mumford-m2": False,
        "wp-coherence": False,
        "serre-duality": True,
    }
    # A node whose genus contradicts its degree is still refused outright.
    nodes = tuple(
        TowerNode(n.name, n.char, n.genus + 1, n.degree) if n.degree == 16 else n
        for n in tower.nodes
    )
    with pytest.raises(IncompatibleTower):
        ledger_report(TowerGraph(tower.pres, nodes, tower.edges), [0])


def test_ledger_report_shape(tower):
    report = ledger_report(tower, [0, 2, 3])
    assert report["schema"] == "ledger/1"
    assert report["tower"] == "tower"
    strata = report["perStratum"]
    assert [s["degree"] for s in strata] == [1, 16]
    base, deep = strata
    assert base["genus"] == 2 and deep["genus"] == 17
    assert base["torsionWarning"] and not deep["torsionWarning"]
    assert base["exponents"]["2"] == {"num": 13, "den": 1}
    assert deep["exponents"]["2"] == {"num": 13, "den": 16}
    assert deep["exponents"]["0"] == {"num": 1, "den": 16}
    names = {check["name"] for check in report["checks"]}
    assert {"wp-coherence", "serre-duality"} <= names
    assert "compatibility-m2" in names
    assert "universal-mumford-m3" in names
    assert all(check["pass"] for check in report["checks"])
