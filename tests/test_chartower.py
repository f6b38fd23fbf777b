import random
import re
from math import lcm

import pytest

from coset_oracles import bfs_canonical, sym_kernel_intersection

from covertower import (
    Automorphism,
    BudgetExceeded,
    CharCertificate,
    CharSubgroup,
    GenericPresentation,
    IndexOverflow,
    IntersectionIndexOverflow,
    NotInvariant,
    RunConfig,
    SurfacePresentation,
    apply_automorphism,
    build_char_tower,
    builtin_test_automorphisms,
    char_core,
    char_core_within,
    char_order,
    contains,
    deck_group,
    factor_through,
    fiber_product_preserves_char,
    free_reduce,
    full_subgroup,
    handle_swap,
    homology_cover,
    inner_automorphism,
    intersect,
    inverse_word,
    is_identity,
    is_invariant_under,
    is_normal,
    is_subgroup_of,
    low_index_subgroups,
    make_subgroup,
    reidemeister_schreier,
    restrict_to_cover,
    schreier_generators,
    twisted_subgroup,
    vaut_from_automorphism,
    verify_certificate,
    words_equal,
)
from covertower import chartower, cosets
from covertower.chartower import check_automorphism
from covertower.cosets import Subgroup, _flatten_rows


def _random_word(rng, k, max_len):
    return free_reduce(
        rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(0, max_len))
    )


def test_automorphisms_round_trip():
    rng = random.Random(3)
    for genus in (2, 3):
        pres = SurfacePresentation(genus)
        for phi in builtin_test_automorphisms(pres):
            check_automorphism(phi)
            for _ in range(25):
                w = _random_word(rng, 2 * genus, 10)
                back = apply_automorphism(phi, apply_automorphism(phi, w), inverse=True)
                assert words_equal(pres, back, w)


def test_a_map_that_is_not_an_automorphism_is_not_constructed(pres2):
    # One corruption per check.  a1 -> a1 a2 is onto, and its "inverse"
    # a1 -> a1 a2^-1 passes the round trip, but the relator does not die.
    # Every generator to a1, both ways: the relator dies, but the map does
    # not undo the "inverse".
    swap = ((3,), (4,), (1,), (2,))
    with pytest.raises(ValueError, match="^need one image per generator$"):
        Automorphism(pres2, swap[:3], swap, "short")
    with pytest.raises(ValueError, match="^need one inverse image per generator$"):
        Automorphism(pres2, swap, swap[:3], "short")
    with pytest.raises(ValueError, match="^letter 5 out of range for 4 generators$"):
        Automorphism(pres2, swap, swap[:3] + ((5,),), "letter")
    with pytest.raises(ValueError, match="^images do not kill the relator$"):
        Automorphism(pres2, ((1, 3), (2,), (3,), (4,)), ((1, -3), (2,), (3,), (4,)), "slide")
    with pytest.raises(ValueError, match="^automorphism does not undo the inverse$"):
        Automorphism(pres2, ((1,),) * 4, ((1,),) * 4, "bogus")


def _twist(pres, i):
    """The Dehn twist b_i -> b_i a_i about the curve a_i."""
    a, b = 2 * i + 1, 2 * i + 2
    images = [(j,) for j in range(1, pres.generator_count + 1)]
    inverse_images = list(images)
    images[b - 1], inverse_images[b - 1] = (b, a), (b, -a)
    return Automorphism(pres, tuple(images), tuple(inverse_images), f"twist{i}")


def _substituted(images, w):
    return tuple(
        y for x in w for y in (images[x - 1] if x > 0 else inverse_word(images[-x - 1]))
    )


def _two_way_check(pres, images, inverse_images):
    """Acceptance by the check before one round trip sufficed: both maps
    kill the relator, and each undoes the other on every generator."""
    k = pres.generator_count
    if len(images) != k or len(inverse_images) != k:
        return False
    return all(
        is_identity(pres, _substituted(forth, pres.relator))
        and all(
            words_equal(pres, _substituted(back, forth[j - 1]), (j,))
            for j in range(1, k + 1)
        )
        for forth, back in ((images, inverse_images), (inverse_images, images))
    )


def _corrupted_maps(rng, phi):
    """Seeded corruptions of phi's images or inverse images: two entries
    swapped, one lengthened (by the relator, the same element, by a letter
    or by another entry), or one dropped (removed, or made trivial)."""
    k = phi.pres.generator_count
    for _ in range(12):
        maps = {"images": list(phi.images), "inverse_images": list(phi.inverse_images)}
        entries = maps[rng.choice(sorted(maps))]
        i, j = rng.sample(range(k), 2)
        kind = rng.choice(["swap", "relator", "letter", "product", "remove", "trivial"])
        if kind == "swap":
            entries[i], entries[j] = entries[j], entries[i]
        elif kind == "relator":
            entries[i] += phi.pres.relator
        elif kind == "letter":
            entries[i] += (rng.choice([1, -1]) * rng.randint(1, k),)
        elif kind == "product":
            entries[i] += entries[j]
        elif kind == "remove":
            del entries[i]
        else:
            entries[i] = ()
        yield tuple(maps["images"]), tuple(maps["inverse_images"])


def test_one_relator_check_and_one_round_trip_accept_what_the_two_way_check_accepts():
    rng = random.Random(15)
    verdicts = set()
    for genus in (2, 3):
        pres = SurfacePresentation(genus)
        inputs = [
            *builtin_test_automorphisms(pres),
            *(_twist(pres, i) for i in range(genus)),
        ]
        for phi in inputs:
            assert _two_way_check(pres, phi.images, phi.inverse_images)
            for images, inverse_images in _corrupted_maps(rng, phi):
                try:
                    Automorphism(pres, images, inverse_images)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == _two_way_check(pres, images, inverse_images)
                verdicts.add(accepted)
    assert verdicts == {True, False}


def test_an_automorphism_is_checked_by_one_relator_and_one_round_trip(pres2, monkeypatch):
    calls = []
    identity = chartower.is_identity

    def counted(pres, w):
        calls.append(w)
        return identity(pres, w)

    monkeypatch.setattr(chartower, "is_identity", counted)
    handle_swap(pres2)
    # The relator, then one round trip per generator.
    assert len(calls) == 1 + 4


def test_handle_swap_moves_the_first_handle(pres2):
    phi = handle_swap(pres2)
    assert apply_automorphism(phi, (1,)) == (3,)
    assert apply_automorphism(phi, (2,)) == (4,)


def test_inner_automorphism_matches_conjugation(pres2):
    phi = inner_automorphism(pres2, (1, 2))
    assert words_equal(pres2, apply_automorphism(phi, (3,)), (1, 2, 3, -2, -1))


def test_char_core_of_index_two_is_the_homology_cover(pres2, index_two_subgroups):
    cover = homology_cover(pres2, 2)
    for sub in index_two_subgroups[:4]:
        core = char_core(sub)
        assert core.subgroup == cover.subgroup
        assert core.certificate.kind == "hom-kernel-intersection"
        assert core.certificate.level == 2
        assert verify_certificate(core)


def test_char_core_at_index_three_overflows(pres2):
    sub = next(s for s in low_index_subgroups(pres2, 3) if s.index == 3)
    with pytest.raises(IntersectionIndexOverflow):
        char_core(sub)


def _cyclic_cover(pres, n):
    """The kernel of the map sending a1 to 1 in Z/n and the rest to 0."""
    cycle = tuple(range(1, n)) + (0,)
    identity = tuple(range(n))
    return make_subgroup(pres, [cycle] + [identity] * (pres.generator_count - 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_char_core_of_z_squared_is_the_lcm_lattice(n):
    # Every subgroup of index k <= n in Z^2 contains k Z^2, hence L Z^2 with
    # L = lcm(1..n), and kZ x Z, Z x kZ (k <= n) intersect to L Z^2; so the
    # core is L Z^2, whose cosets are the torus (Z/L)^2 walked by unit steps.
    z2 = GenericPresentation(2, ((1, 2, -1, -2),))
    sub = next(s for s in low_index_subgroups(z2, n) if s.index == n)
    L = lcm(*range(1, n + 1))
    rows = tuple(
        (((a + 1) % L) * L + b, a * L + (b + 1) % L)
        for a in range(L) for b in range(L)
    )
    core = char_core(sub)
    assert core.subgroup.index == (1, 4, 36, 144, 3600, 3600)[n - 1]
    assert core.subgroup.table == bfs_canonical(rows, 0)
    assert core.certificate.level == n


def test_char_core_of_the_free_group_matches_the_sym3_kernel_oracle():
    free = GenericPresentation(2, ())
    sub = next(s for s in low_index_subgroups(free, 3) if s.index == 3)
    core = char_core(sub)
    assert core.subgroup.index == 972
    assert core.subgroup.table == sym_kernel_intersection(2, (), 3)


def test_sym2_kernel_oracle_is_the_mod_two_homology_cover(pres2):
    oracle = sym_kernel_intersection(4, pres2.relators, 2)
    assert oracle == homology_cover(pres2, 2).subgroup.table


def _no_search(*args):
    raise AssertionError("the low-index search must not run")


def _no_elimination(*args):
    raise AssertionError("the relator matrix must not be eliminated")


def _no_restriction(*args):
    raise AssertionError("no relative table may be built")


def _no_normality_walk(*args):
    raise AssertionError("normality must not be walked")


@pytest.mark.parametrize("genus, n", [(2, 4), (2, 5), (2, 6), (3, 3)])
def test_char_core_refusal_says_how_far_it_got(genus, n, monkeypatch):
    # The core lies in the kernel of G -> H1 (x) Z/L, L = lcm(1..n), of index
    # L^(2g).  Past n = 4 one relator on 2g generators already bounds it by
    # L^(2g-1) = 60^3, before any elimination; that bound prints as a power.
    bound = {(2, 4): 12**4, (2, 5): "60^3", (2, 6): "60^3", (3, 3): 6**6}[genus, n]
    monkeypatch.setattr(chartower, "_each_subgroup", _no_search)
    sub = _cyclic_cover(SurfacePresentation(genus), n)
    with pytest.raises(IntersectionIndexOverflow) as excinfo:
        char_core(sub)
    assert str(excinfo.value) == f"core at n={n} has index at least {bound}, above cap 10000"


def test_char_core_past_max_index_is_refused_before_the_bound(monkeypatch):
    # 60^3 is over the cap too, but a search past max_index refuses first.
    monkeypatch.setattr(chartower, "_each_subgroup", _no_search)
    sub = _cyclic_cover(SurfacePresentation(2), 5)
    with pytest.raises(BudgetExceeded, match="^max_index 5 above configured cap 4$"):
        char_core(sub, RunConfig(max_index=4))


def test_char_core_search_overflow_says_how_far_it_got():
    # At genus 2, n = 3 the abelian kernel has index 6^4 = 1296, under the
    # cap, so the search intersects into it until the cap is passed.
    sub = _cyclic_cover(SurfacePresentation(2), 3)
    with pytest.raises(IntersectionIndexOverflow) as excinfo:
        char_core(sub)
    match = re.fullmatch(
        r"core at n=3 exceeds index cap 10000 at subgroup (\d+) of index "
        r"<= 3; the first (\d+) intersect to index (\d+)",
        str(excinfo.value),
    )
    assert match, str(excinfo.value)
    used, before, reached = map(int, match.groups())
    # The refusal comes within a handful of subgroups, not at the node budget.
    assert before == used - 1 and used < 20
    assert reached % 1296 == 0 and 1296 < reached <= 10_000


def test_mod_two_core_overflow_names_the_index(index_two_subgroups):
    with pytest.raises(IntersectionIndexOverflow) as excinfo:
        char_core(index_two_subgroups[0], RunConfig(max_result_index=15))
    assert str(excinfo.value) == "core at n=2 has index 16, above cap 15"


def test_relative_core_at_index_two_refuses_without_a_search(pres2, monkeypatch):
    # Inside the genus-17 mod-2 cover the relative core at relative index 2
    # has index 2^34.  The cover's presentation has 49 generators and 16
    # relators, so the bound 2^33 refuses it before any elimination or search.
    monkeypatch.setattr(chartower, "_each_subgroup", _no_search)
    h2 = homology_cover(pres2, 2).subgroup
    inner = intersect(h2, _cyclic_cover(pres2, 4))
    assert inner.index == 32
    with pytest.raises(IntersectionIndexOverflow, match=r"index at least 2\^33,"):
        char_core_within(h2, inner)
    assert char_order(inner, h2) == "unknown"


def test_relative_core_at_index_three_refuses_without_a_search(pres2, monkeypatch):
    # The same cover at relative index 3: L = 6 and 6^33 is over the cap, so
    # the edge is "unknown" at once where the search ran for a second.
    monkeypatch.setattr(chartower, "_each_subgroup", _no_search)
    h2 = homology_cover(pres2, 2).subgroup
    inner = intersect(h2, _cyclic_cover(pres2, 3))
    assert inner.index == 48
    assert char_order(inner, h2) == "unknown"
    with pytest.raises(IntersectionIndexOverflow, match=r"^core at n=3 has index at least 6\^33,"):
        char_core_within(h2, inner)


def test_relative_core_bound_too_long_for_decimal_says_unknown(pres2, monkeypatch):
    # Inside the index-1,296 mod-6 cover (3,889 generators, 1,296 relators)
    # the relative core at index 5 is bounded by 60^2593, over 4,300 digits:
    # more than Python will print as a decimal int.
    monkeypatch.setattr(chartower, "_each_subgroup", _no_search)
    h6 = homology_cover(pres2, 6).subgroup
    inner = intersect(h6, _cyclic_cover(pres2, 5))
    assert inner.index == 6480
    assert char_order(inner, h6) == "unknown"
    with pytest.raises(IntersectionIndexOverflow, match=r"^core at n=5 has index at least 60\^2593,"):
        char_core_within(h6, inner)


def test_core_at_relative_index_one_needs_no_elimination(pres2, monkeypatch):
    # The mod-8 cover's own presentation has 12,289 generators and 4,096
    # relators; at n = 1 the core is the whole cover group, read off directly.
    h8 = homology_cover(pres2, 8)
    monkeypatch.setattr(chartower, "_diagonal_form", _no_elimination)
    monkeypatch.setattr(chartower, "_each_subgroup", _no_search)
    rel = char_core_within(h8, h8.subgroup)
    assert rel.relative.index == 1 and rel.absolute == h8.subgroup


def test_homology_covers(pres2):
    for pres in (pres2, SurfacePresentation(3)):
        one = homology_cover(pres, 1)
        assert one.subgroup == full_subgroup(pres)
        assert (one.certificate.kind, one.certificate.level) == ("homology-level", 1)
    two = homology_cover(pres2, 2)
    assert two.subgroup.index == 16
    assert two.certificate.kind == "homology-level"
    assert two.certificate.level == 2
    assert verify_certificate(two)
    three = homology_cover(pres2, 3)
    assert three.subgroup.index == 81
    assert deck_group(three.subgroup).exponent == 3
    four = homology_cover(pres2, 4)
    assert four.subgroup.index == 256
    assert deck_group(four.subgroup).exponent == 4
    with pytest.raises(IndexOverflow):
        homology_cover(pres2, 11)


def test_generator_commutators_lie_in_every_homology_cover(pres2):
    for n in (2, 3):
        cover = homology_cover(pres2, n).subgroup
        for i in range(1, 5):
            for j in range(1, 5):
                assert contains(cover, (i, j, -i, -j))


def test_fiber_product_of_homology_levels(pres2):
    two = homology_cover(pres2, 2)
    three = homology_cover(pres2, 3)
    six = fiber_product_preserves_char(two, three)
    assert six.certificate.kind == "homology-level"
    assert six.certificate.level == 6
    assert six.subgroup == homology_cover(pres2, 6).subgroup
    assert verify_certificate(six)


def test_fiber_product_reuses_parent_certificate(pres2):
    two = homology_cover(pres2, 2)
    four = homology_cover(pres2, 4)
    nested = fiber_product_preserves_char(two, four)
    assert nested.subgroup == four.subgroup
    assert nested.certificate.level == 4


def test_fiber_product_generic_certificate(pres2, index_two_subgroups):
    core = char_core(index_two_subgroups[0])
    three = homology_cover(pres2, 3)
    mixed = fiber_product_preserves_char(core, three)
    assert mixed.certificate.kind == "intersection"
    assert len(mixed.certificate.parents) == 2
    assert mixed.subgroup.index == 16 * 81
    assert verify_certificate(mixed)


def test_tampered_certificate_fails_verification(pres2):
    two = homology_cover(pres2, 2)
    forged = CharSubgroup(two.subgroup, CharCertificate("homology-level", level=3))
    assert not verify_certificate(forged)


def _f2_reduce(vector, basis):
    for pivot, row in basis.items():
        if vector >> pivot & 1:
            vector ^= row
    return vector


def test_char_core_within_matches_mod_two_linear_algebra(index_two_subgroups):
    # Relative core at relative index 2 is the mod-2 homology cover of the
    # cover group; rebuild it from scratch with bitmask linear algebra.
    ambient = index_two_subgroups[0]
    inner = intersect(ambient, index_two_subgroups[1])
    within = char_core_within(ambient, inner)
    assert within.certificate.kind == "hom-kernel-intersection"

    pres = reidemeister_schreier(ambient)
    m = pres.generator_count
    basis = {}
    for relator in pres.relators:
        vector = 0
        for x in relator:
            vector ^= 1 << (abs(x) - 1)
        vector = _f2_reduce(vector, basis)
        if vector:
            basis[vector.bit_length() - 1] = vector
    classes = sorted({_f2_reduce(v, basis) for v in range(1 << m)})
    assert len(classes) == 64
    position = {rep: i for i, rep in enumerate(classes)}
    table = tuple(
        tuple(position[_f2_reduce(rep ^ (1 << j), basis)] for j in range(m))
        for rep in classes
    )
    oracle = Subgroup(pres, table, position[0])
    assert within.relative == oracle
    assert within.absolute.table == _flatten_rows(ambient, oracle.act_letter)
    assert is_subgroup_of(within.absolute, inner)
    assert within.absolute.index == 128


def test_char_order_tri_state(pres2, index_two_subgroups):
    full = full_subgroup(pres2)
    h = index_two_subgroups[0]
    k2 = homology_cover(pres2, 2)
    assert char_order(k2, full) == "yes"
    assert char_order(h, h) == "yes"
    assert char_order(h, index_two_subgroups[1]) == "no"
    non_normal = next(
        s for s in low_index_subgroups(pres2, 3) if s.index == 3 and not is_normal(s)
    )
    assert char_order(non_normal, full) == "no"
    assert char_order(k2.subgroup, h) == "unknown"


def test_invariance_and_restriction(pres2, index_two_subgroups):
    cover = homology_cover(pres2, 2).subgroup
    auts = builtin_test_automorphisms(pres2)
    assert is_invariant_under(cover, auts)
    restricted = vaut_from_automorphism(handle_swap(pres2), cover)
    assert restricted.codomain == cover
    assert len(restricted.images) == 49
    for image in restricted.images:
        assert contains(cover, image)
    h = index_two_subgroups[0]
    assert not is_invariant_under(h, (handle_swap(pres2),))
    assert vaut_from_automorphism(handle_swap(pres2), h).codomain != h


def test_invariance_matches_the_schreier_generator_route(pres2):
    # phi(H) = H iff phi maps every Schreier generator of H into H: an
    # automorphism keeps the index, and a subgroup holding one of equal
    # index equals it.  The twisted table must give the same verdicts.
    normal = [s for s in low_index_subgroups(pres2, 3) if is_normal(s)]
    auts = builtin_test_automorphisms(pres2)
    assert len(normal) == 56 and len(auts) == 5
    verdicts = []
    for sub in normal:
        gens = schreier_generators(sub)
        for phi in auts:
            expected = all(contains(sub, apply_automorphism(phi, g)) for g in gens)
            assert is_invariant_under(sub, (phi,)) == expected
            verdicts.append(expected)
        assert is_invariant_under(sub, auts) == all(verdicts[-5:])
    assert sum(all(verdicts[i : i + 5]) for i in range(0, len(verdicts), 5)) == 12


def test_build_char_tower(pres2):
    tower = build_char_tower(
        pres2, [{"kind": "homology", "n": 2}, {"kind": "homology", "n": 4}]
    )
    degrees = sorted(node.degree for node in tower.nodes)
    assert degrees == [1, 16, 256]
    genera = sorted(node.genus for node in tower.nodes)
    assert genera == [2, 17, 257]
    tags = {}
    for edge in tower.edges:
        sub_deg = tower.node(edge.sub).degree
        sup_deg = tower.node(edge.super).degree
        assert sub_deg == edge.relative_degree * sup_deg
        tags[(sub_deg, sup_deg)] = edge.char_tag
    assert tags[(16, 1)] == "yes"
    assert tags[(256, 1)] == "yes"
    assert tags[(256, 16)] == "unknown"


def test_tower_edges_reuse_their_arrows(pres2, ledger_tower_steps, monkeypatch):
    # Normality is a coset-map walk, not a conjugate per generator, and every
    # non-root edge is past the core search's cap, so none builds a relative
    # table.
    calls = {"conjugate_subgroup": 0, "restrict_to_cover": 0}
    for module in (cosets, chartower):
        for name in calls:
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
    tower = build_char_tower(pres2, ledger_tower_steps)
    degree = {node.name: node.degree for node in tower.nodes}
    edges = {
        (degree[e.sub], degree[e.super]): (e.relative_degree, e.char_tag)
        for e in tower.edges
    }
    assert edges == {
        (16, 1): (16, "yes"),
        (81, 1): (81, "yes"),
        (1296, 1): (1296, "yes"),
        (1296, 16): (81, "unknown"),
        (1296, 81): (16, "unknown"),
        (4096, 1): (4096, "yes"),
        (4096, 16): (256, "unknown"),
    }
    assert calls == {"conjugate_subgroup": 0, "restrict_to_cover": 0}


def _restrictions(monkeypatch):
    """The arrows that chartower restricts to a relative table, as it goes."""
    arrows = []
    original = chartower.restrict_to_cover

    def counted(arrow):
        arrows.append(arrow)
        return original(arrow)

    monkeypatch.setattr(chartower, "restrict_to_cover", counted)
    return arrows


def test_certified_edges_past_the_cap_agree_with_the_relative_route(
    pres2, ledger_tower_steps, monkeypatch
):
    # A certified node is normal in G, so in every cover above it, and past
    # the core search's cap its edge is "unknown" with no relative table.
    # The same subgroup given bare restricts, walks normality in the
    # relative table and has its search refused: the same answer.
    tower = build_char_tower(pres2, ledger_tower_steps)
    restricted = _restrictions(monkeypatch)
    checked = 0
    for edge in tower.edges:
        node, sup = tower.node(edge.sub), tower.node(edge.super)
        if sup.degree == 1:
            continue
        shortcut = char_order(node.char, sup.char)
        assert not restricted
        relative = char_order(node.char.subgroup, sup.char)
        assert len(restricted) == 1
        restricted.clear()
        assert shortcut == relative == edge.char_tag
        checked += 1
    assert checked == 3


def test_non_normal_relative_cover_past_the_cap_is_no(pres2, index_two_subgroups, monkeypatch):
    # Past the cap (relative index 3 > max(2, max_index = 2)) a cover that is
    # not certified still walks normality in its relative table, so one that
    # is not normal there is "no", as it is under the default cap.  A
    # partial certificate claims nothing about normality.
    h = index_two_subgroups[0]
    inner = next(
        b
        for s in low_index_subgroups(pres2, 3)
        if s.index == 3
        for b in [intersect(h, s)]
        if not is_normal(restrict_to_cover(factor_through(b, h)))
    )
    assert inner.index == 6
    partial = CharSubgroup(inner, CharCertificate("supplied-aut-invariance", partial=True))
    restricted = _restrictions(monkeypatch)
    for config in (RunConfig(max_index=2), None):
        assert char_order(inner, h, config) == "no"
        assert char_order(partial, h, config) == "no"
    assert len(restricted) == 4
    non_normal = next(
        s for s in low_index_subgroups(pres2, 3) if s.index == 3 and not is_normal(s)
    )
    assert char_order(non_normal, full_subgroup(pres2), RunConfig(max_index=2)) == "no"


def test_relative_core_past_the_cap_is_refused_before_restricting(pres2, monkeypatch):
    # char_core_within reads the search's refusal off the arrow's degree, so
    # it raises the same BudgetExceeded as the search with no relative table.
    monkeypatch.setattr(chartower, "restrict_to_cover", _no_restriction)
    h2 = homology_cover(pres2, 2).subgroup
    inner = intersect(h2, _cyclic_cover(pres2, 5))
    with pytest.raises(BudgetExceeded, match="^max_index 5 above configured cap 4$"):
        char_core_within(h2, inner, RunConfig(max_index=4))


def test_deep_homology_tower_builds_no_relative_table(pres2, monkeypatch):
    # Homology 2, 4, 8, 16 (index 65,536): the four edges over the base are
    # "yes" by certificate, and the six between covers are past the core
    # search's cap, so none restricts or walks normality.
    monkeypatch.setattr(chartower, "restrict_to_cover", _no_restriction)
    monkeypatch.setattr(chartower, "is_normal", _no_normality_walk)
    steps = [{"kind": "homology", "n": n} for n in (2, 4, 8, 16)]
    tower = build_char_tower(pres2, steps, RunConfig(max_result_index=70_000))
    degree = {node.name: node.degree for node in tower.nodes}
    tags = {(degree[e.sub], degree[e.super]): e.char_tag for e in tower.edges}
    assert tags == {
        (sub, sup): "yes" if sup == 1 else "unknown"
        for sub in (16, 256, 4096, 65536)
        for sup in (1, 16, 256, 4096)
        if sup < sub
    }


def test_tower_rejects_non_invariant_bare_subgroup(pres2, index_two_subgroups):
    with pytest.raises(NotInvariant):
        build_char_tower(
            pres2, [{"kind": "subgroup", "subgroup": index_two_subgroups[0]}]
        )


def test_tower_accepts_invariant_bare_subgroup(pres2):
    cover = homology_cover(pres2, 2).subgroup
    tower = build_char_tower(pres2, [{"kind": "subgroup", "subgroup": cover}])
    node = next(nd for nd in tower.nodes if nd.degree == 16)
    assert node.char.certificate.kind == "supplied-aut-invariance"
    assert node.char.certificate.partial
    assert verify_certificate(node.char)


def test_char_core_step_in_tower(pres2):
    tower = build_char_tower(
        pres2, [{"kind": "char-core", "index": 2, "ordinal": 0}]
    )
    cover = homology_cover(pres2, 2).subgroup
    node = next(nd for nd in tower.nodes if nd.degree == 16)
    assert node.char.subgroup == cover
