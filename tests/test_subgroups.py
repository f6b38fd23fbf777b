import gc
import hashlib
import random
import weakref
from itertools import permutations

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from coset_oracles import bfs_canonical, deck_group_by_bfs
from covertower import (
    IntersectionIndexOverflow,
    NotNormal,
    NotTransitive,
    RelatorViolated,
    Subgroup,
    SurfacePresentation,
    build_char_tower,
    conjugate_subgroup,
    conjugate_word,
    contains,
    covering_genus,
    deck_group,
    factor_through,
    free_reduce,
    full_subgroup,
    handle_swap,
    homology_cover,
    intersect,
    is_identity,
    is_normal,
    is_subgroup_of,
    low_index_subgroups,
    make_subgroup,
    preimage_subgroup,
    reidemeister_schreier,
    restrict_to_cover,
    rewrite_in_schreier_generators,
    schreier_generators,
    subgroup_doc,
    subgroup_from_doc,
    substitute,
    twisted_subgroup,
    vaut_from_automorphism,
)
from covertower import cosets
from covertower.cosets import _flatten_rows


def _random_word(rng, k, max_len):
    return free_reduce(
        rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(0, max_len))
    )


def test_full_subgroup(pres2):
    full = full_subgroup(pres2)
    assert full.index == 1
    assert covering_genus(full) == 2
    assert contains(full, (1, 2, 3))


def test_make_subgroup_validation(pres2):
    with pytest.raises(ValueError):
        make_subgroup(pres2, [(0, 0), (0, 1), (0, 1), (0, 1)])
    with pytest.raises(NotTransitive):
        make_subgroup(pres2, [(0, 1)] * 4)
    # A 3-cycle against a transposition makes the commutator relator act
    # as a nontrivial 3-cycle.
    with pytest.raises(RelatorViolated):
        make_subgroup(pres2, [(1, 2, 0), (1, 0, 2), (0, 1, 2), (0, 1, 2)])


def test_constructor_is_idempotent(pres2):
    for sub in low_index_subgroups(pres2, 3):
        assert Subgroup(sub.pres, sub.table).table == sub.table


def test_equality_is_on_the_canonical_table(pres2):
    # The same subgroup given by a table with its cosets relabelled by a
    # permutation sigma, and its basepoint at sigma(0).
    table = homology_cover(pres2, 3).subgroup.table
    sigma = list(range(len(table)))
    random.Random(53).shuffle(sigma)
    relabelled = [None] * len(table)
    for c, row in enumerate(table):
        relabelled[sigma[c]] = tuple(sigma[d] for d in row)
    assert tuple(relabelled) != table
    moved = Subgroup(pres2, tuple(relabelled), sigma[0])
    plain = Subgroup(pres2, table)
    assert moved == plain
    assert hash(moved) == hash(plain)
    assert len({moved, plain}) == 1


def test_covering_genus_and_schreier_counts(pres2, index_two_subgroups):
    for sub in index_two_subgroups:
        assert covering_genus(sub) == 3
        assert len(schreier_generators(sub)) == 2 * 4 - 1
    for sub in low_index_subgroups(pres2, 3):
        expected = sub.index * 2 * pres2.genus - (sub.index - 1)
        assert len(schreier_generators(sub)) == expected
        assert covering_genus(sub) == sub.index * (pres2.genus - 1) + 1


def test_schreier_generators_are_members(pres2, index_two_subgroups):
    for sub in index_two_subgroups[:5]:
        for gen in schreier_generators(sub):
            assert contains(sub, gen)
            assert contains(sub, gen + (1,)) == contains(sub, (1,))


def test_rewritten_relators_die_in_the_ambient_group(index_two_subgroups):
    sub = index_two_subgroups[0]
    system = sub.schreier
    pres = reidemeister_schreier(sub)
    assert pres.generator_count == 7
    for relator in pres.relators:
        word = substitute(system.generators, relator)
        assert is_identity(sub.pres, word)


def _abelianized_relation_matrix(sub):
    pres = reidemeister_schreier(sub)
    rows = []
    for relator in pres.relators:
        row = [0] * pres.generator_count
        for x in relator:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return pres.generator_count, rows


def test_first_betti_number_against_smith_form(pres2, index_two_subgroups):
    # Independent check that covers abelianize to Z^{2 * covering genus},
    # torsion-free: the Smith form of the relation matrix has unit
    # elementary divisors and the right nullity.
    sub = index_two_subgroups[0]
    m, rows = _abelianized_relation_matrix(sub)
    matrix = Matrix(rows)
    assert m - matrix.rank() == 2 * covering_genus(sub) == 6
    diag = smith_normal_form(matrix)
    nonzero = [d for d in diag.diagonal() if d != 0]
    assert all(abs(d) == 1 for d in nonzero)

    cover = homology_cover(pres2, 2).subgroup
    m, rows = _abelianized_relation_matrix(cover)
    assert m == 49
    matrix = Matrix(rows)
    assert m - matrix.rank() == 2 * covering_genus(cover) == 34


def test_membership_matches_coset_action(pres2, index_two_subgroups):
    rng = random.Random(23)
    for sub in index_two_subgroups[:4]:
        for _ in range(60):
            w = _random_word(rng, 4, 12)
            assert contains(sub, w) == (sub.act_word(0, w) == 0)


def test_conjugation_semantics(pres2):
    rng = random.Random(31)
    subs = [s for s in low_index_subgroups(pres2, 3) if s.index == 3]
    sample = rng.sample(subs, 6)
    for sub in sample:
        by = _random_word(rng, 4, 6)
        conj = conjugate_subgroup(sub, by)
        for _ in range(40):
            w = _random_word(rng, 4, 10)
            assert contains(conj, conjugate_word(w, by)) == contains(sub, w)


def test_normality(pres2, index_two_subgroups):
    for sub in index_two_subgroups:
        assert is_normal(sub)
        assert conjugate_subgroup(sub, (1,)) == sub
    non_normal = [
        s for s in low_index_subgroups(pres2, 3) if s.index == 3 and not is_normal(s)
    ]
    assert non_normal
    sub = non_normal[0]
    assert any(conjugate_subgroup(sub, (j,)) != sub for j in range(1, 5))


def _column_group_has_order_index(sub):
    # H is normal iff G acts on H\G through a group of order |G:H|: the
    # closure of the table's columns under composition, as plain tuples.
    n = sub.index
    columns = [tuple(row[j] for row in sub.table) for j in range(len(sub.table[0]))]
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for q in columns:
            pq = tuple(q[i] for i in p)
            if pq not in group:
                group.add(pq)
                frontier.append(pq)
    return len(group) == n


def test_normality_matches_the_permutation_group_order(pres2, ledger_tower_steps):
    subs = low_index_subgroups(pres2, 3)
    assert len(subs) == 236
    # Index-3 relative covers inside an index-2 cover, over its 7 Schreier
    # generators.
    h = subs[1]
    inside_h = [
        restrict_to_cover(factor_through(intersect(h, s), h))
        for s in subs
        if s.index == 3
    ]
    # The relative covers of the tower's non-root edges, over presentations
    # with 49 and 244 generators.
    tower = build_char_tower(pres2, ledger_tower_steps)
    node = {nd.name: nd.char.subgroup for nd in tower.nodes}
    edges = [
        restrict_to_cover(factor_through(node[e.sub], node[e.super]))
        for e in tower.edges
        if node[e.super].index > 1
    ]
    assert sorted(rel.index for rel in edges) == [16, 81, 256]
    for group, normal_count in ((subs, 56), (inside_h, 52), (edges, 3)):
        outcomes = [is_normal(sub) for sub in group]
        assert sum(outcomes) == normal_count
        assert outcomes == [_column_group_has_order_index(sub) for sub in group]


def test_normality_builds_no_subgroup(pres2, monkeypatch):
    cover = homology_cover(pres2, 8).subgroup
    assert cover.index == 4096
    runs = []
    post_init = Subgroup.__post_init__

    def counted(self, *args):
        runs.append(self)
        post_init(self, *args)

    monkeypatch.setattr(Subgroup, "__post_init__", counted)
    assert is_normal(cover)
    assert runs == []


def test_intersection_properties(pres2, index_two_subgroups):
    a, b = index_two_subgroups[0], index_two_subgroups[1]
    inter = intersect(a, b)
    assert inter.index == 4
    assert is_subgroup_of(inter, a)
    assert is_subgroup_of(inter, b)
    assert intersect(b, a) == inter
    assert intersect(a, a) == a
    c = index_two_subgroups[2]
    left = intersect(intersect(a, b), c)
    right = intersect(a, intersect(b, c))
    assert left == right


def test_intersection_of_nested_inputs_is_the_smaller_input(pres2, mod4_cover, monkeypatch):
    # a <= b gives a itself, found by one coset-map walk with no product
    # orbit; the cap still refuses an input past it.
    def no_orbit(*args):
        raise AssertionError("nested inputs need no product orbit")

    mod2 = homology_cover(pres2, 2).subgroup
    full = full_subgroup(pres2)
    copy = Subgroup(pres2, mod4_cover.table)
    monkeypatch.setattr(cosets, "_orbit_rows", no_orbit)
    for a, b in ((mod4_cover, mod2), (mod4_cover, full), (mod4_cover, copy), (copy, mod4_cover)):
        assert intersect(a, b) is a
        assert intersect(b, a) is (a if b.index < a.index else b)
        assert intersect(a, b, 256) is a
    for other in (mod2, mod4_cover):
        message = (
            f"^intersection of subgroups of index {other.index} and 256 "
            "has index at least 256, above index cap 255$"
        )
        with pytest.raises(IntersectionIndexOverflow, match=message):
            intersect(other, mod4_cover, 255)


def test_intersection_table_is_built_canonical(pres2):
    # The intersection table must be in BFS order from coset 0, whatever
    # the inputs' basepoints; the order is checked on the raw rows.
    rng = random.Random(23)
    pool = low_index_subgroups(pres2, 3)
    for _ in range(300):
        a, b = (
            Subgroup(pres2, s.table, rng.randrange(s.index))
            for s in rng.sample(pool, 2)
        )
        inter = intersect(a, b)
        assert inter.table == bfs_canonical(inter.table, 0)


def test_rewrite_in_schreier_generators(pres2, index_two_subgroups):
    rng = random.Random(29)
    sub = intersect(index_two_subgroups[0], index_two_subgroups[1])
    system = sub.schreier
    members = nonmembers = 0
    for _ in range(200):
        w = _random_word(rng, 4, 12)
        if contains(sub, w):
            members += 1
            rewritten = rewrite_in_schreier_generators(sub, w)
            assert substitute(system.generators, rewritten) == w
        else:
            nonmembers += 1
            with pytest.raises(ValueError):
                rewrite_in_schreier_generators(sub, w)
    assert members and nonmembers
    with pytest.raises(ValueError):
        rewrite_in_schreier_generators(sub, (5,))


def test_each_schreier_generator_rewrites_to_its_own_letter(pres2, mod4_cover):
    # The i-th generator t_c x t_d^-1 crosses exactly one non-tree edge, the
    # i-th, so rewriting it must give the single letter i+1.
    subs = [*low_index_subgroups(pres2, 3), mod4_cover]
    assert len(subs) == 237
    for sub in subs:
        for i, gen in enumerate(schreier_generators(sub)):
            assert rewrite_in_schreier_generators(sub, gen) == (i + 1,)


def test_mod_four_cover_schreier_generators_are_pinned(mod4_cover):
    # Digest of the generators as the table-keyed cache built them.
    digest = hashlib.sha256(repr(schreier_generators(mod4_cover)).encode()).hexdigest()
    assert digest == "91eec425fe4dc96f638e3dcbb85118918208b0b9bd3c37f8dd556b4069c3a186"


def test_schreier_system_is_built_once_per_instance(pres2, monkeypatch):
    builds = []
    build = cosets._schreier_system

    def counted(sub):
        builds.append(sub)
        return build(sub)

    monkeypatch.setattr(cosets, "_schreier_system", counted)
    table = homology_cover(pres2, 2).subgroup.table
    sub, twin = Subgroup(pres2, table), Subgroup(pres2, table)
    for _ in range(3):
        for gen in schreier_generators(sub):
            rewrite_in_schreier_generators(sub, gen)
    assert len(builds) == 1 and builds[0] is sub
    rewrite_in_schreier_generators(twin, ())
    assert len(builds) == 2 and builds[1] is twin


def test_schreier_system_does_not_keep_its_subgroup_alive(pres2):
    sub = Subgroup(pres2, homology_cover(pres2, 2).subgroup.table)
    system, index = sub.schreier, sub.index
    ref = weakref.ref(sub)
    gc.disable()
    try:
        del sub
        assert ref() is None  # freed by refcount: no sub -> system -> sub cycle
    finally:
        gc.enable()
    assert len(system.generators) == index * 3 + 1


def test_factor_through(pres2, index_two_subgroups):
    a, b = index_two_subgroups[0], index_two_subgroups[1]
    inter = intersect(a, b)
    arrow = factor_through(inter, a)
    assert arrow is not None
    assert arrow.relative_degree == 2
    for coset in range(inter.index):
        for letter in (1, -2, 3):
            assert arrow.coset_map[inter.act_letter(coset, letter)] == a.act_letter(
                arrow.coset_map[coset], letter
            )
    assert factor_through(a, b) is None


def test_factor_through_takes_no_walk_when_the_indices_fix_the_answer(pres2, index_two_subgroups, monkeypatch):
    # Lagrange: a subgroup of alpha has index a multiple of alpha's, so a
    # pair whose indices do not divide is refused before any coset map.
    h2 = index_two_subgroups[0]
    h3 = next(s for s in low_index_subgroups(pres2, 3) if s.index == 3)
    mod2 = homology_cover(pres2, 2).subgroup

    def no_walk(*args):
        raise AssertionError("no coset map may be walked")

    monkeypatch.setattr(cosets, "_coset_map", no_walk)
    for beta, alpha in [(h3, h2), (h2, h3), (h2, mod2), (mod2, h3)]:
        assert beta.index % alpha.index
        assert factor_through(beta, alpha) is None
        assert not is_subgroup_of(beta, alpha)
    # Every subgroup lies in the whole group, over its one coset.
    full = full_subgroup(pres2)
    for beta in (full, h3, mod2):
        arrow = factor_through(beta, full)
        assert arrow.relative_degree == beta.index
        assert arrow.coset_map == (0,) * beta.index


def test_restrict_and_flatten_round_trip(index_two_subgroups):
    outer = index_two_subgroups[0]
    inner = intersect(outer, index_two_subgroups[3])
    relative = restrict_to_cover(factor_through(inner, outer))
    assert relative.index * outer.index == inner.index
    assert Subgroup(outer.pres, _flatten_rows(outer, relative.act_letter)) == inner


def _flattened(outer, relative):
    """The trusted flattening that ``char_core_within`` builds."""
    return Subgroup._trusted(outer.pres, _flatten_rows(outer, relative.act_letter))


@pytest.mark.trusted_path
def test_trusted_intersections_and_flattenings_pass_the_full_constructor(
    pres2, index_two_subgroups, mod4_cover
):
    # The vaut-laws inputs (the index-2 covers, their intersections and the
    # mod-4 cover), intersected and flattened through the trusted builder:
    # each result must already be what the full constructor makes of it.
    results = []
    swap = vaut_from_automorphism(handle_swap(pres2), mod4_cover)
    for i, a in enumerate(index_two_subgroups):
        results.append(intersect(a, mod4_cover))
        results.append(_flattened(a, restrict_to_cover(factor_through(mod4_cover, a))))
        results.append(preimage_subgroup(swap, a))
        for b in index_two_subgroups[i:]:
            inner = intersect(a, b)
            results.append(inner)
            results.append(_flattened(a, restrict_to_cover(factor_through(inner, a))))
    assert {sub.index for sub in results} == {2, 4, 256}
    for sub in results:
        full = Subgroup(pres2, sub.table)
        assert full == sub
        assert full.table is sub.table


def test_twisted_by_generators_is_identity(index_two_subgroups):
    sub = index_two_subgroups[0]
    words = tuple((j,) for j in range(1, 5))
    assert twisted_subgroup(sub, words) == sub


@pytest.mark.parametrize("bad", [0, 5, -5])
def test_letters_out_of_range_raise_instead_of_acting(index_two_subgroups, bad):
    # Letter 0 used to act as x4^-1, and 5 or -5 raised IndexError.
    sub = index_two_subgroups[1]
    message = f"letter {bad} out of range for 4 generators"
    with pytest.raises(ValueError, match=message):
        twisted_subgroup(sub, [(1,), (2,), (3,), (bad,)])
    with pytest.raises(ValueError, match=message):
        sub.act_word(0, (1, bad))
    with pytest.raises(ValueError, match=message):
        contains(sub, (bad,))
    with pytest.raises(ValueError, match=message):
        rewrite_in_schreier_generators(sub, (bad, -bad))


def test_constructions_validate_once(pres2, monkeypatch):
    # A loaded document, a twisted table and a relative table each go
    # through the Subgroup constructor once: validated and relabelled in
    # one pass, with no second canonical copy.
    cover = homology_cover(pres2, 8).subgroup
    assert cover.index == 4096
    doc = subgroup_doc(cover)
    mod2 = homology_cover(pres2, 2).subgroup
    swap = handle_swap(pres2)
    runs = []
    post_init = Subgroup.__post_init__

    def counted(self, *args):
        runs.append(self)
        post_init(self, *args)

    monkeypatch.setattr(Subgroup, "__post_init__", counted)
    assert subgroup_from_doc(doc) == cover
    assert len(runs) == 1
    runs.clear()
    assert twisted_subgroup(cover, swap.inverse_images) == cover
    assert len(runs) == 1
    runs.clear()
    assert restrict_to_cover(factor_through(cover, mod2)).index == 256
    assert len(runs) == 1


def test_make_subgroup_walks_the_orbit_once(pres2, monkeypatch):
    # make_subgroup is the constructor read by columns: one orbit walk and
    # one validation, here on the mod-2 cover's action with shuffled points.
    cover = homology_cover(pres2, 2).subgroup
    sigma = list(range(cover.index))
    random.Random(5).shuffle(sigma)
    perms = [[0] * cover.index for _ in range(4)]
    for c, row in enumerate(cover.table):
        for j, d in enumerate(row):
            perms[j][sigma[c]] = sigma[d]
    walks, runs = [], []
    orbit_rows, post_init = cosets._orbit_rows, Subgroup.__post_init__

    def counted_walk(*args, **kwargs):
        walks.append(args)
        return orbit_rows(*args, **kwargs)

    def counted_init(self, *args):
        runs.append(self)
        post_init(self, *args)

    monkeypatch.setattr(cosets, "_orbit_rows", counted_walk)
    monkeypatch.setattr(Subgroup, "__post_init__", counted_init)
    assert make_subgroup(pres2, perms, sigma[0]) == cover
    assert len(walks) == 1
    assert len(runs) == 1


def test_deck_group(pres2):
    cover = homology_cover(pres2, 2).subgroup
    deck = deck_group(cover)
    assert deck.order == 16
    assert deck.abelian
    assert deck.exponent == 2
    non_normal = next(
        s for s in low_index_subgroups(pres2, 3) if s.index == 3 and not is_normal(s)
    )
    with pytest.raises(NotNormal):
        deck_group(non_normal)


def _sym3_cover(pres2):
    """Kernel of a1 -> (0 1), a2 -> (0 1 2), b1, b2 -> id onto S3, as the
    stabilizer of the identity when S3 acts on itself by right products."""
    elements = list(permutations(range(3)))
    position = {p: i for i, p in enumerate(elements)}

    def right_product(g):
        return [position[tuple(g[x[i]] for i in range(3))] for x in elements]

    identity = (0, 1, 2)
    images = [(1, 0, 2), identity, (1, 2, 0), identity]
    return make_subgroup(pres2, [right_product(g) for g in images], position[identity])


def test_deck_group_matches_the_permutation_group_oracle(pres2):
    sym3 = _sym3_cover(pres2)
    assert deck_group_by_bfs(sym3.table) == (6, False, 6)
    covers = [homology_cover(pres2, n).subgroup for n in (2, 3, 4)]
    normal = [s for s in low_index_subgroups(pres2, 4) if is_normal(s)]
    assert len(normal) == 211
    for sub in [*covers, *normal, sym3]:
        deck = deck_group(sub)
        assert (deck.order, deck.abelian, deck.exponent) == deck_group_by_bfs(sub.table)
        assert deck.generators == tuple(zip(*sub.table))
