import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from covertower import (
    NotNormal,
    NotTransitive,
    RelatorViolated,
    Subgroup,
    SurfacePresentation,
    canonicalize,
    conjugate_subgroup,
    conjugate_word,
    contains,
    covering_genus,
    deck_group,
    factor_through,
    flatten_cover_subgroup,
    free_reduce,
    full_subgroup,
    homology_cover,
    intersect,
    is_identity,
    is_normal,
    is_subgroup_of,
    low_index_subgroups,
    make_subgroup,
    reidemeister_schreier,
    restrict_to_cover,
    rewrite_in_schreier_generators,
    schreier_generators,
    substitute,
    twisted_subgroup,
)
from covertower.cosets import schreier_system


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


def test_canonicalize_idempotent(pres2):
    for sub in low_index_subgroups(pres2, 3):
        again = canonicalize(sub)
        assert again == canonicalize(again)


def test_equality_ignores_the_canonical_flag(pres2):
    table = homology_cover(pres2, 3).subgroup.table
    plain = Subgroup(pres2, table, 0, False)
    flagged = Subgroup(pres2, table, 0, True)
    assert plain == flagged
    assert hash(plain) == hash(flagged)
    assert len({plain, flagged}) == 1


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
    system = schreier_system(canonicalize(sub))
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
            assert contains(sub, w) == (sub.act_word(sub.basepoint, w) == sub.basepoint)


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
        assert canonicalize(conjugate_subgroup(sub, (1,))) == canonicalize(sub)
    non_normal = [
        s for s in low_index_subgroups(pres2, 3) if s.index == 3 and not is_normal(s)
    ]
    assert non_normal
    sub = non_normal[0]
    assert any(
        canonicalize(conjugate_subgroup(sub, (j,))) != canonicalize(sub)
        for j in range(1, 5)
    )


def test_intersection_properties(pres2, index_two_subgroups):
    a, b = index_two_subgroups[0], index_two_subgroups[1]
    inter = intersect(a, b)
    assert inter.index == 4
    assert is_subgroup_of(inter, a)
    assert is_subgroup_of(inter, b)
    assert canonicalize(intersect(b, a)) == canonicalize(inter)
    assert canonicalize(intersect(a, a)) == canonicalize(a)
    c = index_two_subgroups[2]
    left = intersect(intersect(a, b), c)
    right = intersect(a, intersect(b, c))
    assert canonicalize(left) == canonicalize(right)


def test_intersection_table_is_built_canonical(pres2):
    # intersect returns its BFS table as-is, so that table must already be
    # what canonicalize makes of it, whatever the inputs' basepoints.
    rng = random.Random(23)
    pool = low_index_subgroups(pres2, 3)
    for _ in range(300):
        a, b = (
            Subgroup(pres2, s.table, rng.randrange(s.index))
            for s in rng.sample(pool, 2)
        )
        inter = intersect(a, b)
        assert inter.basepoint == 0
        assert inter.table == canonicalize(Subgroup(pres2, inter.table, 0)).table


def test_rewrite_in_schreier_generators(pres2, index_two_subgroups):
    rng = random.Random(29)
    sub = intersect(index_two_subgroups[0], index_two_subgroups[1])
    system = schreier_system(sub)
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


def test_factor_through(pres2, index_two_subgroups):
    a, b = index_two_subgroups[0], index_two_subgroups[1]
    inter = intersect(a, b)
    arrow = factor_through(inter, a)
    assert arrow is not None
    assert arrow.relative_degree == 2
    sub = canonicalize(inter)
    sup = canonicalize(a)
    for coset in range(sub.index):
        for letter in (1, -2, 3):
            assert arrow.coset_map[sub.act_letter(coset, letter)] == sup.act_letter(
                arrow.coset_map[coset], letter
            )
    assert factor_through(a, b) is None


def test_restrict_and_flatten_round_trip(index_two_subgroups):
    outer = index_two_subgroups[0]
    inner = intersect(outer, index_two_subgroups[3])
    relative = restrict_to_cover(inner, outer)
    assert relative.index * outer.index == inner.index
    assert canonicalize(flatten_cover_subgroup(outer, relative)) == canonicalize(inner)


def test_twisted_by_generators_is_identity(index_two_subgroups):
    sub = canonicalize(index_two_subgroups[0])
    words = tuple((j,) for j in range(1, 5))
    assert canonicalize(twisted_subgroup(sub, words)) == sub


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
