"""The diagonal form of a relator matrix and the abelian kernels built on it.

``words._diagonal_form`` is checked against sympy's Smith normal form, and
``chartower._abelian_kernel`` (homology covers, and cores at n <= 2) against
brute-force walks in ``coset_oracles`` that never call the package.
"""

import random
from math import gcd, prod

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from coset_oracles import abelian_kernel_table, mod_two_kernel_table, sym_kernel_intersection
from covertower import (
    DEFAULT_CONFIG,
    GenericPresentation,
    build_char_tower,
    free_reduce,
    low_index_subgroups,
    reidemeister_schreier,
)
from covertower import Subgroup, RelatorViolated, chartower
from covertower.chartower import _abelian_kernel, _kernel_core
from covertower.words import _diagonal_form


def _torsion_profile(d):
    """The order of H1 (x) Z/m for m = 1..12, from diagonal entries d."""
    return [prod(gcd(x, m) for x in d) for m in range(1, 13)]


def _smith_profile(rows, k):
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diagonal = [snf[i, i] for i in range(min(len(rows), k))]
    return _torsion_profile(diagonal + [0] * (k - len(diagonal)))


def _exponent_rows(relators, k):
    rows = [[0] * k for _ in relators]
    for row, r in zip(rows, relators):
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
    return rows


def _word_of_row(row):
    """Generator j taken row[j-1] times, inverted where that is negative."""
    return tuple(x for j, e in enumerate(row, 1) for x in [j if e > 0 else -j] * abs(e))


def _check_diagonal_form(rows, k):
    d, u = _diagonal_form([_word_of_row(row) for row in rows], k)
    assert len(d) == k and all(x >= 0 for x in d)
    assert _torsion_profile(d) == _smith_profile(rows, k)
    # u is unimodular, and each row of the matrix maps into the span of the
    # d_i e_i: x -> x u carries the relations onto the diagonal.
    assert abs(Matrix(u).det()) == 1
    image = Matrix(rows) * Matrix(u)
    for i in range(len(rows)):
        for j in range(k):
            assert image[i, j] == 0 if d[j] == 0 else image[i, j] % d[j] == 0


def test_diagonal_form_matches_smith_on_random_matrices():
    rng = random.Random(17)
    for _ in range(150):
        r, k = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [rng.randint(-12, 12) if rng.random() < 0.7 else 0 for _ in range(k)]
            for _ in range(r)
        ]
        _check_diagonal_form(rows, k)


def test_diagonal_form_of_no_relators_is_free():
    d, u = _diagonal_form([], 3)
    assert d == [0, 0, 0]
    assert u == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_diagonal_form_matches_smith_on_the_ledger_covers(pres2, ledger_tower_steps):
    tower = build_char_tower(pres2, ledger_tower_steps)
    for name, index in (("n1", 16), ("n2", 81)):
        sub = tower.node(name).char.subgroup
        assert sub.index == index
        pres = reidemeister_schreier(sub)
        k = pres.generator_count
        rows = _exponent_rows(pres.relators, k)
        d, _ = _diagonal_form(pres.relators, k)
        assert _torsion_profile(d) == _smith_profile(rows, k)
        # A closed surface cover of genus G abelianizes to Z^(2G).
        assert d.count(0) == 2 * (index + 1) and set(d) <= {0, 1}


def _random_presentation(rng):
    k = rng.randint(1, 3)
    relators = []
    for _ in range(rng.randint(0, 3)):
        word = free_reduce(rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(1, 8)))
        if word:
            relators.append(word)
    return GenericPresentation(k, tuple(relators))


def test_abelian_kernel_matches_the_brute_force_walk():
    rng = random.Random(23)
    for _ in range(60):
        pres = _random_presentation(rng)
        for n in range(1, 7):
            if n**pres.generator_count > 216:
                continue
            index, kernel = _abelian_kernel(pres, n, 10_000)
            expected = abelian_kernel_table(pres.generator_count, pres.relators, n)
            assert kernel.table == expected
            assert index == len(expected)


@pytest.mark.trusted_path
def test_abelian_kernel_is_one_walk(pres2, monkeypatch):
    # The orbit's rows come out canonical and transitive, so the kernel is
    # one walk, with no constructor to walk them again.
    walks, runs = [], []
    orbit_rows, post_init = chartower._orbit_rows, Subgroup.__post_init__

    def counted_walk(*args, **kwargs):
        walks.append(args)
        return orbit_rows(*args, **kwargs)

    def counted_init(self, *args):
        runs.append(self)
        post_init(self, *args)

    monkeypatch.setattr(chartower, "_orbit_rows", counted_walk)
    monkeypatch.setattr(Subgroup, "__post_init__", counted_init)
    index, kernel = _abelian_kernel(pres2, 4, 10_000)
    assert index == kernel.index == 256
    assert len(walks) == 1 and not runs
    assert Subgroup(pres2, kernel.table).table == kernel.table


@pytest.mark.trusted_path
def test_abelian_kernel_checks_its_diagonal_form(monkeypatch):
    # The relators are still checked on the walked rows: a diagonal form
    # that misses the torsion of Z/3 gives an action of Z/6 that x^3 moves.
    z3 = GenericPresentation(1, ((1, 1, 1),))
    assert _abelian_kernel(z3, 6, 100)[0] == 3
    monkeypatch.setattr(chartower, "_diagonal_form", lambda relators, k: ([0], [[1]]))
    with pytest.raises(RelatorViolated, match="^relator moves coset 0 to "):
        _abelian_kernel(z3, 6, 100)


def test_abelian_kernel_over_the_cap_is_only_counted():
    z2 = GenericPresentation(2, ((1, 2, -1, -2),))
    assert _abelian_kernel(z2, 12, 143) == (144, None)
    index, kernel = _abelian_kernel(z2, 12, 144)
    assert index == kernel.index == 144


def test_mod_two_core_of_each_relative_presentation_matches_the_f2_walk(pres2):
    # The relative presentation of every subgroup of index <= 3: the core at
    # n = 2 is the F2 walk's table, and on the first few, where Sym(2)^k is
    # small enough to list, the brute-force intersection of the kernels to
    # Sym(2).
    for i, sub in enumerate(low_index_subgroups(pres2, 3)):
        pres = reidemeister_schreier(sub)
        k = pres.generator_count
        core = _kernel_core(pres, 2, DEFAULT_CONFIG)
        assert core.table == mod_two_kernel_table(k, pres.relators)
        assert core.index == 2 ** (2 * (sub.index + 1))
        if i < 4:
            assert core.table == sym_kernel_intersection(k, pres.relators, 2)
