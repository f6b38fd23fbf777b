import gc
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from coset_oracles import bfs_canonical, transitive_tables
from covertower import (
    BudgetExceeded,
    GenericPresentation,
    RunConfig,
    Subgroup,
    SurfacePresentation,
    is_normal,
    low_index_subgroups,
)


def _counts(subs):
    return Counter(s.index for s in subs)


def _partitions(n, cap=None):
    if n == 0:
        yield ()
    for first in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _character_degree(shape):
    """Hook length formula for the irreducible character of S_n at ``shape``."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = prod(r - j + cols[j] - i - 1 for i, r in enumerate(shape) for j in range(r))
    return factorial(sum(shape)) // hooks


def _hom_count(genus, n):
    """Frobenius-Mednykh: |Hom(pi_1 Sigma_g, S_n)| = (n!)^(2g-1) sum chi(1)^(2-2g)."""
    total = sum(Fraction(1, _character_degree(p) ** (2 * genus - 2)) for p in _partitions(n))
    return int(factorial(n) ** (2 * genus - 1) * total)


def oracle_subgroup_counts(genus, max_index):
    """Subgroups of each index <= max_index, by Hall's recurrence over hom counts."""
    homs = [1] + [_hom_count(genus, n) for n in range(1, max_index + 1)]
    transitive = [0] * (max_index + 1)
    for n in range(1, max_index + 1):
        transitive[n] = homs[n] - sum(
            comb(n - 1, k - 1) * transitive[k] * homs[n - k] for k in range(1, n)
        )
    return {n: transitive[n] // factorial(n - 1) for n in range(1, max_index + 1)}


def test_count_oracle_known_values():
    assert [_hom_count(2, n) for n in (3, 4)] == [486, 34_176]
    assert oracle_subgroup_counts(2, 4) == {1: 1, 2: 15, 3: 220, 4: 5_275}
    assert oracle_subgroup_counts(3, 3) == {1: 1, 2: 63, 3: 7_924}


def _enumerate_at_exact_budget(pres, max_index, nodes):
    """Enumerate within exactly ``nodes`` search nodes; one fewer must not do."""
    with pytest.raises(BudgetExceeded):
        low_index_subgroups(pres, max_index, RunConfig(max_search_nodes=nodes - 1))
    return low_index_subgroups(pres, max_index, RunConfig(max_search_nodes=nodes))


# The node counts pin the search tree: the branching order and the pruning.
def test_counts_genus_two(pres2):
    subs = _enumerate_at_exact_budget(pres2, 4, 142_344)
    assert _counts(subs) == oracle_subgroup_counts(2, 4)


@pytest.mark.parametrize(
    "pres, max_index, nodes",
    [
        (SurfacePresentation(2), 2, 88),
        (SurfacePresentation(2), 3, 3_443),
        # The one-letter relator closes a cycle at every coset, before any
        # of its cells is defined; Z/4 has three subgroups.
        (GenericPresentation(2, ((2,), (1, 1, 1, 1))), 4, 9),
    ],
)
def test_search_node_counts(pres, max_index, nodes):
    subs = _enumerate_at_exact_budget(pres, max_index, nodes)
    want = transitive_tables(pres.generator_count, pres.relators, max_index)
    assert [s.table for s in subs] == want


def test_index_two_matches_sign_assignments(pres2):
    # Index <= 2 subgroups correspond to nonzero homomorphisms onto Z/2:
    # the single relator is a product of commutators, so every sign
    # assignment on the four generators is a homomorphism.
    assignments = [a for a in product((0, 1), repeat=4) if any(a)]
    assert len(assignments) == 15
    subs = low_index_subgroups(pres2, 2)
    assert len(subs) == 1 + len(assignments)


def test_counts_genus_three():
    subs = _enumerate_at_exact_budget(SurfacePresentation(3), 3, 194_250)
    assert _counts(subs) == oracle_subgroup_counts(3, 3)


@pytest.mark.parametrize(
    "pres, max_index",
    [
        (SurfacePresentation(3), 2),
        # Repeated letters: cyclic conjugates that coincide (A4 as the
        # (2,3,3) triangle group, Z/6) or that share a first letter
        # (Baumslag-Solitar BS(1, 2), a^-1 b a = b^2), and a one-letter
        # relator (Z/2).
        (GenericPresentation(2, ((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2))), 5),
        (GenericPresentation(2, ((1, 1, 1), (2, 2), (-1, -2, 1, 2))), 5),
        (GenericPresentation(2, ((-1, 2, 1, -2, -2),)), 5),
        (GenericPresentation(2, ((1,), (2, 2))), 5),
    ],
)
def test_tables_match_brute_force_oracle(pres, max_index):
    want = transitive_tables(pres.generator_count, pres.relators, max_index)
    assert [s.table for s in low_index_subgroups(pres, max_index)] == want


def test_emitted_tables_are_canonical_and_unique(pres2):
    subs = low_index_subgroups(pres2, 3)
    seen = set()
    for sub in subs:
        assert sub.index <= 3
        assert sub.pres == pres2
        assert sub.table == bfs_canonical(sub.table, 0)
        assert sub.table not in seen
        seen.add(sub.table)


@pytest.mark.trusted_path
@pytest.mark.parametrize("genus, max_index", [(2, 3), (3, 2)])
def test_trusted_tables_pass_the_full_constructor(genus, max_index):
    # The search builds its tables unchecked; each must already be what the
    # full constructor makes of it: valid, transitive and canonical.
    pres = SurfacePresentation(genus)
    subs = low_index_subgroups(pres, max_index)
    assert subs
    for sub in subs:
        full = Subgroup(pres, sub.table)
        assert full == sub
        assert full.table is sub.table


@pytest.mark.trusted_path
@pytest.mark.parametrize("genus, max_index, distinct", [(2, 4, 256), (3, 3, 729)])
def test_tables_share_their_rows(genus, max_index, distinct):
    # One search holds each distinct row once: 21,791 and 23,899 row
    # objects when every table builds its own.
    subs = low_index_subgroups(SurfacePresentation(genus), max_index)
    rows = [row for sub in subs for row in sub.table]
    assert len(set(rows)) == distinct
    assert len({id(row) for row in rows}) == distinct


def _held_bytes(build):
    """Bytes allocated by ``build()`` and still held by its result."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return held, result


@pytest.mark.trusted_path
def test_shared_rows_hold_less_than_fresh_rows(pres2):
    # The copy, built the same way but with a new tuple per row, calibrates
    # the bound on each Python: shared rows hold 0.38 of it on Python 3.11,
    # a tuple per row 1.0.
    held, subs = _held_bytes(lambda: low_index_subgroups(pres2, 4))
    fresh, _ = _held_bytes(
        lambda: [
            Subgroup._trusted(pres2, tuple(tuple(list(row)) for row in sub.table))
            for sub in subs
        ]
    )
    assert held <= 0.65 * fresh, (held, fresh)


def test_enumeration_is_deterministic(pres2):
    first = low_index_subgroups(pres2, 3)
    second = low_index_subgroups(pres2, 3)
    assert [s.table for s in first] == [s.table for s in second]


def test_every_index_two_subgroup_is_normal(pres2):
    for sub in low_index_subgroups(pres2, 2):
        assert is_normal(sub)


def test_index_three_normal_count(pres2):
    normal = [s for s in low_index_subgroups(pres2, 3) if s.index == 3 and is_normal(s)]
    assert len(normal) == 40


def test_node_budget(pres2):
    config = RunConfig(max_search_nodes=10)
    with pytest.raises(BudgetExceeded) as err:
        low_index_subgroups(pres2, 3, config)
    assert str(err.value) == (
        "enumeration exceeded 10 nodes "
        "(visited 10, subgroups found 1, largest index reached 2)"
    )
