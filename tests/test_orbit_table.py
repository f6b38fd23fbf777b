"""Reference checks for the shared orbit primitive of ``cosets``.

Each helper below is the construction as it was written before every table
went through ``cosets._orbit_rows``: a hand-written BFS that labels states
and then rebuilds the table from the labels.  The helpers work on raw
``(rows, basepoint)`` tables and never call the code under test (the
``Subgroup`` constructor canonicalizes whatever it is given), so agreement
is an independent check of the canonical order and of the tables
themselves.
"""

import math
import random
from collections import deque

import pytest

from coset_oracles import (
    alphabet,
    bfs_canonical,
    homology_table,
    inverse_rows,
    schreier_edge_ids,
    walk,
)
from covertower import (
    IntersectionIndexOverflow,
    NotTransitive,
    RelatorViolated,
    Subgroup,
    SurfacePresentation,
    conjugate_subgroup,
    factor_through,
    free_reduce,
    homology_cover,
    intersect,
    low_index_subgroups,
    make_subgroup,
    restrict_to_cover,
)
from covertower.cosets import _flatten_rows


def _old_conjugate_table(rows, basepoint, w):
    inverse_w = tuple(-x for x in reversed(w))
    return bfs_canonical(rows, walk(rows, inverse_rows(rows), basepoint, inverse_w))


def _old_intersect_table(a, b, max_index=None):
    (rows_a, base_a), (rows_b, base_b) = a, b
    inv_a, inv_b = inverse_rows(rows_a), inverse_rows(rows_b)
    k = len(rows_a[0])
    small, large = sorted((len(rows_a), len(rows_b)))
    inputs = f"intersection of subgroups of index {small} and {large}"
    # The intersection lies in each input, so its index is at least theirs.
    if max_index is not None and large > max_index:
        raise IntersectionIndexOverflow(
            f"{inputs} has index at least {large}, above index cap {max_index}"
        )
    start = (base_a, base_b)
    label = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        ca, cb = queue.popleft()
        for letter in alphabet(k):
            pair = (
                walk(rows_a, inv_a, ca, (letter,)),
                walk(rows_b, inv_b, cb, (letter,)),
            )
            if pair not in label:
                if max_index is not None and len(order) >= max_index:
                    raise IntersectionIndexOverflow(
                        f"{inputs} has index a multiple of {math.lcm(small, large)} "
                        f"and at most {small * large}, above index cap {max_index}"
                    )
                label[pair] = len(order)
                order.append(pair)
                queue.append(pair)
    return tuple(
        tuple(label[(rows_a[ca][j], rows_b[cb][j])] for j in range(k))
        for ca, cb in order
    )


def _violates_a_relator(pres, rows):
    inv = inverse_rows(rows)
    return any(
        walk(rows, inv, c, r) != c for r in pres.relators for c in range(len(rows))
    )


def _old_make_subgroup_table(pres, perms, basepoint):
    """Validate the whole action first (transitivity, then relators)."""
    k = pres.generator_count
    if len(perms) != k:
        raise ValueError(f"need {k} permutations, got {len(perms)}")
    if not perms[0]:
        raise ValueError("empty permutation")
    n = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(n)):
            raise ValueError("not a permutation of 0..n-1")
    if not (0 <= basepoint < n):
        raise ValueError("basepoint out of range")
    table = tuple(tuple(perms[j][c] for j in range(k)) for c in range(n))
    canonical = bfs_canonical(table, basepoint)
    if len(canonical) != n:
        raise NotTransitive(
            f"only {len(canonical)} of {n} cosets reachable from basepoint"
        )
    if _violates_a_relator(pres, table):
        raise RelatorViolated("a relator moves a coset")
    return canonical


def _old_orbit_violates_a_relator(pres, perms, basepoint):
    """The removed ``restrict_to_orbit`` path: cut the action to the orbit."""
    k = pres.generator_count
    n = len(perms[0])
    inv = [[0] * n for _ in range(k)]
    for j in range(k):
        for c in range(n):
            inv[j][perms[j][c]] = c
    seen = {basepoint}
    queue = deque([basepoint])
    while queue:
        c = queue.popleft()
        for j in range(k):
            for d in (perms[j][c], inv[j][c]):
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
    points = sorted(seen)
    relabel = {p: i for i, p in enumerate(points)}
    table = tuple(tuple(relabel[perms[j][p]] for j in range(k)) for p in points)
    return _violates_a_relator(pres, table)


def _random_word(rng, k, max_len):
    return free_reduce(
        rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(0, max_len))
    )


@pytest.fixture(scope="module")
def index_le_three(pres2):
    return low_index_subgroups(pres2, 3)


def test_canonicalize_and_conjugate_match_the_bfs_reference(pres2, index_le_three):
    rng = random.Random(41)
    assert len(index_le_three) == 236
    for sub in index_le_three:
        base = rng.randrange(sub.index)
        moved = Subgroup(pres2, sub.table, base)
        assert moved.table == bfs_canonical(sub.table, base)
        w = _random_word(rng, 4, 10)
        conj = conjugate_subgroup(moved, w)
        assert conj.table == _old_conjugate_table(sub.table, base, w)


def test_signed_columns_match_the_raw_walk(index_le_three, mod4_cover):
    # Every letter of ±1..±4 has its column, and no other key is there, so
    # letter 0 or 5 cannot read a column of another letter.
    for sub in (*index_le_three, mod4_cover):
        rows, cosets = sub.table, range(sub.index)
        inv, ids = inverse_rows(rows), schreier_edge_ids(rows)
        system = sub.schreier
        assert list(sub.moves) == list(system.edges) == list(alphabet(4))
        for x in alphabet(4):
            assert sub.moves[x] == tuple(walk(rows, inv, c, (x,)) for c in cosets)
        for j in range(1, 5):
            assert system.edges[j] == tuple(ids[c][j - 1] for c in cosets)
            assert system.edges[-j] == tuple(-ids[inv[c][j - 1]][j - 1] for c in cosets)


def test_intersect_matches_the_bfs_reference(pres2, index_le_three):
    rng = random.Random(43)
    overflows = 0
    for _ in range(200):
        raw = [
            (s.table, rng.randrange(s.index)) for s in rng.sample(index_le_three, 2)
        ]
        a, b = (Subgroup(pres2, rows, base) for rows, base in raw)
        assert intersect(a, b).table == _old_intersect_table(*raw)
        cap = rng.randint(1, 9)
        try:
            expected = _old_intersect_table(*raw, cap)
        except IntersectionIndexOverflow as exc:
            overflows += 1
            with pytest.raises(IntersectionIndexOverflow) as excinfo:
                intersect(a, b, cap)
            assert str(excinfo.value) == str(exc)
        else:
            assert intersect(a, b, cap).table == expected
    assert 0 < overflows < 200


def test_flattened_tables_are_canonical(pres2, index_two_subgroups, index_le_three):
    # Round-tripping through a relative table must give the BFS-canonical
    # table of the original subgroup.
    rng = random.Random(44)
    for outer in index_two_subgroups:
        for other in rng.sample(index_le_three, 8):
            inner = intersect(outer, other)
            relative = restrict_to_cover(factor_through(inner, outer))
            flat = _flatten_rows(outer, relative.act_letter)
            assert flat == bfs_canonical(inner.table, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_homology_cover_matches_the_integer_rows(pres2, n):
    sub = homology_cover(pres2, n).subgroup
    assert sub.index == n**4
    assert sub.table == homology_table(4, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_genus_three_homology_cover_matches_the_integer_rows(n):
    sub = homology_cover(SurfacePresentation(3), n).subgroup
    assert sub.index == n**6
    assert sub.table == homology_table(6, n)


def _conjugated_action(sub, rng):
    """The action on the cosets of ``sub``, with the points shuffled."""
    sigma = list(range(sub.index))
    rng.shuffle(sigma)
    perms = [[0] * sub.index for _ in range(sub.pres.generator_count)]
    for c, row in enumerate(sub.table):
        for j, d in enumerate(row):
            perms[j][sigma[c]] = sigma[d]
    return perms, sigma[0]


def _random_perms(rng, k, n):
    perms = []
    for _ in range(k):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(p)
    return perms


def test_make_subgroup_matches_the_reference(pres2, index_le_three):
    rng = random.Random(47)
    cases = []
    for sub in rng.sample(index_le_three, 40):
        perms, base = _conjugated_action(sub, rng)
        cases.append((perms, base))
        # Disjoint union with a second action: intransitive.
        other, _ = _conjugated_action(rng.choice(index_le_three), rng)
        m = len(perms[0])
        union = [p + [x + m for x in q] for p, q in zip(perms, other)]
        cases.append((union, base))
    for _ in range(200):
        n = rng.randint(1, 4)
        perms = _random_perms(rng, 4, n)
        cases.append((perms, rng.randrange(n)))
        # The same action plus a fixed point the basepoint cannot reach.
        cases.append(([p + [n] for p in perms], rng.randrange(n)))
    cases.append(([[0, 0], [0, 1], [0, 1], [0, 1]], 0))
    cases.append(([[0, 1]] * 4, 2))
    outcomes = set()
    for perms, base in cases:
        try:
            expected = _old_make_subgroup_table(pres2, perms, base)
        except (ValueError, NotTransitive, RelatorViolated) as exc:
            with pytest.raises(type(exc)) as excinfo:
                make_subgroup(pres2, perms, base)
            assert type(excinfo.value) is type(exc)
            outcomes.add(type(exc).__name__)
            if isinstance(exc, NotTransitive) and _old_orbit_violates_a_relator(
                pres2, perms, base
            ):
                # The whole action is checked for transitivity before any
                # relator, so a relator broken on the orbit does not mask
                # the missing points.
                outcomes.add("NotTransitive, relator broken on the orbit")
            if not isinstance(exc, RelatorViolated):
                assert str(excinfo.value) == str(exc)
        else:
            sub = make_subgroup(pres2, perms, base)
            outcomes.add("ok")
            assert sub.table == expected
    assert outcomes == {
        "ok",
        "ValueError",
        "NotTransitive",
        "RelatorViolated",
        "NotTransitive, relator broken on the orbit",
    }
