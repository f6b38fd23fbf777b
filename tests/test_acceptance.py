"""Acceptance runs: one test per advertised guarantee.

Each test prints a single PASS/FAIL line with its wall-clock time (visible
under ``pytest -s``) and fails if it blows its time budget.  Oracles here
are deliberately primitive re-derivations that bypass the library code
they check.
"""

import cmath
import hashlib
import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from covertower import (
    SurfacePresentation,
    act,
    apply_automorphism,
    build_char_tower,
    builtin_test_automorphisms,
    char_core,
    compose,
    compose_mobius,
    contains,
    cycle_from_subgroups,
    deck_group,
    dense_orbit_approx,
    free_reduce,
    from_two_arrow,
    full_subgroup,
    germ_equals,
    handle_swap,
    homology_cover,
    i_point,
    identity_vaut,
    inner_automorphism,
    intersect,
    inverse,
    is_normal,
    low_index_subgroups,
    mobius_from_integer_matrix,
    mumford_exponent,
    pullback_exponent,
    reduce_cycle,
    serre_dual,
    twisted_subgroup,
    universal_bundle,
    universal_mumford_check,
    vaut_from_automorphism,
    wp_coherence,
    wp_limit_scale,
    UpperHalfPoint,
)
from covertower.cli import main as cli_main
from covertower.cosets import Subgroup


@contextmanager
def _criterion(name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed <= limit_seconds else "FAIL"
    print(f"{verdict} {name} ({elapsed:.2f}s, limit {limit_seconds}s)")
    assert elapsed <= limit_seconds, f"{name} took {elapsed:.2f}s"


def test_exponent_formula_sweep():
    with _criterion("bundle exponent formula on [-100, 100]", 1):
        assert mumford_exponent(2) == 13
        for m in range(-100, 101):
            e = mumford_exponent(m)
            assert e == 6 * m * m - 6 * m + 1
            assert e >= 1 and e % 2 == 1


def test_serre_duality_sweep():
    with _criterion("Serre duality of exponents on [-100, 100]", 1):
        for m in range(-100, 101):
            assert serre_dual(m) == 1 - m
            assert mumford_exponent(serre_dual(m)) == mumford_exponent(m)
            assert serre_dual(serre_dual(m)) == m


def test_mod_two_homology_cover_structure(pres2):
    with _criterion("mod-2 homology cover of the genus-2 surface", 1):
        cover = homology_cover(pres2, 2)
        assert cover.subgroup.index == 16
        assert is_normal(cover.subgroup)
        deck = deck_group(cover.subgroup)
        assert deck.order == 16
        assert deck.abelian
        assert deck.exponent == 2
        for i in range(1, 5):
            for j in range(1, 5):
                assert contains(cover.subgroup, (i, j, -i, -j))


def _sign_kernel_intersection_table():
    # Product orbit of all 16 sign characters of the four generators,
    # built with bare integer arithmetic: the table of the intersection
    # of all kernels of maps onto a two-element group.
    assignments = [tuple((eps >> j) & 1 for j in range(4)) for eps in range(16)]
    start = (0,) * 16
    numbering = {start: 0}
    order = [start]
    queue = [start]
    while queue:
        state = queue.pop(0)
        for j in range(4):
            nxt = tuple(
                (state[i] + assignments[i][j]) % 2 for i in range(16)
            )
            if nxt not in numbering:
                numbering[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    rows = []
    for state in order:
        row = []
        for j in range(4):
            row.append(
                numbering[
                    tuple((state[i] + assignments[i][j]) % 2 for i in range(16))
                ]
            )
        rows.append(tuple(row))
    return tuple(rows)


def test_char_cores_match_kernel_intersection_oracle(pres2, index_two_subgroups):
    with _criterion("characteristic cores of all index-2 covers", 10):
        oracle = Subgroup(pres2, _sign_kernel_intersection_table())
        assert oracle.index == 16
        assert len(index_two_subgroups) == 15
        for sub in index_two_subgroups:
            core = char_core(sub)
            assert core.subgroup == oracle
        assert homology_cover(pres2, 2).subgroup == oracle


def _transitive_sym3_hom_count():
    perms = list(itertools.permutations(range(3)))
    identity = (0, 1, 2)

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inv(p):
        out = [0, 0, 0]
        for i in range(3):
            out[p[i]] = i
        return tuple(out)

    def comm(p, q):
        return mul(mul(p, q), mul(inv(p), inv(q)))

    count = 0
    for a, b, c, d in itertools.product(perms, repeat=4):
        if mul(comm(a, b), comm(c, d)) != identity:
            continue
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for p in (a, b, c, d):
                y = p[x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) == 3:
            count += 1
    return count


def test_enumeration_counts_match_runtime_oracles(pres2):
    with _criterion("subgroup counts at index 2 and 3", 60):
        subs = low_index_subgroups(pres2, 3)
        by_index = {}
        for s in subs:
            by_index[s.index] = by_index.get(s.index, 0) + 1
        # Index <= 2: one sign character per nontrivial kernel.
        assert by_index[1] == 1
        assert by_index[2] == 2 ** 4 - 1
        # Index 3: each cover corresponds to two pointed transitive
        # actions on three symbols, so halve the homomorphism count.
        hom_count = _transitive_sym3_hom_count()
        assert hom_count % 2 == 0
        assert by_index[3] == hom_count // 2


def test_intersection_membership_and_divisibility(pres2):
    with _criterion("intersections against word membership", 30):
        rng = random.Random(2024)
        pool = low_index_subgroups(pres2, 3)
        checked_words = 0
        pairs = 0
        while pairs < 22:
            a, b = rng.sample(pool, 2)
            c = intersect(a, b)
            assert c.index % a.index == 0
            assert c.index % b.index == 0
            for _ in range(50):
                w = free_reduce(
                    rng.choice([1, -1]) * rng.randint(1, 4)
                    for _ in range(rng.randint(1, 20))
                )
                assert contains(c, w) == (contains(a, w) and contains(b, w))
                checked_words += 1
            pairs += 1
        assert checked_words >= 1000


def test_cycle_reductions_are_order_independent(pres2, index_two_subgroups):
    with _criterion("four-arrow cycle reductions in both orders", 60):
        rng = random.Random(7)
        root = full_subgroup(pres2)
        done = 0
        seen_pairs = set()
        while done < 10:
            a, b = rng.sample(index_two_subgroups, 2)
            key = (a.table, b.table)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            c = intersect(a, b)
            if c.index > 4:
                continue
            path = cycle_from_subgroups([root, a, c, b, root])
            left = from_two_arrow(reduce_cycle(path, order="left"))
            right = from_two_arrow(reduce_cycle(path, order="right"))
            assert germ_equals(left, right)
            done += 1


def test_vaut_group_laws(pres2, index_two_subgroups):
    with _criterion("virtual automorphism group laws", 30):
        h1 = index_two_subgroups[0]
        a = vaut_from_automorphism(handle_swap(pres2), h1)
        b = vaut_from_automorphism(inner_automorphism(pres2, (1,)), a.codomain)
        c = vaut_from_automorphism(inner_automorphism(pres2, (3,)), b.codomain)
        # Identity laws.
        assert germ_equals(compose(identity_vaut(h1), a), a)
        assert germ_equals(compose(a, identity_vaut(a.codomain)), a)
        # Inverse law.
        assert germ_equals(compose(a, inverse(a)), identity_vaut(h1))
        assert germ_equals(compose(inverse(a), a), identity_vaut(a.codomain))
        # Associativity on a concrete triple.
        assert germ_equals(
            compose(compose(a, b), c), compose(a, compose(b, c))
        )


def test_torus_action_homomorphism_and_dense_orbit():
    with _criterion("torus model: 1e5 action checks plus dense orbits", 30):
        rng = random.Random(99)
        mats = []
        while len(mats) < 60:
            raw = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            if raw[0][0] * raw[1][1] - raw[0][1] * raw[1][0] > 0:
                mats.append(mobius_from_integer_matrix(raw))

        for _ in range(80_000):
            m, n = rng.choice(mats), rng.choice(mats)
            tau = UpperHalfPoint(rng.uniform(-5, 5), rng.uniform(0.1, 5.0))
            lhs = act(compose_mobius(m, n), tau)
            rhs = act(m, act(n, tau))
            assert cmath.isclose(
                lhs.as_complex(),
                rhs.as_complex(),
                rel_tol=1e-12,
                abs_tol=1e-12,
            )

        for _ in range(20_000):
            m, n = rng.choice(mats), rng.choice(mats)
            tau = UpperHalfPoint(
                Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                Fraction(rng.randint(1, 30), rng.randint(1, 9)),
            )
            lhs = act(compose_mobius(m, n), tau)
            rhs = act(m, act(n, tau))
            assert lhs.real == rhs.real and lhs.imag == rhs.imag

        exact = act(mobius_from_integer_matrix([[2, 1], [0, 1]]), i_point())
        assert exact.real == Fraction(1) and exact.imag == Fraction(2)

        for _ in range(100):
            target = UpperHalfPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5.0))
            m = dense_orbit_approx(i_point(), target, 1e-6)
            image = act(m, i_point())
            assert abs(image.as_complex() - target.as_complex()) < 1e-6


def test_bundle_exponents_and_mumford_compatibility(pres2):
    with _criterion("rational exponent ledger on a degree-16 tower", 5):
        tower = build_char_tower(pres2, [{"kind": "homology", "n": 2}])
        bundle = universal_bundle(2, tower)
        exponents = {
            label.degree_over_base: cls.exponent
            for label, cls in bundle.assignment.items()
        }
        assert exponents == {1: Fraction(13), 16: Fraction(13, 16)}
        assert pullback_exponent(exponents[16], 16) == exponents[1]
        for m in range(-10, 11):
            assert universal_mumford_check(m, tower)
        assert wp_coherence(tower)
        genus_of = {node.degree: node.genus for node in tower.nodes}
        for edge in tower.edges:
            sub_genus = genus_of[tower.node(edge.sub).degree]
            super_genus = genus_of[tower.node(edge.super).degree]
            assert (
                wp_limit_scale(sub_genus) * edge.relative_degree
                == wp_limit_scale(super_genus)
            )


def test_constructions_ignore_marking_choices(pres2, index_two_subgroups):
    with _criterion("cores and homology covers under remarkings", 30):
        cover = homology_cover(pres2, 2).subgroup
        auts = [
            inner_automorphism(pres2, (1,)),
            inner_automorphism(pres2, (2, 3)),
            handle_swap(pres2),
        ]
        for phi in auts:
            images = tuple(
                apply_automorphism(phi, (j,)) for j in range(1, 5)
            )
            assert twisted_subgroup(cover, images) == cover
            for sub in index_two_subgroups[:5]:
                moved = twisted_subgroup(sub, images)
                assert char_core(moved).subgroup == cover
                assert char_core(sub).subgroup == cover


def _run_cli_pipeline(workspace, capsys):
    transcript = []
    steps = [
        ["enumerate", "--genus", "2", "--max-index", "2"],
        ["char", "homology", "--genus", "2", "--n", "2"],
        ["tower", "build", "--genus", "2", "--step", "homology:2", "--dot"],
        ["genus1", "act", "--matrix", "2,1,0,1", "--point", "0,1"],
        ["genus1", "orbit", "--target", "1+2i", "--eps", "1/1000"],
    ]
    for argv in steps:
        code = cli_main(["--workspace", str(workspace)] + argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        transcript.append(out)
    manifest = json.loads(
        (workspace / "manifest-enumerate-g2-i2.json").read_text()
    )
    first = manifest["files"][0]
    for argv in (
        ["char", "core", "--subgroup", first],
        ["intersect", first, manifest["files"][1]],
        ["vaut", "identity", "--subgroup", first],
        ["ledger", "check", "--tower", _newest_tower(workspace)],
    ):
        code = cli_main(["--workspace", str(workspace)] + argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        transcript.append(out)
    return "".join(transcript)


def _newest_tower(workspace):
    towers = sorted(p.name for p in workspace.glob("tower-*.json"))
    assert towers
    return towers[0]


def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    with _criterion("byte-identical command-line reruns", 120):
        outputs = []
        trees = []
        for label in ("first", "second"):
            ws = tmp_path / label
            ws.mkdir()
            outputs.append(_run_cli_pipeline(ws, capsys))
            digest = {}
            for path in sorted(ws.iterdir()):
                digest[path.name] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
            trees.append(digest)
        assert outputs[0] == outputs[1]
        assert trees[0] == trees[1]
