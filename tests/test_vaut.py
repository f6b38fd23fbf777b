import dataclasses
import functools
import itertools
import random
import time

import pytest

from coset_oracles import bfs_canonical, inverse_rows, walk
from covertower import (
    DEFAULT_CONFIG,
    BudgetExceeded,
    CyclePath,
    GenericPresentation,
    IdentificationInvalid,
    IntersectionIndexOverflow,
    RunConfig,
    Subgroup,
    SurfacePresentation,
    TwoArrowCycle,
    VirtualAutomorphism,
    apply_vaut,
    bounded_mcl_search,
    compose,
    contains,
    cycle_doc,
    cycle_from_doc,
    cycle_from_subgroups,
    from_two_arrow,
    full_subgroup,
    germ_equals,
    handle_swap,
    homology_cover,
    identity_vaut,
    inner_automorphism,
    intersect,
    inverse,
    is_mcl_witness,
    is_subgroup_of,
    preimage_subgroup,
    reduce_cycle,
    reidemeister_schreier,
    schreier_generators,
    validate_vaut,
    vaut_doc,
    vaut_from_automorphism,
    words_equal,
)
from covertower import chartower, cosets, vaut, words
from covertower.cosets import _flatten_rows


@pytest.fixture(scope="module")
def pres():
    return SurfacePresentation(2)


@pytest.fixture(scope="module")
def h1(index_two_subgroups):
    return index_two_subgroups[0]


@pytest.fixture(scope="module")
def h2(index_two_subgroups):
    return index_two_subgroups[1]


def test_identity_validates(h1):
    v = identity_vaut(h1)
    validate_vaut(v)
    assert v.domain == v.codomain
    assert v.inverse_images == v.images


def test_tampered_images_rejected(h1):
    v = identity_vaut(h1)
    broken = VirtualAutomorphism(
        v.domain, v.codomain, v.images[:-1] + ((1, 1),), v.inverse_images
    )
    with pytest.raises(IdentificationInvalid):
        validate_vaut(broken)


def _swap_first_two(words):
    return (words[1], words[0], *words[2:])


def _outside(sub):
    return next((x,) for x in range(1, 5) if not contains(sub, (x,)))


def _free_group_germ():
    free = full_subgroup(GenericPresentation(2, ()))
    return VirtualAutomorphism(free, free, (), ())


# One corruption of an identity germ per check of validate_vaut, in the
# order the checks run.
CORRUPTIONS = [
    pytest.param(
        lambda v, h2: _free_group_germ(),
        ValueError,
        "virtual automorphisms live over the base surface group",
        id="base",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(
            v, codomain=full_subgroup(SurfacePresentation(3))
        ),
        IdentificationInvalid,
        "domain and codomain over different presentations",
        id="presentations",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(v, codomain=intersect(v.domain, h2)),
        IdentificationInvalid,
        "index mismatch: 2 vs 4",
        id="index",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(v, images=v.images[:-1]),
        IdentificationInvalid,
        "one image per domain Schreier generator required",
        id="image-count",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(
            v, images=(v.images[0] + (9,), *v.images[1:])
        ),
        ValueError,
        "letter 9 out of range for 4 generators",
        id="image-letter",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(
            v, images=(_outside(v.codomain), *v.images[1:])
        ),
        IdentificationInvalid,
        "an image leaves the codomain",
        id="image-member",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(v, images=_swap_first_two(v.images)),
        IdentificationInvalid,
        "images violate a rewritten relator",
        id="relator",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(v, inverse_images=v.inverse_images[:-1]),
        IdentificationInvalid,
        "one witness per codomain Schreier generator",
        id="witness-count",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(
            v, inverse_images=(v.inverse_images[0] + (7,), *v.inverse_images[1:])
        ),
        ValueError,
        "letter 7 out of range for 4 generators",
        id="witness-letter",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(
            v, inverse_images=(_outside(v.domain), *v.inverse_images[1:])
        ),
        IdentificationInvalid,
        "an inverse witness leaves the domain",
        id="witness-member",
    ),
    pytest.param(
        lambda v, h2: dataclasses.replace(
            v, inverse_images=_swap_first_two(v.inverse_images)
        ),
        IdentificationInvalid,
        "the map does not undo its inverse witnesses",
        id="back",
    ),
]


@pytest.mark.parametrize("corrupt, error, message", CORRUPTIONS)
def test_each_validation_check_names_its_failure(h1, h2, corrupt, error, message):
    with pytest.raises(error) as excinfo:
        validate_vaut(corrupt(identity_vaut(h1), h2))
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def _reference_validate(v):
    """Acceptance by the validator before one round trip sufficed: both
    round trips, v^-1(v(s)) = s as well as v(w_t) = t.  (It also ran a
    mod-2 span test, which the two round trips imply.)"""
    base, dom, cod = v.domain.pres, v.domain, v.codomain
    gens = schreier_generators(dom)
    if dom.pres != cod.pres or dom.index != cod.index or len(v.images) != len(gens):
        return False
    images = vaut._rewritten_members(cod, v.images)
    if images is None:
        return False
    for r in reidemeister_schreier(dom).relators:
        if not words_equal(base, words.substitute(v._pieces, r), ()):
            return False
    cogens = schreier_generators(cod)
    if len(v.inverse_images) != len(cogens):
        return False
    witnesses = vaut._rewritten_members(dom, v.inverse_images)
    if witnesses is None:
        return False
    back = v._swapped._pieces
    return all(
        words_equal(base, words.substitute(back, w), s) for s, w in zip(gens, images)
    ) and all(
        words_equal(base, words.substitute(v._pieces, w), t)
        for t, w in zip(cogens, witnesses)
    )


def _corrupted(rng, v):
    """One or two seeded corruptions of v's images or witnesses that keep
    the counts: two entries swapped, one repeated, one lengthened by the
    base relator (the same element) or by another entry, or every image
    trivial."""
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(["swap", "repeat", "relator", "product", "trivial"])
        if kind == "trivial":
            v = dataclasses.replace(v, images=((),) * len(v.images))
            continue
        field = rng.choice(["images", "inverse_images"])
        entries = list(getattr(v, field))
        i, j = rng.sample(range(len(entries)), 2)
        if kind == "swap":
            entries[i], entries[j] = entries[j], entries[i]
        elif kind == "repeat":
            entries[j] = entries[i]
        else:
            entries[i] += v.domain.pres.relator if kind == "relator" else entries[j]
        v = dataclasses.replace(v, **{field: tuple(entries)})
    return v


def _accepted(v):
    try:
        validate_vaut(v)
    except IdentificationInvalid:
        return False
    return True


def test_one_round_trip_accepts_what_the_span_and_both_round_trips_accept(
    pres, index_two_subgroups, mod4_cover
):
    rng = random.Random(41)
    germs = []
    for sub, inner, corruptions in [
        *((h, (2,), 4) for h in index_two_subgroups),
        (mod4_cover, (2, -3), 6),
    ]:
        a = vaut_from_automorphism(handle_swap(pres), sub)
        b = vaut_from_automorphism(inner_automorphism(pres, inner), sub)
        for v in (identity_vaut(sub), a, b):
            germs.append(v)
            germs.extend(_corrupted(rng, v) for _ in range(corruptions))
    verdicts = []
    for v in germs:
        verdicts.append(_accepted(v))
        assert verdicts[-1] == _reference_validate(v)
    assert set(verdicts) == {True, False}


def test_one_validation_rewrites_each_image_and_witness_once(pres, mod4_cover, monkeypatch):
    v = vaut_from_automorphism(handle_swap(pres), mod4_cover)
    calls = 0
    rewrite = cosets.rewrite_from

    def counted(*args):
        nonlocal calls
        calls += 1
        return rewrite(*args)

    monkeypatch.setattr(cosets, "rewrite_from", counted)
    monkeypatch.setattr(vaut, "rewrite_from", counted, raising=False)
    validate_vaut(v)
    # The one relator from each of the 256 cosets, for the one
    # Reidemeister-Schreier presentation that the domain and the codomain
    # share (the cover is characteristic), then each of the 769 images and
    # 769 witnesses once.
    assert v.codomain.table == v.domain.table
    assert len(v.images) == len(v.inverse_images) == 769
    assert calls == 256 + 2 * 769


def test_round_trip_validates_no_word(pres, mod4_cover, monkeypatch):
    # A composite walks words that the library built: an out-of-range letter
    # fails in the walk itself, so no word is checked before it is walked.
    a = vaut_from_automorphism(handle_swap(pres), mod4_cover)
    calls = 0
    validate = words.validate_word

    def counted(*args):
        nonlocal calls
        calls += 1
        return validate(*args)

    for module in (words, cosets, vaut, chartower):
        monkeypatch.setattr(module, "validate_word", counted, raising=False)
    out = compose(a, inverse(a))
    assert calls == 0
    assert germ_equals(out, identity_vaut(mod4_cover))


def test_from_two_arrow_identity_fill(pres, h1, h2):
    same = from_two_arrow(TwoArrowCycle(h1, h1))
    assert germ_equals(same, identity_vaut(h1))
    # Distinct covers need explicit identification data.
    with pytest.raises(IdentificationInvalid):
        from_two_arrow(TwoArrowCycle(h1, h2))


def test_from_two_arrow_needs_both_directions(pres, h1):
    # One direction alone is refused before any validation, for the
    # identity of one cover as for the handle swap between two.
    v = vaut_from_automorphism(handle_swap(pres), h1)
    gens = schreier_generators(h1)
    for cycle in (
        TwoArrowCycle(h1, h1, forward=gens),
        TwoArrowCycle(h1, h1, backward=gens),
        TwoArrowCycle(v.domain, v.codomain, forward=v.images),
    ):
        with pytest.raises(IdentificationInvalid) as refused:
            from_two_arrow(cycle)
        assert str(refused.value) == "forward and backward words must be given together"
    both = from_two_arrow(TwoArrowCycle(v.domain, v.codomain, v.images, v.inverse_images))
    assert germ_equals(both, v)


def test_from_two_arrow_requires_matching_indices(pres, h1, h2):
    four = intersect(h1, h2)
    with pytest.raises(IdentificationInvalid):
        from_two_arrow(TwoArrowCycle(h1, four))


def test_vaut_from_handle_swap(pres, h1):
    phi = handle_swap(pres)
    v = vaut_from_automorphism(phi, h1)
    validate_vaut(v)
    assert v.codomain != h1
    gens = schreier_generators(h1)
    for g in gens:
        assert contains(v.codomain, apply_vaut(v, g))


def test_inner_germ_differs_from_identity(pres, h1):
    phi = inner_automorphism(pres, (2,))
    v = vaut_from_automorphism(phi, h1)
    validate_vaut(v)
    assert not germ_equals(v, identity_vaut(h1))


def test_apply_and_inverse_round_trip(pres, h1):
    rng = random.Random(11)
    v = vaut_from_automorphism(handle_swap(pres), h1)
    v_inv = inverse(v)
    gens = schreier_generators(h1)
    for _ in range(30):
        w = []
        for _ in range(rng.randint(1, 4)):
            w.extend(rng.choice(gens))
        w = tuple(w)
        assert words_equal(pres, apply_vaut(v_inv, apply_vaut(v, w)), w)


def test_preimage_under_identity_is_intersection(h1, h2):
    v = identity_vaut(h1)
    four = intersect(h1, h2)
    assert preimage_subgroup(v, four) == four
    assert preimage_subgroup(v, h1) == h1


def test_preimage_respects_membership(pres, h1, h2):
    v = vaut_from_automorphism(handle_swap(pres), h1)
    target = intersect(v.codomain, h2)
    pre = preimage_subgroup(v, target)
    assert is_subgroup_of(pre, h1)
    gens = schreier_generators(pre)
    for g in gens[:12]:
        assert contains(target, apply_vaut(v, g))


def test_preimage_of_a_characteristic_cover_is_the_domain(pres, mod4_cover):
    # The handle swap maps the characteristic mod-4 cover onto itself, so
    # every image fixes the basepoint and no relative table is built.
    v = vaut_from_automorphism(handle_swap(pres), mod4_cover)
    for target in (v.codomain, mod4_cover):
        assert preimage_subgroup(v, target) is v.domain
    assert v.domain == _preimage_by_full_permutations(v, mod4_cover)


def _preimage_by_full_permutations(v, s):
    """Reference preimage: every image permutes every coset of s, and the
    basepoint's orbit is found under the images and their inverses.  The
    images act on the raw rows of s, and the relative table is put in BFS
    order here, not by the Subgroup constructor."""
    rows = s.table
    inv = inverse_rows(rows)
    perms = [
        tuple(walk(rows, inv, c, img) for c in range(len(rows))) for img in v.images
    ]
    inv_perms = []
    for p in perms:
        q = [0] * len(p)
        for i, x in enumerate(p):
            q[x] = i
        inv_perms.append(q)
    label = {0: 0}
    order = [0]
    for c in order:
        for p in perms + inv_perms:
            if p[c] not in label:
                label[p[c]] = len(order)
                order.append(p[c])
    table = tuple(tuple(label[p[c]] for p in perms) for c in order)
    rel = Subgroup(reidemeister_schreier(v.domain), bfs_canonical(table, 0))
    return Subgroup(v.domain.pres, _flatten_rows(v.domain, rel.act_letter))


def test_preimage_matches_full_permutation_oracle(pres, index_two_subgroups):
    phi = handle_swap(pres)
    nontrivial_orbits = 0
    for h in index_two_subgroups:
        v = vaut_from_automorphism(phi, h)
        for k in index_two_subgroups:
            target = intersect(v.codomain, k)
            pre = preimage_subgroup(v, target)
            assert pre == _preimage_by_full_permutations(v, target)
            nontrivial_orbits += pre.index > h.index
    assert nontrivial_orbits


def test_preimage_matches_oracle_on_mod_four_cover(pres, mod4_cover, h1):
    v = vaut_from_automorphism(handle_swap(pres), mod4_cover)
    for target in (mod4_cover, h1):
        assert preimage_subgroup(v, target) == _preimage_by_full_permutations(
            v, target
        )


def test_preimage_walks_only_the_basepoint_orbit(pres, mod4_cover, monkeypatch):
    # The codomain contains every image, so the orbit is the basepoint
    # alone: one trace per image, not one per image and coset.
    v = identity_vaut(mod4_cover)
    calls = 0
    act_word = Subgroup.act_word

    def counted(self, c, w):
        nonlocal calls
        calls += 1
        return act_word(self, c, w)

    monkeypatch.setattr(Subgroup, "act_word", counted)
    assert preimage_subgroup(v, v.codomain) == mod4_cover
    assert mod4_cover.index == 256
    assert calls == len(v.images)


def test_preimage_of_a_letter_out_of_range_raises(h1, h2):
    # Letter 0 used to act as x4^-1 on the target's cosets.
    v = identity_vaut(h1)
    bad = dataclasses.replace(v, images=((0, *v.images[0]), *v.images[1:]))
    with pytest.raises(ValueError, match="letter 0 out of range for 4 generators"):
        preimage_subgroup(bad, h2)


def test_a_missing_piece_is_not_reported_as_a_bad_letter(h1):
    # The walk crosses the last Schreier generator, which has no image.
    v = identity_vaut(h1)
    short = dataclasses.replace(v, images=v.images[:-1])
    with pytest.raises(KeyError) as excinfo:
        apply_vaut(short, schreier_generators(h1)[-1])
    assert excinfo.value.args == (len(v.images),)


def test_preimage_builds_no_reidemeister_schreier_presentation(pres, h1, h2, monkeypatch):
    v = vaut_from_automorphism(handle_swap(pres), h1)
    target = intersect(v.codomain, h2)
    calls = []
    presentation = cosets.reidemeister_schreier

    def counted(sub):
        calls.append(sub)
        return presentation(sub)

    monkeypatch.setattr(cosets, "reidemeister_schreier", counted)
    monkeypatch.setattr(vaut, "reidemeister_schreier", counted)
    pre = preimage_subgroup(v, target)
    assert pre.index > h1.index
    assert calls == []


def test_preimage_needs_one_image_per_domain_generator(h1, h2):
    v = identity_vaut(h1)
    short = dataclasses.replace(v, images=v.images[:-1])
    with pytest.raises(ValueError, match="one image per domain Schreier generator"):
        preimage_subgroup(short, intersect(h1, h2))


def test_compose_with_inverse_is_identity_germ(pres, h1):
    v = vaut_from_automorphism(handle_swap(pres), h1)
    w = inverse(v)
    round_trip = compose(v, w)
    assert germ_equals(round_trip, identity_vaut(h1))


def test_compose_on_the_mod_five_cover_hashes_no_subgroup(pres, monkeypatch):
    # Rewriting reads each subgroup's own Schreier system, so composing
    # never hashes a subgroup or calls subgroup equality.
    v = vaut_from_automorphism(handle_swap(pres), homology_cover(pres, 5).subgroup)
    assert v.domain.index == 625
    calls = {"eq": 0, "hash": 0}
    eq, hash_ = Subgroup.__eq__, Subgroup.__hash__

    def counted_eq(self, other):
        calls["eq"] += 1
        return eq(self, other)

    def counted_hash(self):
        calls["hash"] += 1
        return hash_(self)

    monkeypatch.setattr(Subgroup, "__eq__", counted_eq)
    monkeypatch.setattr(Subgroup, "__hash__", counted_hash)
    out = compose(v, inverse(v))
    assert out.domain.index == 625
    assert calls == {"eq": 0, "hash": 0}


def test_compose_refuses_an_overlap_past_the_index_cap(pres, mod4_cover):
    # The preimages have the overlap's index, so the overlap's cap bounds
    # the whole composite: 16 * 81 = 1,296 > 100 and 256 * 81 > 10,000.
    three = identity_vaut(homology_cover(pres, 3).subgroup)
    two = identity_vaut(homology_cover(pres, 2).subgroup)
    with pytest.raises(IntersectionIndexOverflow, match="index cap 100$"):
        compose(two, three, RunConfig(max_result_index=100))
    with pytest.raises(IntersectionIndexOverflow, match="index cap 10000$"):
        compose(identity_vaut(mod4_cover), three, DEFAULT_CONFIG)


def test_germ_equals_refuses_a_common_domain_past_the_index_cap(pres, mod4_cover):
    # The common domain of the mod-4 and mod-3 covers has index 256 * 81 =
    # 20,736 > 10,000, and the walk stops at the cap (it used to run to the
    # end, in about 4 s).  CPU time, so that a busy machine does not count.
    four = identity_vaut(mod4_cover)
    three = identity_vaut(homology_cover(pres, 3).subgroup)
    start = time.process_time()
    with pytest.raises(IntersectionIndexOverflow, match="index cap 10000$"):
        germ_equals(four, three)
    assert time.process_time() - start < 0.1
    two = identity_vaut(homology_cover(pres, 2).subgroup)
    with pytest.raises(IntersectionIndexOverflow, match="index cap 100$"):
        germ_equals(two, three, RunConfig(max_result_index=100))
    assert germ_equals(two, three, RunConfig(max_result_index=1296))


def test_germ_equals_reads_the_images_on_its_own_domain(pres, mod4_cover, monkeypatch):
    # Both germs live on the mod-4 cover, so no Schreier generator of the
    # common domain is walked again: nothing is rewritten.
    a = vaut_from_automorphism(handle_swap(pres), mod4_cover)
    identity = identity_vaut(mod4_cover)
    calls = []
    rewrite = cosets.rewrite_from

    def counted(*args):
        calls.append(args)
        return rewrite(*args)

    monkeypatch.setattr(cosets, "rewrite_from", counted)
    monkeypatch.setattr(vaut, "rewrite_from", counted)
    assert germ_equals(a, a)
    assert not germ_equals(a, identity)
    assert calls == []


def test_compose_associativity(pres, h1):
    a = vaut_from_automorphism(handle_swap(pres), h1)
    b = vaut_from_automorphism(inner_automorphism(pres, (1,)), a.codomain)
    c = vaut_from_automorphism(inner_automorphism(pres, (3,)), b.codomain)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert germ_equals(left, right)


def test_germ_equality_on_smaller_overlap(pres, h1, h2):
    v = identity_vaut(h1)
    four = intersect(h1, h2)
    w = identity_vaut(four)
    assert germ_equals(v, w)


def test_cycle_reduction_orders_agree(pres, h1, h2):
    full = full_subgroup(pres)
    path = cycle_from_subgroups([full, h1, intersect(h1, h2), h2, full])
    left = reduce_cycle(path, order="left")
    right = reduce_cycle(path, order="right")
    vl = from_two_arrow(left)
    vr = from_two_arrow(right)
    assert germ_equals(vl, vr)
    assert germ_equals(vl, identity_vaut(vl.domain))


def test_caller_images_are_reduced_on_first_use(h1):
    # Only germs the library built skip the reduction of their piece tables.
    gens = schreier_generators(h1)
    v = VirtualAutomorphism(h1, h1, tuple(g + (1, -1) for g in gens), gens)
    validate_vaut(v)
    assert [v._pieces[j] for j in range(1, len(gens) + 1)] == list(gens)
    assert germ_equals(v, identity_vaut(h1))


def test_cycle_path_recognises_the_root_by_its_index(h1, h2, monkeypatch):
    path = cycle_from_subgroups([h1, intersect(h1, h2), h2])
    built = []
    post_init = Subgroup.__post_init__

    def counted(sub, *args):
        built.append(sub)
        post_init(sub, *args)

    monkeypatch.setattr(Subgroup, "__post_init__", counted)
    path.validate()
    assert built == []
    legs = path.legs
    with pytest.raises(ValueError, match="down-leg does not start"):
        CyclePath(legs[1:]).validate()
    with pytest.raises(ValueError, match="does not close up at the root"):
        CyclePath(legs[:-1]).validate()
    with pytest.raises(ValueError, match="bad direction"):
        CyclePath(((legs[0][0], "across"),)).validate()


def test_many_random_cycles_reduce_consistently(pres):
    from covertower import low_index_subgroups

    rng = random.Random(5)
    pool = [s for s in low_index_subgroups(pres, 2)]
    full = full_subgroup(pres)
    for _ in range(6):
        a, b = rng.sample(pool, 2)
        path = cycle_from_subgroups([full, a, intersect(a, b), b, full])
        vl = from_two_arrow(reduce_cycle(path, order="left"))
        vr = from_two_arrow(reduce_cycle(path, order="right"))
        assert germ_equals(vl, vr)


def _composed_reduction(path, order, config=None):
    """The reduction by composition: the legs' identity germs composed
    left-to-right or right-to-left."""
    germs = [identity_vaut(arrow.sub) for arrow, _ in path.legs]
    if order == "left":
        return functools.reduce(lambda acc, g: compose(acc, g, config), germs)
    return functools.reduce(lambda acc, g: compose(g, acc, config), reversed(germs))


@pytest.fixture(scope="module")
def reduction_cycles(index_two_subgroups):
    """3-hop zigzags over every pair of distinct index-2 subgroups, and
    seeded 5-hop cycles [A, A&B, B, B&D, D]."""
    subs = index_two_subgroups
    cycles = [
        cycle_from_subgroups([a, intersect(a, b), b]) for a, b in itertools.combinations(subs, 2)
    ]
    rng = random.Random(25)
    for _ in range(4):
        a, b, d = rng.sample(subs, 3)
        cycles.append(cycle_from_subgroups([a, intersect(a, b), b, intersect(b, d), d]))
    return cycles


def test_reduction_is_the_composite_of_its_legs(reduction_cycles):
    meets = set()
    for path in reduction_cycles:
        for order in ("left", "right"):
            old = _composed_reduction(path, order)
            cycle = reduce_cycle(path, order)
            old_cycle = TwoArrowCycle(old.domain, old.codomain, old.images, old.inverse_images)
            assert cycle_doc(cycle) == cycle_doc(old_cycle)
            assert vaut_doc(from_two_arrow(cycle)) == vaut_doc(old)
            meets.add(cycle.alpha.index)
    assert len(reduction_cycles) == 105 + 4 and meets == {4, 8}


@pytest.mark.trusted_path
def test_reduction_composes_nothing(reduction_cycles, monkeypatch):
    calls = []
    for name in ("compose", "preimage_subgroup", "inverse", "validate_vaut"):
        monkeypatch.setattr(vaut, name, lambda *args, name=name, **kw: calls.append(name))
    for path in reduction_cycles:
        for order in ("left", "right"):
            v = from_two_arrow(reduce_cycle(path, order))
            assert v.domain == v.codomain and v.images == schreier_generators(v.domain)
    assert calls == []


def test_reduction_past_the_cap_is_refused_as_before(reduction_cycles):
    # A zigzag meets in index 4 and the last 5-hop cycle in index 8.  Both
    # reductions name the same pair of indices: an index-4 leg is past the
    # cap of 2, and the orbit of two index-4 legs grows past 4.
    cases = (
        (reduction_cycles[0], 2, "index 2 and 4 has index at least 4, above index cap 2"),
        (
            reduction_cycles[-1],
            4,
            "index 4 and 4 has index a multiple of 4 and at most 16, above index cap 4",
        ),
    )
    for path, cap, message in cases:
        config = RunConfig(max_result_index=cap)
        for order in ("left", "right"):
            with pytest.raises(IntersectionIndexOverflow) as old:
                _composed_reduction(path, order, config)
            with pytest.raises(IntersectionIndexOverflow) as new:
                reduce_cycle(path, order, config)
            assert str(new.value) == str(old.value) == f"intersection of subgroups of {message}"


def test_mcl_witness_and_search(pres, h1):
    v = vaut_from_automorphism(handle_swap(pres), h1)
    k2 = homology_cover(pres, 2).subgroup
    assert is_mcl_witness(v, k2)
    found = bounded_mcl_search(v, 4)
    assert found is not None
    assert is_mcl_witness(v, found)
    assert found.index <= 4


def test_mcl_search_past_the_index_cap_says_how_far_it_got(pres, h1):
    # The swap moves h1, so the depth-1 candidate is h1 cut by its image,
    # of index 4, past a cap of 3.  Depth 0 builds no intersection.
    v = vaut_from_automorphism(handle_swap(pres), h1)
    cfg = RunConfig(max_result_index=3)
    assert bounded_mcl_search(v, 0, cfg) is None
    with pytest.raises(BudgetExceeded) as refused:
        bounded_mcl_search(v, 2, cfg)
    assert refused.value.exit_code == 3
    assert str(refused.value) == (
        "mcl search reached depth 0 of 2 at a candidate of index 2: "
        "intersection of subgroups of index 2 and 2 has index a multiple of 2 "
        "and at most 4, above index cap 3"
    )
    assert bounded_mcl_search(v, 2, RunConfig(max_result_index=4)).index == 4


def test_caut_witness(pres, h1, mod4_cover):
    v = vaut_from_automorphism(handle_swap(pres), h1)
    # Homology covers are characteristic, so the handle swap fixes each
    # one inside its domain setwise.
    for cover in (homology_cover(pres, 2).subgroup, mod4_cover):
        assert is_mcl_witness(v, cover)


@pytest.fixture(scope="module")
def index_four_in_h1(pres, h1):
    """The subgroups of index <= 4 inside h1: h1 and its 63 of index 2."""
    from covertower import low_index_subgroups

    return [s for s in low_index_subgroups(pres, 4) if is_subgroup_of(s, h1)]


def test_mcl_witness_refuses_a_subgroup_that_the_swap_moves(pres, h1, index_four_in_h1):
    v = vaut_from_automorphism(handle_swap(pres), h1)
    # The swap sends h1 onto its codomain, another subgroup.
    assert v.codomain != h1
    assert not is_mcl_witness(v, h1)
    # An index-4 candidate inside h1 goes to another one of the same index:
    # its preimage under the inverse germ is its image.
    moved = [c for c in index_four_in_h1 if not is_mcl_witness(v, c)]
    assert moved
    for c in moved[:4]:
        image = preimage_subgroup(inverse(v), c)
        assert image.index == c.index and image != c


def _reference_mcl_witness(v, candidate):
    """v(candidate) = candidate, with v(candidate) built as the preimage
    under the inverse germ: a flattening walk, not a membership walk."""
    if not is_subgroup_of(candidate, v.domain):
        return False
    return preimage_subgroup(inverse(v), candidate) == candidate


def test_mcl_witness_agrees_with_the_image_on_every_small_candidate(pres, h1, index_four_in_h1):
    assert len(index_four_in_h1) == 64
    answers = set()
    for phi in (handle_swap(pres), inner_automorphism(pres, (4,)), inner_automorphism(pres, (1, 4))):
        v = vaut_from_automorphism(phi, h1)
        for c in index_four_in_h1:
            answer = is_mcl_witness(v, c)
            assert answer == _reference_mcl_witness(v, c)
            answers.add(answer)
    assert answers == {True, False}


def test_mcl_witness_builds_no_presentation(pres, h1, mod4_cover, monkeypatch):
    v = vaut_from_automorphism(handle_swap(pres), h1)
    k2 = homology_cover(pres, 2).subgroup

    def refuse(sub):
        raise AssertionError("presentation built")

    monkeypatch.setattr(cosets, "reidemeister_schreier", refuse)
    monkeypatch.setattr(vaut, "reidemeister_schreier", refuse)
    for cover in (k2, mod4_cover):
        assert is_mcl_witness(v, cover)
    assert not is_mcl_witness(v, h1)
    found = bounded_mcl_search(v, 4)
    assert found is not None and is_mcl_witness(v, found)



def _count_validations(monkeypatch):
    calls = []
    validate = vaut.validate_vaut

    def counted(v):
        calls.append(v)
        validate(v)

    monkeypatch.setattr(vaut, "validate_vaut", counted)
    return calls


@pytest.mark.trusted_path
def test_group_law_composites_are_certified(pres, mod4_cover, monkeypatch):
    # The vaut-laws cases: the three restrictions of ambient automorphisms
    # and every composite are isomorphisms by construction, so nothing is
    # validated; validate_vaut confirms them here.
    validations = _count_validations(monkeypatch)
    a = vaut_from_automorphism(handle_swap(pres), mod4_cover)
    b = vaut_from_automorphism(inner_automorphism(pres, (2, -3)), a.codomain)
    c = vaut_from_automorphism(inner_automorphism(pres, (1, 4)), b.codomain)
    laws = [
        (compose(identity_vaut(mod4_cover), a), a),
        (compose(a, identity_vaut(a.codomain)), a),
        (compose(a, inverse(a)), identity_vaut(mod4_cover)),
        (compose(inverse(a), a), identity_vaut(a.codomain)),
    ]
    bc = compose(b, c)
    ab = compose(a, b)
    laws.append((compose(ab, c), compose(a, bc)))
    assert validations == []
    for composite in (a, b, c, ab, bc, *(lhs for lhs, _ in laws), laws[-1][1]):
        validate_vaut(composite)
        assert composite.domain.index == 256
    for lhs, rhs in laws:
        assert germ_equals(lhs, rhs)


@pytest.fixture
def zigzag(index_two_subgroups):
    a, b = index_two_subgroups[2], index_two_subgroups[5]
    return cycle_from_subgroups([a, intersect(a, b), b])


@pytest.mark.trusted_path
def test_zigzag_validates_only_where_it_enters(zigzag, monkeypatch):
    # Reducing a zigzag composes nothing, and from_two_arrow recognises the
    # identity of the meet that it returns: nothing is checked.
    validations = _count_validations(monkeypatch)
    left = reduce_cycle(zigzag, order="left")
    right = reduce_cycle(zigzag, order="right")
    vl, vr = from_two_arrow(left), from_two_arrow(right)
    assert validations == []
    validate_vaut(vl)
    validate_vaut(vr)
    assert germ_equals(vl, vr)


@pytest.mark.trusted_path
def test_cycles_from_outside_are_validated_once(zigzag, monkeypatch):
    # A reduced cycle is the identity of the meet, its Schreier generators
    # both ways: rebuilt or loaded, one comparison recognises it.
    reduced = reduce_cycle(zigzag, order="left")
    meet = reduced.alpha
    assert reduced == TwoArrowCycle(meet, meet, schreier_generators(meet), schreier_generators(meet))
    rebuilt = TwoArrowCycle(reduced.alpha, reduced.beta, reduced.forward, reduced.backward)
    loaded = cycle_from_doc(cycle_doc(reduced))
    validations = _count_validations(monkeypatch)
    for cycle in (reduced, rebuilt, loaded):
        assert from_two_arrow(cycle) == identity_vaut(meet)
    assert validations == []
    # Anything else is validated, once: a lengthened witness passes, a
    # swapped image or a forged witness does not.
    gens = reduced.forward
    lengthened = TwoArrowCycle(meet, meet, gens, (gens[0] + (1, -1), *gens[1:]))
    assert germ_equals(from_two_arrow(lengthened), identity_vaut(meet))
    assert len(validations) == 1
    forged = [
        (_swap_first_two(gens), gens, "images violate a rewritten relator"),
        (gens, _swap_first_two(gens), "the map does not undo its inverse witnesses"),
    ]
    for forward, backward, message in forged:
        with pytest.raises(IdentificationInvalid, match=message):
            from_two_arrow(TwoArrowCycle(meet, meet, forward, backward))
    assert len(validations) == 3


@pytest.mark.trusted_path
def test_zigzag_piece_tables_reduce_nothing(zigzag, monkeypatch):
    # Every germ of a reduction is built by the library with freely reduced
    # words, so its piece tables take them as they are.
    calls = []
    reduce = words.free_reduce

    def counted(w):
        calls.append(w)
        return reduce(w)

    monkeypatch.setattr(words, "free_reduce", counted)
    left = from_two_arrow(reduce_cycle(zigzag, order="left"))
    right = from_two_arrow(reduce_cycle(zigzag, order="right"))
    assert calls == []
    assert germ_equals(left, right)


@pytest.mark.trusted_path
def test_compose_reuses_the_inputs_schreier_systems(pres, mod4_cover, monkeypatch):
    # The overlap, domain and codomain of a round trip are tables the inputs
    # already hold, so their instances and Schreier systems are reused.
    a = vaut_from_automorphism(handle_swap(pres), mod4_cover)
    a_inv = inverse(a)
    builds = []
    build = cosets._schreier_system

    def counted(sub):
        builds.append(sub)
        return build(sub)

    monkeypatch.setattr(cosets, "_schreier_system", counted)
    out = compose(a, a_inv)
    assert builds == []
    held = (a.domain, a.codomain)
    assert any(out.domain is s for s in held)
    assert any(out.codomain is s for s in held)
    assert germ_equals(out, identity_vaut(mod4_cover))
