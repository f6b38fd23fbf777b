import copy
import dataclasses
import hashlib
import math
import pickle
import random
from fractions import Fraction

import pytest

from covertower import (
    NotAnIsomorphism,
    RationalMobius,
    SingularMatrix,
    SublatticeMatrix,
    UpperHalfPoint,
    act,
    compose_mobius,
    covering_modulus_map,
    dense_orbit_approx,
    hnf,
    i_point,
    identity_mobius,
    mobius_from_integer_matrix,
    mobius_from_rational_matrix,
    vaut_as_matrix,
)
from covertower import genus_one
from covertower.genus_one import _approximants


def _in_row_lattice(vec, rows):
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    s = Fraction(vec[0] * rows[1][1] - vec[1] * rows[1][0], det)
    t = Fraction(rows[0][0] * vec[1] - rows[0][1] * vec[0], det)
    return s.denominator == 1 and t.denominator == 1


def test_hnf_swapped_rows():
    lattice = hnf([[0, 1], [2, 0]])
    assert lattice.entries == ((2, 0), (0, 1))


def test_hnf_preserves_the_row_lattice():
    rng = random.Random(17)
    for _ in range(200):
        raw = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
        if raw[0][0] * raw[1][1] - raw[0][1] * raw[1][0] == 0:
            continue
        lattice = hnf(raw)
        (a, b), (z, d) = lattice.entries
        assert z == 0 and a > 0 and d > 0 and 0 <= b < d
        for row in raw:
            assert _in_row_lattice(row, lattice.entries)
        for row in lattice.entries:
            assert _in_row_lattice(row, raw)
        assert hnf(lattice.entries).entries == lattice.entries


def test_hnf_rejects_singular():
    with pytest.raises(SingularMatrix):
        hnf([[2, 4], [1, 2]])


def test_hnf_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="integers"):
        hnf([[2.5, 0], [0, 1]])
    assert hnf([[Fraction(4, 2), 0], [0, 1]]).entries == ((2, 0), (0, 1))


def test_sublattice_constructor_enforces_normal_form():
    with pytest.raises(ValueError):
        SublatticeMatrix(((2, 3), (0, 2)))
    with pytest.raises(ValueError):
        SublatticeMatrix(((0, 1), (2, 0)))


def test_mobius_normalization():
    assert mobius_from_integer_matrix([[2, 0], [0, 2]]) == identity_mobius()
    m = mobius_from_integer_matrix([[-1, 0], [0, -2]])
    assert m.entries == ((1, 0), (0, 2))
    with pytest.raises(ValueError):
        mobius_from_integer_matrix([[1, 0], [0, -1]])
    with pytest.raises(SingularMatrix):
        mobius_from_integer_matrix([[1, 2], [2, 4]])


def test_mobius_from_integer_matrix_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="integers"):
        mobius_from_integer_matrix([[Fraction(3, 2), 0], [0, 1]])
    m = mobius_from_integer_matrix([[Fraction(6, 3), 0], [0, 4]])
    assert m.entries == ((1, 0), (0, 2))


def test_mobius_from_rational_matrix_clears_denominators():
    m = mobius_from_rational_matrix(((Fraction(1, 2), 0), (0, 1)))
    assert m.entries == ((1, 0), (0, 2))


def test_composition_matches_matrix_product():
    rng = random.Random(23)
    mats = []
    for _ in range(40):
        raw = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        if raw[0][0] * raw[1][1] - raw[0][1] * raw[1][0] > 0:
            mats.append(mobius_from_integer_matrix(raw))
    for _ in range(200):
        m, n = rng.choice(mats), rng.choice(mats)
        (a, b), (c, d) = m.entries
        (e, f), (g, h) = n.entries
        product = [[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]]
        assert compose_mobius(m, n) == mobius_from_integer_matrix(product)


def test_modulus_map_of_index_two_lattice():
    m = covering_modulus_map(hnf([[0, 1], [2, 0]]))
    assert m.entries == ((2, 0), (0, 1))
    assert act(m, i_point()) == UpperHalfPoint(0, 2)


def test_scalar_lattice_has_identity_modulus():
    assert covering_modulus_map(hnf([[2, 0], [0, 2]])) == identity_mobius()


def test_modulus_maps_separate_determinant_four_lattices():
    lattices = [
        hnf(m)
        for m in (
            [[1, 0], [0, 4]],
            [[1, 1], [0, 4]],
            [[1, 2], [0, 4]],
            [[1, 3], [0, 4]],
            [[2, 0], [0, 2]],
            [[2, 1], [0, 2]],
            [[4, 0], [0, 1]],
        )
    ]
    assert len({lat.entries for lat in lattices}) == 7
    maps = {covering_modulus_map(lat) for lat in lattices}
    assert len(maps) == 7


def test_vaut_as_matrix_basic():
    src = hnf([[2, 0], [0, 1]])
    dst = hnf([[1, 0], [0, 1]])
    m = vaut_as_matrix(src, dst, [[1, 0], [0, 1]])
    assert m.entries == ((1, 0), (0, 2))


def test_vaut_as_matrix_rejects_bad_identifications():
    src = hnf([[1, 0], [0, 1]])
    with pytest.raises(NotAnIsomorphism):
        vaut_as_matrix(src, src, [[2, 0], [0, 1]])
    with pytest.raises(NotAnIsomorphism):
        vaut_as_matrix(src, src, [[0, 1], [1, 0]])


def test_vaut_as_matrix_rejects_non_integral_identifications():
    src = hnf([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="integers"):
        vaut_as_matrix(src, src, [[1, Fraction(1, 2)], [0, 1]])
    assert vaut_as_matrix(src, src, [[1, Fraction(2, 2)], [0, 1]]) == vaut_as_matrix(
        src, src, [[1, 1], [0, 1]]
    )


def test_vaut_as_matrix_composes():
    src = hnf([[2, 1], [0, 3]])
    mid = hnf([[1, 0], [0, 5]])
    dst = hnf([[4, 0], [0, 1]])
    i1 = [[1, 1], [0, 1]]
    i2 = [[1, 0], [1, 1]]
    i12 = [[2, 1], [1, 1]]
    left = compose_mobius(
        vaut_as_matrix(src, mid, i1), vaut_as_matrix(mid, dst, i2)
    )
    assert left == vaut_as_matrix(src, dst, i12)


def _primitive_matrix(rows):
    """The rational matrix scaled to a primitive integer matrix whose first
    nonzero entry is positive."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [int(x * scale) for row in rows for x in row]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    a, b, c, d = (x // g for x in ints)
    return ((a, b), (c, d))


def _product(m, n):
    return [[sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def test_vaut_as_matrix_matches_the_rational_inverse():
    # Oracle: src^-1 * iso * dst in Fractions, with the inverse written out.
    rng = random.Random(29)
    generators = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0)))
    for _ in range(3000):
        src, dst = (
            SublatticeMatrix(((a, rng.randrange(d)), (0, d)))
            for a, d in ((rng.randint(1, 12), rng.randint(1, 12)) for _ in range(2))
        )
        iso = ((1, 0), (0, 1))
        for _ in range(rng.randint(0, 8)):
            iso = _product(iso, rng.choice(generators))
        (a, b), (_, d) = src.entries
        inv = [[Fraction(1, a), Fraction(-b, a * d)], [Fraction(0), Fraction(1, d)]]
        rows = _product(inv, _product(iso, dst.entries))
        assert vaut_as_matrix(src, dst, iso).entries == _primitive_matrix(rows)


def test_act_exact_example():
    p = act(mobius_from_integer_matrix([[2, 1], [0, 1]]), i_point())
    assert p.exact
    assert p.real == Fraction(1) and p.imag == Fraction(2)


def test_rotation_fixes_i():
    # tau -> -1/tau, the order-two rotation about i.
    m = mobius_from_rational_matrix(((0, -1), (1, 0)))
    assert m.entries == ((0, 1), (-1, 0))
    assert act(m, i_point()) == i_point()


def test_act_is_a_homomorphism_on_exact_points():
    rng = random.Random(41)
    mats = []
    for _ in range(30):
        raw = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        if raw[0][0] * raw[1][1] - raw[0][1] * raw[1][0] > 0:
            mats.append(mobius_from_integer_matrix(raw))
    for _ in range(300):
        m, n = rng.choice(mats), rng.choice(mats)
        tau = UpperHalfPoint(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            Fraction(rng.randint(1, 30), rng.randint(1, 9)),
        )
        inner = act(n, tau)
        assert inner.exact and inner.imag > 0
        assert act(compose_mobius(m, n), tau) == act(m, inner)


def test_float_path_tracks_exact_path():
    rng = random.Random(43)
    for _ in range(200):
        raw = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        if raw[0][0] * raw[1][1] - raw[0][1] * raw[1][0] <= 0:
            continue
        m = mobius_from_integer_matrix(raw)
        x = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        y = Fraction(rng.randint(1, 10), rng.randint(1, 7))
        exact = act(m, UpperHalfPoint(x, y))
        loose = act(m, UpperHalfPoint(float(x), float(y)))
        assert abs(float(exact.real) - loose.real) < 1e-12
        assert abs(float(exact.imag) - loose.imag) < 1e-12


def test_point_validation():
    p = UpperHalfPoint(3, 2)
    assert p.exact and p.real == Fraction(3)
    assert p.as_complex() == complex(3.0, 2.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(0, 0)
    with pytest.raises(ValueError):
        UpperHalfPoint(1.0, -2.0)
    with pytest.raises(ValueError):
        UpperHalfPoint("a", 1)
    for real, imag in ((math.nan, 1.0), (-math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            UpperHalfPoint(real, imag)


def test_dense_orbit_hits_exact_targets():
    target = UpperHalfPoint(Fraction(1), Fraction(2))
    m = dense_orbit_approx(i_point(), target, Fraction(1, 1000))
    assert m.entries == ((2, 1), (0, 1))
    assert act(m, i_point()) == target


def test_dense_orbit_meets_float_tolerance():
    target = UpperHalfPoint(math.sqrt(2), math.pi)
    m = dense_orbit_approx(i_point(), target, 1e-6)
    image = act(m, i_point())
    assert abs(image.as_complex() - target.as_complex()) < 1e-6


def test_dense_orbit_resolves_float_targets_exactly():
    # Every float is rational, so even an absurd eps is eventually met by
    # an exact hit rather than an approximation.
    target = UpperHalfPoint(math.sqrt(2), math.pi)
    m = dense_orbit_approx(i_point(), target, 1e-300)
    image = act(m, i_point())
    assert image.as_complex() == target.as_complex()


def test_dense_orbit_validates_eps():
    target = UpperHalfPoint(math.sqrt(2), math.pi)
    with pytest.raises(ValueError):
        dense_orbit_approx(i_point(), target, 0)
    with pytest.raises(ValueError):
        dense_orbit_approx(i_point(), target, -1)
    with pytest.raises(ValueError, match="positive"):
        dense_orbit_approx(i_point(), target, math.nan)
    with pytest.raises(ValueError, match="finite"):
        dense_orbit_approx(i_point(), target, math.inf)


def _act_oracle(entries, x, y):
    """(a tau + b)/(c tau + d) as a complex quotient in plain Fractions."""
    (a, b), (c, d) = entries
    num_re, num_im = a * x + b, a * y
    den_re, den_im = c * x + d, c * y
    norm = den_re * den_re + den_im * den_im
    return (
        (num_re * den_re + num_im * den_im) / norm,
        (num_im * den_re - num_re * den_im) / norm,
    )


def _seeded_mobius(rng, count, size):
    mats = [
        mobius_from_integer_matrix(raw)
        for raw in ([[2, 5], [0, 3]], [[0, 1], [-1, 0]], [[-3, 2], [-7, 1]])
    ]
    while len(mats) < count:
        raw = [[rng.randint(-size, size) for _ in range(2)] for _ in range(2)]
        if raw[0][0] * raw[1][1] - raw[0][1] * raw[1][0] > 0:
            mats.append(mobius_from_integer_matrix(raw))
    return mats


def test_exact_act_matches_fraction_oracle():
    rng = random.Random(59)
    mats = _seeded_mobius(rng, 40, 50)
    assert any(m.entries[1][0] == 0 for m in mats)
    assert any(m.entries[1][1] == 0 for m in mats)
    for _ in range(500):
        m = rng.choice(mats)
        x = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        y = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**9))
        image = act(m, UpperHalfPoint(x, y))
        assert image.exact
        assert (image.real, image.imag) == _act_oracle(m.entries, x, y)


def _float_act_reference(entries, x, y):
    """The float image as computed before exactness was read from the type."""
    (a, b), (c, d) = entries
    z = complex(float(x), float(y))
    return (a * z + b) / (c * z + d)


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_act_values_did_not_move():
    # Exact, float and mixed points: a point with one float coordinate is
    # a float point, and its image is the reference's to the last bit.
    rng = random.Random(67)
    mats = _seeded_mobius(rng, 30, 9)
    for _ in range(400):
        m = rng.choice(mats)
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        y = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        fx, fy = rng.uniform(-5, 5), rng.uniform(0.1, 5.0)
        tau = UpperHalfPoint(x, y)
        image = act(m, tau)
        assert tau.exact and image.exact
        assert type(image.real) is type(image.imag) is Fraction
        assert (image.real, image.imag) == _act_oracle(m.entries, x, y)
        for real, imag in ((fx, fy), (float(x), float(y)), (x, fy), (fx, y)):
            tau = UpperHalfPoint(real, imag)
            assert not tau.exact
            assert _bits(tau.as_complex()) == _bits(complex(float(real), float(imag)))
            image = act(m, tau)
            assert not image.exact
            assert type(image.real) is type(image.imag) is float
            want = _float_act_reference(m.entries, real, imag)
            assert _bits(complex(image.real, image.imag)) == _bits(want)


def test_points_and_maps_are_slotted_frozen_values():
    m = mobius_from_integer_matrix([[2, -3], [1, 4]])
    points = (
        UpperHalfPoint(Fraction(-7, 3), Fraction(5, 2)),
        UpperHalfPoint(-1.3, 0.7),
        UpperHalfPoint(Fraction(1, 3), 0.5),
    )
    for value in (m, compose_mobius(m, m), *points, act(m, points[0])):
        assert not hasattr(value, "__dict__")
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and hash(twin) == hash(value)
    # Values built without the validator equal and hash like public ones.
    product = compose_mobius(m, m)
    public = RationalMobius(product.entries)
    assert product == public and hash(product) == hash(public)
    for tau in points:
        image = act(m, tau)
        public = UpperHalfPoint(image.real, image.imag)
        assert image == public and hash(image) == hash(public)


def _assert_valid_mobius(m):
    assert all(type(x) is int for row in m.entries for x in row)
    assert RationalMobius(m.entries) == m


def _assert_valid_point(p, exact):
    assert type(p.real) is type(p.imag) is (Fraction if exact else float)
    assert UpperHalfPoint(p.real, p.imag) == p


def test_computed_matrices_and_points_pass_the_public_validators():
    rng = random.Random(61)
    mats = _seeded_mobius(rng, 30, 9)
    for m in mats:
        _assert_valid_mobius(m)
    for _ in range(300):
        m, n = rng.choice(mats), rng.choice(mats)
        product = compose_mobius(m, n)
        _assert_valid_mobius(product)
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        y = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        _assert_valid_point(act(product, UpperHalfPoint(x, y)), exact=True)
        _assert_valid_point(act(product, UpperHalfPoint(float(x), float(y))), exact=False)
    for source, target in _orbit_cases()[::25]:
        _assert_valid_mobius(dense_orbit_approx(source, target, 1e-6))


def _orbit_cases():
    """200 seeded float and 50 exact targets from three sources."""
    rng = random.Random(1009)
    floats = [
        UpperHalfPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5.0)) for _ in range(200)
    ]
    exact = [
        UpperHalfPoint(
            Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3)),
            Fraction(rng.randint(1, 10**4), rng.randint(1, 10**3)),
        )
        for _ in range(50)
    ]
    sources = (
        i_point(),
        UpperHalfPoint(Fraction(-7, 3), Fraction(5, 2)),
        UpperHalfPoint(-1.3, 0.7),
    )
    return [(s, t) for s in sources for t in floats + exact]


def test_dense_orbit_matrices_match_the_pinned_digest():
    # Recorded from the Fraction-arithmetic implementation that the
    # integer arithmetic replaced; every matrix must stay the same.
    digest = hashlib.sha256()
    for source, target in _orbit_cases():
        digest.update(repr(dense_orbit_approx(source, target, 1e-6).entries).encode())
    assert digest.hexdigest() == (
        "998e9820f3c49cba8fdb1a7114e27bae80cec8fecaeb03c4ccbb705547d32df3"
    )


def test_float_act_rejects_an_image_that_underflows_to_the_real_axis():
    m = mobius_from_integer_matrix([[1, 0], [10**300, 1]])
    with pytest.raises(ValueError, match="imaginary part"):
        act(m, UpperHalfPoint(0.0, 1.0))


def test_float_act_rejects_an_image_that_overflows_to_infinity():
    m = mobius_from_integer_matrix([[10**308, 0], [0, 1]])
    with pytest.raises(ValueError, match="finite"):
        act(m, UpperHalfPoint(1.0, 1e10))


def _fractions_built(monkeypatch, fn):
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        fn()
    return built


def test_exact_act_builds_one_fraction_per_coordinate(monkeypatch):
    # The Fraction-arithmetic evaluation built 17.
    m = mobius_from_integer_matrix([[2, -3], [1, 4]])
    tau = UpperHalfPoint(Fraction(-7, 3), Fraction(5, 2))
    assert _fractions_built(monkeypatch, lambda: act(m, tau)) == 2


def test_dense_orbit_fraction_count(monkeypatch):
    # The Fraction-arithmetic construction built 140, the limit_denominator
    # one 52, and the one that evaluated each round with act 8 (two image
    # coordinates in each of three rounds).  What is left is i_point's two
    # coordinates: a round from an exact source reads its error off the
    # approximants' integers, and the source == target test compares
    # integer ratios.
    target = UpperHalfPoint(math.sqrt(2), math.pi)
    built = _fractions_built(
        monkeypatch, lambda: dense_orbit_approx(i_point(), target, 1e-6)
    )
    assert built == 2


def test_dense_orbit_builds_only_the_accepted_matrix(monkeypatch):
    # From an exact source no round is evaluated with act and only the
    # accepted round builds its matrix; a float source builds and evaluates
    # one matrix per round, as before.
    calls = {"act": 0, "_mobius": 0}
    for name in calls:
        real = getattr(genus_one, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(genus_one, name, counting)
    targets = (
        UpperHalfPoint(math.sqrt(2), math.pi),
        UpperHalfPoint(Fraction(-3533, 997), Fraction(7919, 101)),
    )
    for source in (i_point(), UpperHalfPoint(Fraction(-7, 3), Fraction(5, 2))):
        for target in targets:
            calls.update(act=0, _mobius=0)
            dense_orbit_approx(source, target, 1e-6)
            assert calls == {"act": 0, "_mobius": 1}
    calls.update(act=0, _mobius=0)
    dense_orbit_approx(UpperHalfPoint(-1.3, 0.7), targets[0], 1e-6)
    assert calls["act"] == calls["_mobius"] == 3


def _assert_walk_matches_limit_denominator(x):
    # Oracle: CPython's Fraction.limit_denominator at each bound in turn.
    exact = Fraction(x)
    walk = _approximants(x)
    bound = 16
    while True:
        num, den, reached = next(walk)
        best = exact.limit_denominator(bound)
        assert (num, den) == (best.numerator, best.denominator), (x, bound)
        assert reached == (best == exact), (x, bound)
        if reached:
            assert next(walk) == (num, den, True)
            return
        bound *= 16


def test_approximants_match_limit_denominator():
    rng = random.Random(1013)
    floats = [rng.uniform(-3, 3) for _ in range(2000)]
    floats += [rng.uniform(0.1, 5.0) for _ in range(2000)]
    floats += [rng.uniform(-1e6, 1e6) for _ in range(200)]
    floats += [rng.uniform(0, 1e-6) for _ in range(200)]
    exact = [
        Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        for _ in range(1000)
    ]
    # Exactly half way between neighbours of denominator 2*16^k, where
    # limit_denominator's tie rule decides between two candidates.
    ties = [
        Fraction(2 * m + 1, 2 * 16**k)
        for k in range(1, 5)
        for m in (0, 1, 7, 15, 16**k - 1, 16**k, rng.randrange(16**k))
    ]
    ties += [-t for t in ties] + [t + 5 for t in ties]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e300, 2.0**-1074 * 3, 0.5, 1 / 3]
    for x in floats + exact + ties + edges:
        _assert_walk_matches_limit_denominator(x)


def _limit_denominator_orbit(source, target, eps):
    """Reference: approximants from Fraction.limit_denominator and the error
    compared with eps as Fractions."""
    x0, y0 = Fraction(source.real), Fraction(source.imag)
    x1, y1 = Fraction(target.real), Fraction(target.imag)
    bound = 16
    while True:
        px, py = x1.limit_denominator(bound), y1.limit_denominator(bound)
        if py > 0:
            # tau -> py * (tau - x0) / y0 + px
            m = mobius_from_rational_matrix(((py, px * y0 - py * x0), (0, y0)))
            image = act(m, source)
            if image.exact and target.exact:
                err_sq = (image.real - x1) ** 2 + (image.imag - y1) ** 2
            else:
                err_sq = abs(image.as_complex() - target.as_complex()) ** 2
            if err_sq < Fraction(eps) ** 2:
                return m
            if px == x1 and py == y1:
                raise ValueError("requested eps is below floating-point resolution")
        bound *= 16


def _orbit_or_error(source, target, eps, fn):
    try:
        return fn(source, target, eps)
    except ValueError as exc:
        return str(exc)


def test_dense_orbit_matches_the_reference_at_eps_on_the_error():
    # eps is put on the float error of an approximant and on its float
    # neighbours, where an inexact comparison with eps would pick another
    # round than the exact one.
    cases = 0
    for source, target in _orbit_cases()[::7]:
        m = dense_orbit_approx(source, target, 1e-3)
        image = act(m, source)
        if image.exact and target.exact:
            continue
        err = abs(image.as_complex() - target.as_complex())
        for eps in (err, math.nextafter(err, 0), math.nextafter(err, 1)):
            if eps > 0:
                cases += 1
                assert _orbit_or_error(
                    source, target, eps, dense_orbit_approx
                ) == _orbit_or_error(source, target, eps, _limit_denominator_orbit)
    assert cases > 200


def _sqrt(q):
    """The square root of q as a Fraction: exact when q is the square of a
    rational, else rounded down to 40 digits."""
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    scale = 10**40
    return Fraction(math.isqrt(n * d * scale * scale), d * scale)


def test_dense_orbit_matches_the_reference_at_eps_on_the_exact_error():
    # Exact sources and exact targets, where the error is compared in
    # integers.  eps is put on the exact error of each round that misses
    # the target and one part in 10^12 above and below it.  Each target is
    # also taken with its real part replaced by its bound-16 approximant,
    # so that the first round's error is rational and an eps equal to it is
    # exactly on the strict comparison.
    one_part = Fraction(1, 10**12)
    cases = on_the_error = 0
    for source, target in _orbit_cases():
        if not (source.exact and target.exact):
            continue
        x, y = target.real, target.imag
        for tx in (x, x.limit_denominator(16)):
            target = UpperHalfPoint(tx, y)
            bound = 16
            while True:
                px, py = tx.limit_denominator(bound), y.limit_denominator(bound)
                err_sq = (px - tx) ** 2 + (py - y) ** 2
                if err_sq == 0:
                    break
                err = _sqrt(err_sq)
                on_the_error += err * err == err_sq
                for eps in (err, err * (1 + one_part), err * (1 - one_part)):
                    cases += 1
                    assert _orbit_or_error(
                        source, target, eps, dense_orbit_approx
                    ) == _orbit_or_error(source, target, eps, _limit_denominator_orbit)
                bound *= 16
    assert cases > 900
    assert on_the_error > 150


def test_dense_orbit_needs_an_error_strictly_below_eps():
    # At bound 16, 1/17 is approximated by 1/16, exactly 1/272 away; an eps
    # of exactly 1/272 is not met there, and the next bound hits 1/17.
    target = UpperHalfPoint(Fraction(1, 17), Fraction(1))
    assert dense_orbit_approx(i_point(), target, Fraction(1, 271)).entries == (
        (16, 1),
        (0, 16),
    )
    exact = dense_orbit_approx(i_point(), target, Fraction(1, 272))
    assert act(exact, i_point()) == target

