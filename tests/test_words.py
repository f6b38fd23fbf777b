import random

import pytest

from covertower import (
    GenericPresentation,
    SurfacePresentation,
    commutator_word,
    concat,
    conjugate_word,
    dehn_reduce,
    free_reduce,
    inverse_word,
    is_identity,
    substitute,
    words_equal,
)


def test_free_reduce_basics():
    assert free_reduce([]) == ()
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1]) == ()
    assert free_reduce([1, 2, -2, 3]) == (1, 3)
    assert free_reduce([1, 1, -1]) == (1,)


def test_inverse_and_concat():
    w = (1, -3, 2)
    assert inverse_word(w) == (-2, 3, -1)
    assert free_reduce(concat(w, inverse_word(w))) == ()
    assert concat((1,), (), (2,)) == (1, 2)


def test_commutator_and_conjugate():
    assert commutator_word((1,), (2,)) == (1, 2, -1, -2)
    assert conjugate_word((3,), (1, 2)) == (1, 2, 3, -2, -1)
    assert free_reduce(conjugate_word((3,), ())) == (3,)


def test_surface_presentation_shape():
    for genus in (2, 3, 5):
        pres = SurfacePresentation(genus)
        assert pres.generator_count == 2 * genus
        assert len(pres.relator) == 4 * genus
        assert free_reduce(pres.relator) == pres.relator
        assert pres.relators == (pres.relator,)
    with pytest.raises(ValueError):
        SurfacePresentation(1)


def test_generic_presentation_validation():
    GenericPresentation(3, ((1, 2, -1, -2),))
    with pytest.raises(ValueError):
        GenericPresentation(2, ((1, -1),))
    with pytest.raises(ValueError):
        GenericPresentation(2, ((3,),))


def test_relator_is_identity():
    pres = SurfacePresentation(2)
    assert dehn_reduce(pres, pres.relator) == ()
    r = pres.relator
    for k in range(len(r)):
        rotated = r[k:] + r[:k]
        assert is_identity(pres, rotated)
        assert is_identity(pres, inverse_word(rotated))


def test_conjugates_of_relator_are_identity():
    pres = SurfacePresentation(2)
    rng = random.Random(11)
    for _ in range(50):
        by = tuple(
            rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 6))
        )
        w = conjugate_word(pres.relator, by)
        assert is_identity(pres, w)
        assert not is_identity(pres, concat(w, (1,)))


def test_dehn_reduce_idempotent():
    pres = SurfacePresentation(2)
    rng = random.Random(5)
    for _ in range(200):
        w = free_reduce(
            rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 12))
        )
        reduced = dehn_reduce(pres, w)
        assert dehn_reduce(pres, reduced) == reduced
        assert words_equal(pres, w, reduced)


def test_words_equal_is_symmetric_and_sound():
    pres = SurfacePresentation(2)
    u = (1, 2, -1)
    v = conjugate_word(concat(u, pres.relator), ())
    assert words_equal(pres, u, v)
    assert words_equal(pres, v, u)
    assert not words_equal(pres, u, (2,))


def _random_letters(rng, k, max_len):
    return tuple(rng.choice([1, -1]) * rng.randint(1, k) for _ in range(rng.randint(0, max_len)))


def test_substitute_identity_images_free_reduce():
    rng = random.Random(53)
    identity = [(j,) for j in range(1, 7)]
    for _ in range(200):
        w = _random_letters(rng, 6, 20)
        assert substitute(identity, w) == free_reduce(w)


def test_substitute_inverts_images_of_inverse_letters():
    rng = random.Random(59)
    for _ in range(100):
        images = [free_reduce(_random_letters(rng, 4, 6)) for _ in range(4)]
        for j in range(1, 5):
            assert substitute(images, (-j,)) == inverse_word(images[j - 1])
        w = _random_letters(rng, 4, 12)
        assert substitute(images, inverse_word(w)) == inverse_word(substitute(images, w))
        assert substitute(images, w + inverse_word(w)) == ()


@pytest.mark.parametrize("genus", [2, 3])
def test_apply_automorphism_round_trips_through_the_handle_swap(genus):
    from covertower import Automorphism, apply_automorphism, handle_swap

    pres = SurfacePresentation(genus)
    phi = handle_swap(pres)
    psi = Automorphism(pres, phi.inverse_images, phi.images)
    rng = random.Random(61 + genus)
    for _ in range(50):
        w = free_reduce(_random_letters(rng, 2 * genus, 16))
        image = apply_automorphism(phi, w)
        assert image == substitute(phi.images, w)
        back = apply_automorphism(psi, image)
        assert words_equal(pres, back, w)
        if genus == 2:
            # The genus-2 swap is a letter permutation and its own inverse.
            assert back == w
