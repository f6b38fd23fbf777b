"""The one reducing kernel against the two-step route it replaced.

Before, a word was rewritten letter by letter into Schreier generator
indices and freely reduced, and the images were then substituted, each
negative letter inverted on the spot, and the whole freely reduced again.
The references below do exactly that, one letter at a time, and the
package's single walk through a signed piece table must agree with them on
the word and on the coset where the walk ends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coset_oracles import inverse_rows, schreier_edge_ids
from covertower import (
    Automorphism,
    SurfacePresentation,
    apply_automorphism,
    concat,
    handle_swap,
    homology_cover,
    inner_automorphism,
    low_index_subgroups,
    schreier_generators,
    substitute,
    vaut_from_automorphism,
)
from covertower.cosets import rewrite_from
from covertower.vaut import _images_along_tree
from covertower.words import _PieceTable, _reduced_product

PRES = SurfacePresentation(2)


def letter_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def two_step_substitute(images, w):
    out = []
    for x in w:
        image = images[abs(x) - 1]
        out.extend(image if x > 0 else [-y for y in reversed(image)])
    return letter_reduce(out)


def two_step_rewrite(rows, start, w):
    """Letter-by-letter Reidemeister rewriting of ``w`` on a canonical table's
    raw rows, from ``start``: the signed generator indices crossed, freely
    reduced, and the end coset."""
    inv, ids = inverse_rows(rows), schreier_edge_ids(rows)
    out, c = [], start
    for x in w:
        if x > 0:
            e = ids[c][x - 1]
            c = rows[c][x - 1]
        else:
            c = inv[c][-x - 1]
            e = -ids[c][-x - 1]
        if e:
            out.append(e)
    return letter_reduce(out), c


def letters(k, max_size):
    """Words (not necessarily reduced) in the letters ±1..±k."""
    return st.lists(
        st.integers(1, k).flatmap(lambda j: st.sampled_from((j, -j))), max_size=max_size
    )


@pytest.fixture(scope="module")
def subgroups():
    # Index 2 and 3 subgroups of the genus-2 group, and the mod-2 cover (16).
    small = [s for s in low_index_subgroups(PRES, 3) if s.index > 1][:6]
    return small + [homology_cover(PRES, 2).subgroup]


@settings(max_examples=100)
@given(st.lists(letters(5, 8), min_size=1, max_size=5), st.data())
def test_substitute_matches_the_two_step_route(images, data):
    w = data.draw(letters(len(images), 20))
    expected = two_step_substitute(images, w)
    assert substitute(images, w) == expected
    assert substitute(_PieceTable(images), w) == expected


@settings(max_examples=100)
@given(st.lists(letters(4, 10), max_size=6))
def test_concat_matches_the_two_step_route(words):
    assert concat(*words) == letter_reduce([x for w in words for x in w])


@settings(max_examples=100)
@given(letters(4, 12), st.lists(st.integers(0, 12), max_size=6), st.data())
def test_cancelling_pieces_reduce_as_one_word(base, cuts, data):
    # Each piece may undo any part of the tail before it.
    base = letter_reduce(base)
    pieces, tail = [], ()
    for cut in cuts:
        undo = tuple(-x for x in reversed(tail[len(tail) - min(cut, len(tail)):]))
        piece = letter_reduce(undo + letter_reduce(data.draw(letters(4, 4))))
        pieces.append(piece)
        tail = letter_reduce(tail + piece)
    pieces = [base] + pieces
    assert _reduced_product(pieces) == letter_reduce([x for p in pieces for x in p])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_walk_matches_rewriting_then_substituting(subgroups, data):
    sub = data.draw(st.sampled_from(subgroups))
    system = sub.schreier
    m = len(system.generators)
    images = data.draw(st.lists(letters(4, 6), min_size=m, max_size=m))
    w = data.draw(letters(4, 24))
    start = data.draw(st.integers(0, sub.index - 1))
    rewritten, end = two_step_rewrite(sub.table, start, w)
    # Most drawn words leave the subgroup: the end coset must match too.
    assert rewrite_from(system, start, w, system.letters) == (rewritten, end)
    image = two_step_substitute(images, rewritten)
    assert rewrite_from(system, start, w, _PieceTable(images)) == (image, end)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_images_along_the_tree_match_apply_automorphism(subgroups, data):
    sub = data.draw(st.sampled_from(subgroups))
    inner = tuple(data.draw(letters(4, 4)))
    phi = data.draw(st.sampled_from([handle_swap(PRES), inner_automorphism(PRES, inner)]))
    expected = tuple(apply_automorphism(phi, s) for s in schreier_generators(sub))
    assert _images_along_tree(sub, phi._tables[0]) == expected
    v = vaut_from_automorphism(phi, sub)
    assert v.images == expected
    psi = Automorphism(PRES, phi.inverse_images, phi.images)
    assert v.inverse_images == tuple(
        apply_automorphism(psi, t) for t in schreier_generators(v.codomain)
    )


@pytest.mark.parametrize("bad", [(0,), (1, 0), (3,), (-3,), (2, 7)])
def test_substitute_rejects_letters_with_no_image(bad):
    # Letter 0 used to read the last image inverted, and a letter past the
    # images raised IndexError.
    with pytest.raises(ValueError, match="has no image"):
        substitute([(1, 2), (3,)], bad)
