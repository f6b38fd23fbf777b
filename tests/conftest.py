import pytest
from hypothesis import settings

from covertower import (
    Subgroup,
    SurfacePresentation,
    free_reduce,
    homology_cover,
    low_index_subgroups,
    validate_vaut,
)
from covertower import vaut


# Continuous integration runs the property tests with fixed examples
# (``--hypothesis-profile=ci``), so a failure there reproduces on rerun,
# and with no deadline, so a slow runner does not fail a correct example.
settings.register_profile("ci", derandomize=True, deadline=None)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "trusted_path: run the library's trusted builders unchecked, as outside the tests",
    )


_TRUSTED_SUBGROUP = Subgroup.__dict__["_trusted"]
_CERTIFIED = vaut._certified


def _checked_subgroup(cls, pres, table):
    sub = Subgroup(pres, table)
    assert sub.table == table, "a trusted table was not canonical"
    return sub


def _checked_vaut(*fields):
    v = _CERTIFIED(*fields)
    for w in (*v.images, *v.inverse_images):
        assert free_reduce(w) == w, "a certified word is not freely reduced"
    validate_vaut(v)
    return v


@pytest.fixture(scope="session", autouse=True)
def full_validation():
    """Route both trusted builders through the full validators.

    The library builds the tables of the low-index search, of ``intersect``,
    of ``chartower.char_core_within`` (rows from ``cosets._flatten_rows``)
    and of ``chartower._abelian_kernel`` (which checks only the relators)
    with ``Subgroup._trusted`` and the germs of ``compose``,
    ``identity_vaut`` and ``vaut_from_automorphism`` with
    ``vaut._certified``, and checks neither in full.  In the tests every such table
    goes through the full ``Subgroup`` constructor and must come back
    unchanged (it was already canonical), and every certified germ must have
    freely reduced images and witnesses, since its piece tables do not
    reduce them, and goes through ``validate_vaut``.  Session scope puts the
    session fixtures under the same checks.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subgroup, "_trusted", classmethod(_checked_subgroup))
        mp.setattr(vaut, "_certified", _checked_vaut)
        yield


@pytest.fixture(autouse=True)
def trusted_path(request, monkeypatch):
    """A test marked ``trusted_path`` runs the trusted builders unchecked."""
    if request.node.get_closest_marker("trusted_path"):
        monkeypatch.setattr(Subgroup, "_trusted", _TRUSTED_SUBGROUP)
        monkeypatch.setattr(vaut, "_certified", _CERTIFIED)


@pytest.fixture(scope="session")
def pres2():
    return SurfacePresentation(2)


@pytest.fixture(scope="session")
def index_two_subgroups(pres2):
    return [s for s in low_index_subgroups(pres2, 2) if s.index == 2]


@pytest.fixture(scope="session")
def mod4_cover(pres2):
    """The mod-4 homology cover of genus 2, of index 256."""
    return homology_cover(pres2, 4).subgroup


@pytest.fixture(scope="session")
def ledger_tower_steps():
    """The steps of perfbench's tower-ledger build: char-core:2,3 homology:2,3,6,8."""
    return [{"kind": "char-core", "index": 2, "ordinal": 3}] + [
        {"kind": "homology", "n": n} for n in (2, 3, 6, 8)
    ]
