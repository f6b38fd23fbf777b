import pytest

from covertower import SurfacePresentation, homology_cover, low_index_subgroups


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
