"""The package loads its parts on first use.

``import covertower`` loads no submodule; an exported name loads its part
(the coset core as one unit, or ``genus_one``, ``io``, ``ledger`` or
``errors``), and each CLI verb loads only the layers it runs.  This test
process already holds every module, so each loading check runs a fresh
interpreter and reads its ``sys.modules`` as it exits.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import covertower

SRC = Path(covertower.__file__).resolve().parents[1]

# The exported names of version 0.1.0, by defining module.
EXPORTED = {
    "config": ("DEFAULT_CONFIG", "RunConfig"),
    "errors": (
        "BudgetExceeded", "CovertowerError", "IdentificationInvalid",
        "IncompatibleTower", "InconsistentInput", "IndexOverflow",
        "IntersectionIndexOverflow", "NotAnIsomorphism", "NotInvariant",
        "NotNormal", "NotTransitive", "RelatorViolated", "SchemaError",
        "SingularMatrix",
    ),
    "words": (
        "GenericPresentation", "SurfacePresentation", "Word", "commutator_word",
        "concat", "conjugate_word", "dehn_reduce", "free_reduce", "inverse_word",
        "is_identity", "substitute", "words_equal",
    ),
    "cosets": (
        "CoveringArrow", "DeckGroup", "Subgroup", "conjugate_subgroup", "contains",
        "covering_genus", "deck_group", "factor_through", "full_subgroup",
        "intersect", "is_normal", "is_subgroup_of", "make_subgroup",
        "reidemeister_schreier", "restrict_to_cover",
        "rewrite_in_schreier_generators", "schreier_generators",
        "twisted_subgroup",
    ),
    "enumerate": ("low_index_subgroups",),
    "chartower": (
        "Automorphism", "CharCertificate", "CharSubgroup", "RelativeCharSubgroup",
        "TowerEdge", "TowerGraph", "TowerNode", "apply_automorphism",
        "build_char_tower", "builtin_test_automorphisms", "char_core",
        "char_core_within", "char_order", "fiber_product_preserves_char",
        "handle_swap", "homology_cover", "inner_automorphism",
        "is_invariant_under", "verify_certificate",
    ),
    "vaut": (
        "CyclePath", "TwoArrowCycle", "VirtualAutomorphism", "apply_vaut",
        "bounded_mcl_search", "compose", "cycle_from_subgroups", "from_two_arrow",
        "germ_equals", "identity_vaut", "inverse", "is_mcl_witness",
        "preimage_subgroup", "reduce_cycle", "validate_vaut",
        "vaut_from_automorphism",
    ),
    "genus_one": (
        "RationalMobius", "SublatticeMatrix", "UpperHalfPoint", "act",
        "compose_mobius", "covering_modulus_map", "dense_orbit_approx", "hnf",
        "i_point", "identity_mobius", "mobius_from_integer_matrix",
        "mobius_from_rational_matrix", "vaut_as_matrix",
    ),
    "io": (
        "canonical_json_bytes", "char_subgroup_from_doc", "content_hash",
        "cycle_doc", "cycle_from_doc", "load_doc", "store_doc", "store_docs",
        "subgroup_doc", "subgroup_from_doc", "tower_doc", "tower_dot",
        "tower_from_doc", "vaut_doc", "vaut_from_doc", "workspace_dir",
    ),
    "ledger": (
        "BundleClass", "CurvatureClass", "PicTorsionInfo", "StratumLabel",
        "UniversalBundle", "check_composition_diagram", "curvature_of",
        "descent_factor", "hurwitz_bound", "ledger_report", "mumford_exponent",
        "pic_structure", "pullback_exponent", "serre_dual", "tensor_bundles",
        "torsion_residue", "universal_bundle", "universal_mumford_check",
        "wp_coherence", "wp_limit_scale", "wp_pullback_coefficient",
    ),
}
CORE = {"config", "words", "cosets", "enumerate", "chartower", "vaut"}


def _home(name):
    return next(part for part, names in EXPORTED.items() if name in names)


def test_all_is_the_pinned_list():
    pinned = [name for names in EXPORTED.values() for name in names]
    assert len(pinned) == len(set(pinned)) == 132
    assert covertower.__all__ == pinned


def test_version_matches_the_project():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert covertower.__version__ == declared == "0.1.0"


def test_every_name_is_its_modules_object():
    namespace = {}
    exec("from covertower import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(covertower.__all__)
    for name in covertower.__all__:
        value = getattr(importlib.import_module(f"covertower.{_home(name)}"), name)
        assert getattr(covertower, name) is vars(covertower)[name] is value
        assert namespace[name] is value
    listed = dir(covertower)
    assert listed == sorted(listed)
    assert set(covertower.__all__) | {"__version__"} <= set(listed)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'covertower' has no attribute 'nope'$"):
        covertower.nope
    assert not hasattr(covertower, "flatten_cover_subgroup")
    assert not hasattr(covertower, "_trusted")


# Run first in each child: at exit, whatever way the process leaves, write
# the loaded ``covertower`` submodules as the last line of stderr.
_REPORT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(*sorted(m.split('.')[1] for m in sys.modules"
    " if m.startswith('covertower.')), file=sys.stderr))\n"
)
# ``python -m covertower.cli ARGV`` after the report is set up.
_CLI = "import runpy\nrunpy.run_module('covertower.cli', run_name='__main__', alter_sys=True)"


def _loaded(code, *argv):
    """Run ``code`` with ``argv`` in a fresh interpreter; return its exit
    code, the ``covertower`` submodules it loaded and its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT + code, *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    report = proc.stderr.decode().splitlines()[-1]
    return proc.returncode, set(report.split()), proc.stdout


def test_a_bare_import_loads_no_submodule():
    code, modules, _ = _loaded("import covertower\ncovertower.__version__")
    assert code == 0
    assert modules == set()


def test_a_torus_name_loads_genus_one_alone():
    code, modules, _ = _loaded("import covertower\ncovertower.i_point()")
    assert code == 0
    assert modules == {"genus_one", "errors"}


@pytest.mark.parametrize("name", ["RunConfig", "Subgroup", "compose"])
def test_a_core_name_loads_the_core_as_one_unit(name):
    code, modules, _ = _loaded(f"import covertower\ncovertower.{name}")
    assert code == 0
    assert modules == CORE | {"errors"}


def test_each_cli_verb_loads_only_its_layers(tmp_path):
    def cli(*argv):
        code, modules, out = _loaded(_CLI, "--workspace", str(tmp_path), *argv)
        assert code == 0, out
        return modules, out

    modules, out = cli("enumerate", "--genus", "2", "--max-index", "2")
    assert not modules & {"vaut", "genus_one", "ledger"}
    subgroup = json.loads(out)["files"][0]
    modules, out = cli("tower", "build", "--genus", "2", "--step", "homology:2")
    assert not modules & {"vaut", "genus_one", "ledger"}
    tower = json.loads(out)["file"]
    modules, _ = cli("export", "--tower", tower)
    assert not modules & {"vaut", "genus_one", "ledger"}
    modules, _ = cli("ledger", "check", "--tower", tower)
    assert "ledger" in modules and not modules & {"vaut", "genus_one"}
    modules, _ = cli("genus1", "act", "--matrix", "1,1,0,1", "--point", "0,1")
    assert "genus_one" in modules and "vaut" not in modules
    modules, _ = cli("vaut", "identity", "--subgroup", subgroup)
    assert "vaut" in modules and not modules & {"genus_one", "ledger"}
