"""Exact arithmetic for towers of finite coverings of compact surfaces.

Subgroups of surface groups are concrete coset tables; towers of
characteristic covers, virtual automorphisms between finite-index
subgroups, the torus model on the upper half-plane, and the rational
bundle-exponent ledger are all built from them with certified, replayable
arithmetic.

``import covertower`` loads none of the package's modules.  The first
access of an exported name imports the part that defines it (PEP 562) and
keeps the name in the package namespace.  The parts are:

* the coset core: ``config``, ``words``, ``cosets``, ``enumerate``,
  ``chartower`` and ``vaut``.  Any core name imports ``vaut``, which
  imports the other five, so the core loads as one unit.  Loaded module by
  module, the import of ``chartower`` and ``vaut`` would move out of the
  set-up that first touches the core and into the first germ computation,
  whose time would then include it;
* ``genus_one``, the torus model, which imports only ``errors``;
* ``io`` and ``ledger``, which import ``chartower`` and what it imports,
  but not ``vaut`` (``io`` imports it when it reads a germ or a cycle);
* ``errors``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each part's exported names, in the order of ``__all__``.
_EXPORTS = {
    "config": ("DEFAULT_CONFIG", "RunConfig"),
    "errors": (
        "BudgetExceeded",
        "CovertowerError",
        "IdentificationInvalid",
        "IncompatibleTower",
        "InconsistentInput",
        "IndexOverflow",
        "IntersectionIndexOverflow",
        "NotAnIsomorphism",
        "NotInvariant",
        "NotNormal",
        "NotTransitive",
        "RelatorViolated",
        "SchemaError",
        "SingularMatrix",
    ),
    "words": (
        "GenericPresentation",
        "SurfacePresentation",
        "Word",
        "commutator_word",
        "concat",
        "conjugate_word",
        "dehn_reduce",
        "free_reduce",
        "inverse_word",
        "is_identity",
        "substitute",
        "words_equal",
    ),
    "cosets": (
        "CoveringArrow",
        "DeckGroup",
        "Subgroup",
        "conjugate_subgroup",
        "contains",
        "covering_genus",
        "deck_group",
        "factor_through",
        "full_subgroup",
        "intersect",
        "is_normal",
        "is_subgroup_of",
        "make_subgroup",
        "reidemeister_schreier",
        "restrict_to_cover",
        "rewrite_in_schreier_generators",
        "schreier_generators",
        "twisted_subgroup",
    ),
    "enumerate": ("low_index_subgroups",),
    "chartower": (
        "Automorphism",
        "CharCertificate",
        "CharSubgroup",
        "RelativeCharSubgroup",
        "TowerEdge",
        "TowerGraph",
        "TowerNode",
        "apply_automorphism",
        "build_char_tower",
        "builtin_test_automorphisms",
        "char_core",
        "char_core_within",
        "char_order",
        "fiber_product_preserves_char",
        "handle_swap",
        "homology_cover",
        "inner_automorphism",
        "is_invariant_under",
        "verify_certificate",
    ),
    "vaut": (
        "CyclePath",
        "TwoArrowCycle",
        "VirtualAutomorphism",
        "apply_vaut",
        "bounded_mcl_search",
        "compose",
        "cycle_from_subgroups",
        "from_two_arrow",
        "germ_equals",
        "identity_vaut",
        "inverse",
        "is_mcl_witness",
        "preimage_subgroup",
        "reduce_cycle",
        "validate_vaut",
        "vaut_from_automorphism",
    ),
    "genus_one": (
        "RationalMobius",
        "SublatticeMatrix",
        "UpperHalfPoint",
        "act",
        "compose_mobius",
        "covering_modulus_map",
        "dense_orbit_approx",
        "hnf",
        "i_point",
        "identity_mobius",
        "mobius_from_integer_matrix",
        "mobius_from_rational_matrix",
        "vaut_as_matrix",
    ),
    "io": (
        "canonical_json_bytes",
        "char_subgroup_from_doc",
        "content_hash",
        "cycle_doc",
        "cycle_from_doc",
        "load_doc",
        "store_doc",
        "store_docs",
        "subgroup_doc",
        "subgroup_from_doc",
        "tower_doc",
        "tower_dot",
        "tower_from_doc",
        "vaut_doc",
        "vaut_from_doc",
        "workspace_dir",
    ),
    "ledger": (
        "BundleClass",
        "CurvatureClass",
        "PicTorsionInfo",
        "StratumLabel",
        "UniversalBundle",
        "check_composition_diagram",
        "curvature_of",
        "descent_factor",
        "hurwitz_bound",
        "ledger_report",
        "mumford_exponent",
        "pic_structure",
        "pullback_exponent",
        "serre_dual",
        "tensor_bundles",
        "torsion_residue",
        "universal_bundle",
        "universal_mumford_check",
        "wp_coherence",
        "wp_limit_scale",
        "wp_pullback_coefficient",
    ),
}
_CORE = ("config", "words", "cosets", "enumerate", "chartower", "vaut")
_HOME = {name: part for part, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    part = _HOME.get(name)
    if part is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if part in _CORE:
        _import_module(f"{__name__}.vaut")
    value = getattr(_import_module(f"{__name__}.{part}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
