"""The public surface is what the package itself uses, plus a fixed list.

Every public top-level function or class in ``src/covertower`` must be
referenced by some other top-level statement of the package (imports and
``__init__`` re-exports do not count), or be listed in ``ENTRY_POINTS``
with the construction or trust boundary it serves.  A name that only tests
reach fails here, so it is either given a caller, listed with a reason, or
deleted.

The unchecked builders are private, and only the callers listed in
``UNCHECKED_CALLERS`` use them, each for a reason its inputs are valid.
"""

import ast
from pathlib import Path

import covertower

ENTRY_POINTS = {
    # cosets: the constructions that the package's own pipelines do not call.
    "conjugate_subgroup": "cosets: conjugate subgroups",
    "deck_group": "cosets: deck group of a normal cover",
    "make_subgroup": "trust boundary: a coset table from caller-supplied permutations",
    # chartower: certificates, relative cores and edge tags.
    "char_core_within": "chartower: relative core inside a chosen cover",
    "char_order": "chartower: the yes/no/unknown tag of one covering arrow",
    "fiber_product_preserves_char": "chartower: certificate of an intersection",
    "verify_certificate": "chartower: replay of a characteristic certificate",
    # vaut: germs of ambient automorphisms.
    "vaut_from_automorphism": "vaut: restriction of an ambient automorphism",
    # genus_one: the torus model in closed form.
    "compose_mobius": "genus_one: composition of Mobius maps",
    "vaut_as_matrix": "genus_one: a lattice identification as a Mobius map",
    # ledger: the bundle-exponent ledger.
    "check_composition_diagram": "ledger: pullback along a composite covering",
    "curvature_of": "ledger: curvature class of a bundle class",
    "descent_factor": "ledger: exponent that kills every isotropy action",
    "pic_structure": "ledger: Picard group of the moduli stratum",
    "tensor_bundles": "ledger: tensor product of bundle classes",
    "torsion_residue": "ledger: genus-2 torsion caveat",
    # io: the document formats read back outside the CLI.
    "content_hash": "io: the hash that names a workspace file",
    "cycle_from_doc": "io: reads the cycle/1 document that vaut reduce writes",
}

# Builders that check nothing, and every function that may use one.
UNCHECKED_CALLERS = {
    "_trusted": {
        "enumerate._each_subgroup": "the low-index search emits complete tables "
        "in canonical order after tracing every relator cycle",
        "cosets.intersect": "the orbit of (0, 0) in the product of two "
        "validated actions satisfies every relator",
        "chartower.char_core_within": "each base relator rewrites to a "
        "relator that the validated core satisfies",
        "chartower._abelian_kernel": "its orbit rows are canonical and "
        "transitive, and it checks the relators on them itself",
    },
    "_certified": {
        "vaut.compose": "the composite of two certified germs, with composed "
        "images and witnesses",
        "vaut.identity_vaut": "the Schreier generators, freely reduced, are "
        "their own images and witnesses",
        "vaut.vaut_from_automorphism": "a checked Automorphism and its inverse "
        "along the BFS trees of the domain and of a fully constructed codomain, "
        "reduced products of reduced pieces",
    },
    "_flatten_rows": {
        "chartower.char_core_within": "the core is a table over "
        "restrict_to_cover's Reidemeister-Schreier presentation",
        "vaut.preimage_subgroup": "the flattened rows go through the full "
        "constructor",
    },
}


def _modules():
    src = Path(covertower.__file__).parent
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def _public_definitions(modules):
    return {
        node.name: module
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _referenced_names(modules):
    """Names and attributes read by top-level statements, each outside the
    definition of the name itself; ``__init__`` only re-exports."""
    names = set()
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    modules = _modules()
    defined = _public_definitions(modules)
    unreferenced = set(defined) - _referenced_names(modules)
    unlisted = sorted(f"{defined[n]}.{n}" for n in unreferenced - set(ENTRY_POINTS))
    assert not unlisted, f"public names that nothing in src/ uses: {unlisted}"
    stale = sorted(set(ENTRY_POINTS) - unreferenced)
    assert not stale, f"listed names that are gone or now have a caller: {stale}"


def _scopes(modules):
    """Each top-level function and method, named ``module.function`` or
    ``module.Class.method``, with nested functions inside their enclosing
    one; any other statement is named by its module or class."""
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                yield f"{module}.{stmt.name}", stmt
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{stmt.name}.{item.name}", item
                    else:
                        yield f"{module}.{stmt.name}", item
            else:
                yield module, stmt


def test_only_the_listed_callers_use_the_unchecked_builders():
    users = {name: set() for name in UNCHECKED_CALLERS}
    for scope, stmt in _scopes(_modules()):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in users:
                users[name].add(scope)
    assert users == {name: set(callers) for name, callers in UNCHECKED_CALLERS.items()}
    assert not hasattr(covertower, "flatten_cover_subgroup")
