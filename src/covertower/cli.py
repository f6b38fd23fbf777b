"""Command-line surface: reproducible pipelines over the workspace store.

Every command prints one canonical JSON document on stdout and writes any
produced artifacts into the workspace as content-addressed files, so a
rerun with identical inputs is byte-identical.  Errors leave through
stable exit codes: 2 usage, 3 exhausted budget, 4 failed mathematical
validation, 5 index overflow, 6 schema or file problems; diagnostics go
to stderr as JSON.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .chartower import (
    CharSubgroup,
    build_char_tower,
    char_core,
    homology_cover,
)
from .config import DEFAULT_CONFIG, RunConfig
from .cosets import Subgroup, intersect
from .enumerate import low_index_subgroups
from .errors import CovertowerError, InconsistentInput, SchemaError
from .io import (
    _pieces,
    _write_atomic,
    canonical_json_bytes,
    cycle_doc,
    load_doc,
    store_doc,
    store_docs,
    subgroup_doc,
    subgroup_from_doc,
    tower_doc,
    tower_dot,
    tower_from_doc,
    vaut_doc,
    vaut_from_doc,
    workspace_dir,
)
from .words import SurfacePresentation

# Every workspace verb loads the modules above.  ``vaut``, ``genus_one``
# and ``ledger`` are imported by the handlers and converters of their own
# verbs, so a command loads only the layers it runs.
if TYPE_CHECKING:
    from .genus_one import RationalMobius, UpperHalfPoint

EXIT_OK = 0


class UsageError(CovertowerError):
    """A command-line argument is outside the range its command accepts."""

    exit_code = 2


def _emit(doc: dict) -> None:
    out = sys.stdout.buffer
    for piece in _pieces(doc):
        out.write(piece)


def _diagnose(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.buffer.write(canonical_json_bytes(doc))


def _resolve(root: Path, raw: str) -> Path:
    path = Path(raw)
    if path.exists():
        return path
    candidate = root / raw
    if candidate.exists():
        return candidate
    return path  # let load_doc report the failure


def _config_of(args) -> RunConfig:
    if args.config is None:
        return DEFAULT_CONFIG
    try:
        return RunConfig.load(args.config)
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad config: {exc}") from exc


def _load_subgroup(root: Path, raw: str) -> Subgroup:
    return subgroup_from_doc(load_doc(_resolve(root, raw)))


# ---------------------------------------------------------------------------
# Argument converters (argparse maps their failures to usage errors).


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _int_matrix(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("matrix needs four entries a,b,c,d")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("matrix entries must be integers") from exc
    return ((a, b), (c, d))


def _rational_matrix(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("matrix needs four entries a,b,c,d")
    a, b, c, d = (_rational(p) for p in parts)
    if a * d - b * c < 0:
        raise argparse.ArgumentTypeError("orientation-reversing matrices are not admitted")
    return ((a, b), (c, d))


_POINT_RE = re.compile(r"^(?P<re>[^+]+?)(?P<sign>[+-])(?P<im>[^+-]+)i$")


def _point(text: str) -> UpperHalfPoint:
    from .genus_one import UpperHalfPoint

    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError("point needs two coordinates x,y")
        x, y = (_rational(p) for p in parts)
    else:
        match = _POINT_RE.match(text.replace(" ", ""))
        if match is None:
            raise argparse.ArgumentTypeError(
                f"cannot parse point {text!r}; use x,y or x+yi"
            )
        x = _rational(match.group("re"))
        y = _rational(match.group("im"))
        if match.group("sign") == "-":
            y = -y
    if y <= 0:
        raise argparse.ArgumentTypeError("point must lie in the upper half-plane")
    return UpperHalfPoint(x, y)


def _count(text: str, least: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{what} needs an integer") from exc
    if value < least:
        raise argparse.ArgumentTypeError(f"{what} must be at least {least}")
    return value


def _step(text: str) -> dict:
    kind, _, rest = text.partition(":")
    if kind == "homology":
        return {"kind": "homology", "n": _count(rest, 1, "homology step")}
    if kind == "char-core":
        parts = rest.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError("char-core step needs index,ordinal")
        return {
            "kind": "char-core",
            "index": _count(parts[0], 1, "char-core index"),
            "ordinal": _count(parts[1], 0, "char-core ordinal"),
        }
    if kind == "subgroup":
        if not rest:
            raise argparse.ArgumentTypeError("subgroup step needs a file")
        return {"kind": "subgroup-file", "file": rest}
    raise argparse.ArgumentTypeError(f"unknown step kind {kind!r}")


_genus = partial(_count, least=2, what="genus")


def _fraction_doc(q) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def _matrix_out(m: RationalMobius) -> list:
    return [[_fraction_doc(x) for x in row] for row in m.entries]


def _point_out(p: UpperHalfPoint) -> dict:
    if p.exact:
        return {"real": _fraction_doc(p.real), "imag": _fraction_doc(p.imag)}
    return {"real": float(p.real), "imag": float(p.imag)}


# ---------------------------------------------------------------------------
# Command handlers.


def _cmd_enumerate(args) -> int:
    pres = SurfacePresentation(args.genus)
    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    subs = low_index_subgroups(pres, args.max_index, cfg)
    counts: dict[str, int] = {}
    for sub in subs:
        counts[str(sub.index)] = counts.get(str(sub.index), 0) + 1

    def docs():
        # Pop each subgroup as its document is built, so the list shrinks
        # while the store's names grow.
        subs.reverse()
        while subs:
            yield subgroup_doc(subs.pop())

    files = store_docs(root, docs())
    files.sort()
    manifest = {
        "schema": "manifest/1",
        "kind": "enumerate",
        "genus": args.genus,
        "maxIndex": args.max_index,
        "seed": cfg.seed,
        "counts": counts,
        "files": files,
    }
    name = f"manifest-enumerate-g{args.genus}-i{args.max_index}.json"
    _write_atomic(root / name, _pieces(manifest))
    _emit(manifest)
    return EXIT_OK


def _store_char(root: Path, char: CharSubgroup) -> str:
    return store_doc(root, subgroup_doc(char)).name


def _cmd_char_core(args) -> int:
    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    sub = _load_subgroup(root, args.subgroup)
    core = char_core(sub, cfg)
    name = _store_char(root, core)
    _emit(
        {
            "file": name,
            "index": core.subgroup.index,
            "certificate": core.certificate.kind,
        }
    )
    return EXIT_OK


def _cmd_char_homology(args) -> int:
    pres = SurfacePresentation(args.genus)
    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    cover = homology_cover(pres, args.n, cfg)
    name = _store_char(root, cover)
    _emit(
        {
            "file": name,
            "index": cover.subgroup.index,
            "certificate": cover.certificate.kind,
        }
    )
    return EXIT_OK


def _cmd_intersect(args) -> int:
    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    a = _load_subgroup(root, args.a)
    b = _load_subgroup(root, args.b)
    result = intersect(a, b, cfg.max_result_index)
    name = store_doc(root, subgroup_doc(result)).name
    _emit({"file": name, "index": result.index})
    return EXIT_OK


def _cmd_tower_build(args) -> int:
    pres = SurfacePresentation(args.genus)
    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    steps = []
    for step in args.step or []:
        if step["kind"] == "subgroup-file":
            doc = load_doc(_resolve(root, step["file"]))
            steps.append({"kind": "subgroup", "subgroup": subgroup_from_doc(doc)})
        else:
            steps.append(step)
    tower = build_char_tower(pres, steps, cfg)
    doc = tower_doc(tower)
    name = store_doc(root, doc).name
    out = {
        "file": name,
        "nodes": len(tower.nodes),
        "edges": len(tower.edges),
    }
    if args.dot:
        dot_name = name[: -len(".json")] + ".dot"
        _write_atomic(root / dot_name, [tower_dot(tower).encode("utf-8")])
        out["dot"] = dot_name
    _emit(out)
    return EXIT_OK


def _cmd_export(args) -> int:
    root = workspace_dir(args.workspace)
    tower = tower_from_doc(load_doc(_resolve(root, args.tower)))
    if args.dot:
        sys.stdout.write(tower_dot(tower))
    else:
        _emit(tower_doc(tower))
    return EXIT_OK


def _parse_m_range(text: str) -> range:
    match = re.match(r"^(-?\d+)\.\.(-?\d+)$", text)
    if match is None:
        raise argparse.ArgumentTypeError("m-range must look like -3..4")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise argparse.ArgumentTypeError("empty m-range")
    return range(lo, hi + 1)


def _cmd_ledger_check(args) -> int:
    from .ledger import ledger_report

    root = workspace_dir(args.workspace)
    tower = tower_from_doc(load_doc(_resolve(root, args.tower)))
    report = ledger_report(tower, args.m_range, tower_ref=Path(args.tower).name)
    store_doc(root, report)
    _emit(report)
    return EXIT_OK


def _load_vaut(root: Path, raw: str):
    from .vaut import validate_vaut

    v = vaut_from_doc(load_doc(_resolve(root, raw)))
    validate_vaut(v)
    return v


def _cmd_vaut_identity(args) -> int:
    from .vaut import identity_vaut

    root = workspace_dir(args.workspace)
    sub = _load_subgroup(root, args.subgroup)
    v = identity_vaut(sub)
    name = store_doc(root, vaut_doc(v)).name
    _emit({"file": name, "domainIndex": v.domain.index})
    return EXIT_OK


def _cmd_vaut_compose(args) -> int:
    from .vaut import compose

    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    v = _load_vaut(root, args.first)
    w = _load_vaut(root, args.second)
    out = compose(v, w, cfg)
    name = store_doc(root, vaut_doc(out)).name
    _emit({"file": name, "domainIndex": out.domain.index})
    return EXIT_OK


def _cmd_vaut_invert(args) -> int:
    from .vaut import inverse

    root = workspace_dir(args.workspace)
    out = inverse(_load_vaut(root, args.vaut))
    name = store_doc(root, vaut_doc(out)).name
    _emit({"file": name, "domainIndex": out.domain.index})
    return EXIT_OK


def _cmd_vaut_germ_eq(args) -> int:
    from .vaut import germ_equals

    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    v = _load_vaut(root, args.first)
    w = _load_vaut(root, args.second)
    _emit({"germEqual": germ_equals(v, w, cfg)})
    return EXIT_OK


def _cmd_vaut_reduce(args) -> int:
    from .vaut import cycle_from_subgroups, from_two_arrow, reduce_cycle

    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    hops = [_load_subgroup(root, raw) for raw in args.subgroups]
    try:
        path = cycle_from_subgroups(hops)
    except ValueError as exc:
        raise InconsistentInput(str(exc)) from exc
    cycle = reduce_cycle(path, args.order, cfg)
    vaut = from_two_arrow(cycle)
    cycle_name, vaut_name = store_docs(root, [cycle_doc(cycle), vaut_doc(vaut)])
    _emit(
        {
            "cycle": cycle_name,
            "vaut": vaut_name,
            "domainIndex": vaut.domain.index,
        }
    )
    return EXIT_OK


def _cmd_vaut_mcl_search(args) -> int:
    from .vaut import bounded_mcl_search

    root = workspace_dir(args.workspace)
    cfg = _config_of(args)
    v = _load_vaut(root, args.vaut)
    witness = bounded_mcl_search(v, args.depth, cfg)
    if witness is None:
        _emit({"found": False})
    else:
        name = store_doc(root, subgroup_doc(witness)).name
        _emit({"found": True, "file": name, "index": witness.index})
    return EXIT_OK


def _cmd_genus1_modulus_map(args) -> int:
    from .genus_one import covering_modulus_map, hnf

    lattice = hnf(args.lattice)
    m = covering_modulus_map(lattice)
    _emit({"lattice": [list(r) for r in lattice.entries], "matrix": _matrix_out(m)})
    return EXIT_OK


def _cmd_genus1_act(args) -> int:
    from .genus_one import act, mobius_from_rational_matrix

    m = mobius_from_rational_matrix(args.matrix)
    image = act(m, args.point)
    _emit({"matrix": _matrix_out(m), "image": _point_out(image)})
    return EXIT_OK


def _cmd_genus1_orbit(args) -> int:
    from .genus_one import act, dense_orbit_approx, i_point

    if args.eps <= 0:
        raise UsageError("--eps must be positive")
    source = args.source if args.source is not None else i_point()
    m = dense_orbit_approx(source, args.target, args.eps)
    image = act(m, source)
    if image.exact and args.target.exact:
        error_doc = _fraction_doc(
            (
                (image.real - args.target.real) ** 2
                + (image.imag - args.target.imag) ** 2
            )
        )
        _emit({"matrix": _matrix_out(m), "errorSquared": error_doc})
    else:
        err = abs(image.as_complex() - args.target.as_complex())
        _emit({"matrix": _matrix_out(m), "error": err})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.


class _Parser(argparse.ArgumentParser):
    """Parser (and, by inheritance, subparsers) whose errors print as JSON."""

    def error(self, message: str):
        _diagnose(UsageError(message))
        sys.exit(UsageError.exit_code)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covertower",
        description="Exact computations in towers of surface coverings.",
    )
    parser.add_argument(
        "--workspace",
        default=None,
        help="artifact directory (default: $COVERTOWER_WORKSPACE or ./covertower-workspace)",
    )
    parser.add_argument("--config", default=None, help="RunConfig JSON file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list subgroups up to an index bound")
    p.add_argument("--genus", type=_genus, required=True)
    p.add_argument("--max-index", type=partial(_count, least=1, what="max-index"), required=True)
    p.set_defaults(func=_cmd_enumerate)

    char = sub.add_parser("char", help="characteristic subgroup constructions")
    char_sub = char.add_subparsers(dest="char_command", required=True)
    p = char_sub.add_parser("core", help="characteristic core of a subgroup")
    p.add_argument("--subgroup", required=True)
    p.set_defaults(func=_cmd_char_core)
    p = char_sub.add_parser("homology", help="mod-n homology cover")
    p.add_argument("--genus", type=_genus, required=True)
    p.add_argument("--n", type=partial(_count, least=1, what="n"), required=True)
    p.set_defaults(func=_cmd_char_homology)

    p = sub.add_parser("intersect", help="fiber product of two covers")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_intersect)

    tower = sub.add_parser("tower", help="tower assembly")
    tower_sub = tower.add_subparsers(dest="tower_command", required=True)
    p = tower_sub.add_parser("build", help="build a tower from steps")
    p.add_argument("--genus", type=_genus, required=True)
    p.add_argument("--step", action="append", type=_step)
    p.add_argument("--dot", action="store_true", help="also write a DOT file")
    p.set_defaults(func=_cmd_tower_build)

    p = sub.add_parser("export", help="re-emit a stored tower")
    p.add_argument("--tower", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_export)

    ledger = sub.add_parser("ledger", help="bundle exponent ledger")
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    p = ledger_sub.add_parser("check", help="per-stratum exponents and checks")
    p.add_argument("--tower", required=True)
    p.add_argument("--m-range", type=_parse_m_range, default=range(0, 3))
    p.set_defaults(func=_cmd_ledger_check)

    vaut = sub.add_parser("vaut", help="virtual automorphism arithmetic")
    vaut_sub = vaut.add_subparsers(dest="vaut_command", required=True)
    p = vaut_sub.add_parser("identity", help="identity germ on a subgroup")
    p.add_argument("--subgroup", required=True)
    p.set_defaults(func=_cmd_vaut_identity)
    p = vaut_sub.add_parser("compose", help="apply first, then second")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_vaut_compose)
    p = vaut_sub.add_parser("invert", help="swap domain and codomain")
    p.add_argument("vaut")
    p.set_defaults(func=_cmd_vaut_invert)
    p = vaut_sub.add_parser("germ-eq", help="compare two germs")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_vaut_germ_eq)
    p = vaut_sub.add_parser("reduce", help="reduce a root-to-root zigzag")
    p.add_argument("subgroups", nargs="+", help="odd list of hop subgroup files")
    p.add_argument("--order", choices=("left", "right"), default="left")
    p.set_defaults(func=_cmd_vaut_reduce)
    p = vaut_sub.add_parser("mcl-search", help="look for a setwise-fixed cover")
    p.add_argument("vaut")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=_cmd_vaut_mcl_search)

    genus1 = sub.add_parser("genus1", help="torus model")
    genus1_sub = genus1.add_subparsers(dest="genus1_command", required=True)
    p = genus1_sub.add_parser("modulus-map", help="modulus map of a sublattice")
    p.add_argument("--lattice", type=_int_matrix, required=True)
    p.set_defaults(func=_cmd_genus1_modulus_map)
    p = genus1_sub.add_parser("act", help="apply a matrix to a point")
    p.add_argument("--matrix", type=_rational_matrix, required=True)
    p.add_argument("--point", type=_point, required=True)
    p.set_defaults(func=_cmd_genus1_act)
    p = genus1_sub.add_parser("orbit", help="constructive dense-orbit approximant")
    p.add_argument("--target", type=_point, required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--source", type=_point, default=None)
    p.set_defaults(func=_cmd_genus1_orbit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CovertowerError as exc:
        _diagnose(exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
