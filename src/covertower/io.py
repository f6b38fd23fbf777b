"""Versioned JSON documents, canonical bytes, and the workspace store.

Every persisted object carries a ``schema`` tag (subgroup/1, tower/1,
vaut/1, cycle/1, ledger/1).  Serialization is canonical: sorted keys,
fixed separators, one trailing newline, no timestamps; identical inputs
therefore produce byte-identical files, and the workspace store names
files by content hash.

The canonical bytes are produced in bounded pieces (``_pieces``), with
the same bytes as one ``json.dumps``: what is or holds a list longer than
``_BLOCK`` elements or a list of objects is opened (an object key by key,
a list of objects item by item, a long list ``_BLOCK`` elements at a
time), and everything else goes to the C encoder whole, so writing a
document, the index, a manifest or stdout never holds its whole
encoding.  The store writes each document to a temporary file while
hashing it, then renames it to its content name, or drops it when a file
of that name and size is already there; it rewrites the index only when
an entry was added.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .chartower import (
    Automorphism,
    CharCertificate,
    CharSubgroup,
    TowerEdge,
    TowerGraph,
    TowerNode,
)
from .cosets import Subgroup, covering_genus, factor_through
from .errors import SchemaError
from .words import Presentation, SurfacePresentation, Word

if TYPE_CHECKING:
    from .vaut import TwoArrowCycle, VirtualAutomorphism

SCHEMAS = ("subgroup/1", "tower/1", "vaut/1", "cycle/1", "ledger/1")

# The C encoder with the canonical settings, for leaves and blocks.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# Elements of a long list encoded in one call: a block of table rows is a
# few kilobytes.
_BLOCK = 256


def _array(blocks: Iterable[list]) -> Iterator[str]:
    """A JSON array given as consecutive non-empty blocks of its elements."""
    sep = "["
    for block in blocks:
        yield sep + _encode(block)[1:-1]
        sep = ","
    yield "[]" if sep == "[" else "]"


def _opens(value) -> bool:
    """Whether ``_text`` splits ``value``: it is, or holds, a list longer
    than ``_BLOCK`` or a list of objects."""
    if isinstance(value, dict):
        return any(_opens(item) for item in value.values())
    if isinstance(value, list):
        return len(value) > _BLOCK or (bool(value) and isinstance(value[0], dict))
    return False


def _text(value) -> Iterator[str]:
    """The canonical JSON text of ``value`` in pieces, without the newline.

    Whatever holds no long list and no list of objects (a table of at most
    ``_BLOCK`` rows, say) is one piece from the C encoder, as is an object
    whose keys json itself must coerce or refuse.
    """
    if not _opens(value) or (
        isinstance(value, dict) and not all(isinstance(key, str) for key in value)
    ):
        yield _encode(value)
    elif isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            item = value[key]
            if _opens(item):
                yield sep + _encode(key) + ":"
                yield from _text(item)
            else:
                yield sep + _encode({key: item})[1:-1]
            sep = ","
        yield "}"
    elif len(value) > _BLOCK:
        yield from _array(
            value[start : start + _BLOCK] for start in range(0, len(value), _BLOCK)
        )
    else:
        sep = "["
        for item in value:
            yield sep
            yield from _text(item)
            sep = ","
        yield "]"


def _pieces(doc) -> Iterator[bytes]:
    """``canonical_json_bytes(doc)`` in pieces: an unsplit value with its
    key, a key, a bracket, or a block of a long list."""
    for piece in _text(doc):
        yield piece.encode("utf-8")
    yield b"\n"


def canonical_json_bytes(doc: dict) -> bytes:
    return b"".join(_pieces(doc))


def content_hash(doc: dict) -> str:
    digest = hashlib.sha256()
    for piece in _pieces(doc):
        digest.update(piece)
    return digest.hexdigest()


def _require(doc: dict, key: str, kind: type):
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise SchemaError(f"key {key!r} must be an integer")
    if not isinstance(value, kind):
        raise SchemaError(f"key {key!r} has the wrong type")
    return value


def _check_schema(doc: dict, expected: str) -> None:
    tag = _require(doc, "schema", str)
    if tag != expected:
        raise SchemaError(f"expected schema {expected!r}, found {tag!r}")


def _word_doc(w: Word) -> list[int]:
    return [int(x) for x in w]


def _word_from(raw, pres: Presentation) -> Word:
    k = pres.generator_count
    if not isinstance(raw, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and 0 < abs(x) <= k for x in raw
    ):
        raise SchemaError(f"words must be lists of nonzero integers of size at most {k}")
    return tuple(raw)


def _words_doc(words: Sequence[Word]) -> list[list[int]]:
    return [_word_doc(w) for w in words]


def _words_from(raw, pres: Presentation) -> tuple[Word, ...]:
    if not isinstance(raw, list):
        raise SchemaError("expected a list of words")
    return tuple(_word_from(w, pres) for w in raw)


# ---------------------------------------------------------------------------
# Subgroups and certificates.


def _automorphism_doc(phi: Automorphism) -> dict:
    return {
        "name": phi.name,
        "images": _words_doc(phi.images),
        "inverseImages": _words_doc(phi.inverse_images),
    }


def _automorphism_from(raw, pres: SurfacePresentation) -> Automorphism:
    if not isinstance(raw, dict):
        raise SchemaError("automorphism entries must be objects")
    name = _require(raw, "name", str)
    images = _words_from(_require(raw, "images", list), pres)
    inverse = _words_from(_require(raw, "inverseImages", list), pres)
    try:
        return Automorphism(pres, images, inverse, name)
    except ValueError as exc:
        raise SchemaError(f"bad automorphism {name!r}: {exc}") from exc


def _certificate_doc(cert: CharCertificate) -> dict:
    doc: dict = {"kind": cert.kind, "partial": bool(cert.partial)}
    if cert.level is not None:
        doc["level"] = int(cert.level)
    if cert.auts:
        doc["auts"] = [_automorphism_doc(a) for a in cert.auts]
    if cert.parents:
        doc["parents"] = [subgroup_doc(p) for p in cert.parents]
    return doc


def _certificate_from(raw, pres: SurfacePresentation) -> CharCertificate:
    if not isinstance(raw, dict):
        raise SchemaError("certificate must be an object")
    kind = _require(raw, "kind", str)
    level = None
    if "level" in raw:
        level = _require(raw, "level", int)
        if level < 1:
            raise SchemaError("certificate level must be at least 1")
    auts = raw.get("auts", [])
    parents = raw.get("parents", [])
    if not isinstance(auts, list) or not isinstance(parents, list):
        raise SchemaError("certificate auts and parents must be lists")
    auts = tuple(_automorphism_from(a, pres) for a in auts)
    parents = tuple(char_subgroup_from_doc(p) for p in parents)
    partial = bool(raw.get("partial", False))
    try:
        return CharCertificate(kind, level, auts, parents, partial)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def subgroup_doc(sub: Union[Subgroup, CharSubgroup]) -> dict:
    certificate = None
    if isinstance(sub, CharSubgroup):
        certificate = sub.certificate
        sub = sub.subgroup
    if not isinstance(sub.pres, SurfacePresentation):
        raise SchemaError("only base-surface subgroups are serialized")
    doc: dict = {
        "schema": "subgroup/1",
        "genus": sub.pres.genus,
        "index": sub.index,
        "basepoint": 0,
        "table": [list(row) for row in sub.table],
    }
    if certificate is not None:
        doc["certificate"] = _certificate_doc(certificate)
    return doc


def subgroup_from_doc(doc: dict) -> Subgroup:
    _check_schema(doc, "subgroup/1")
    genus = _require(doc, "genus", int)
    if genus < 2:
        raise SchemaError("genus must be at least 2")
    table_raw = _require(doc, "table", list)
    basepoint = _require(doc, "basepoint", int)
    index = _require(doc, "index", int)
    pres = SurfacePresentation(genus)
    rows = []
    for row in table_raw:
        if not isinstance(row, list) or len(row) != 2 * genus or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in row
        ):
            raise SchemaError("table rows must list one target per generator")
        rows.append(tuple(row))
    if len(rows) != index:
        raise SchemaError("declared index does not match the table")
    try:
        return Subgroup(pres, tuple(rows), basepoint)
    except ValueError as exc:
        raise SchemaError(f"bad coset table: {exc}") from exc


def char_subgroup_from_doc(doc: dict) -> CharSubgroup:
    sub = subgroup_from_doc(doc)
    if "certificate" not in doc:
        raise SchemaError("certified subgroup document lacks a certificate")
    pres = sub.pres
    assert isinstance(pres, SurfacePresentation)
    return CharSubgroup(sub, _certificate_from(doc["certificate"], pres))


# ---------------------------------------------------------------------------
# Towers.


def tower_doc(tower: TowerGraph) -> dict:
    nodes = []
    for node in tower.nodes:
        nodes.append(
            {
                "name": node.name,
                "degree": node.degree,
                "genus": node.genus,
                "subgroup": subgroup_doc(node.char),
            }
        )
    edges = [
        {
            "sub": e.sub,
            "super": e.super,
            "relativeDegree": e.relative_degree,
            "charTag": e.char_tag,
        }
        for e in tower.edges
    ]
    return {
        "schema": "tower/1",
        "genus": tower.pres.genus,
        "nodes": nodes,
        "edges": edges,
    }


def tower_from_doc(doc: dict) -> TowerGraph:
    _check_schema(doc, "tower/1")
    genus = _require(doc, "genus", int)
    if genus < 2:
        raise SchemaError("genus must be at least 2")
    pres = SurfacePresentation(genus)
    nodes = []
    subgroups: dict[str, Subgroup] = {}
    for raw in _require(doc, "nodes", list):
        if not isinstance(raw, dict):
            raise SchemaError("tower nodes must be objects")
        name = _require(raw, "name", str)
        if name in subgroups:
            raise SchemaError(f"duplicate node name {name!r}")
        char = char_subgroup_from_doc(_require(raw, "subgroup", dict))
        if char.subgroup.pres != pres:
            raise SchemaError(f"node {name!r}: subgroup of a different genus")
        degree = _require(raw, "degree", int)
        node_genus = _require(raw, "genus", int)
        if degree != char.subgroup.index:
            raise SchemaError(f"node {name!r}: degree does not match the table")
        if node_genus != covering_genus(char.subgroup):
            raise SchemaError(f"node {name!r}: genus does not match the table")
        nodes.append(TowerNode(name, char, node_genus, degree))
        subgroups[name] = char.subgroup
    edges = []
    for raw in _require(doc, "edges", list):
        if not isinstance(raw, dict):
            raise SchemaError("tower edges must be objects")
        sub = _require(raw, "sub", str)
        sup = _require(raw, "super", str)
        if sub not in subgroups or sup not in subgroups:
            raise SchemaError("edge references an unknown node")
        tag = _require(raw, "charTag", str)
        if tag not in ("yes", "no", "unknown"):
            raise SchemaError(f"unknown characteristic tag {tag!r}")
        degree = _require(raw, "relativeDegree", int)
        arrow = factor_through(subgroups[sub], subgroups[sup])
        if arrow is None:
            raise SchemaError(f"edge {sub!r} -> {sup!r}: no covering arrow")
        if degree != arrow.relative_degree:
            raise SchemaError(
                f"edge {sub!r} -> {sup!r}: relative degree is {arrow.relative_degree}"
            )
        edges.append(TowerEdge(sub, sup, degree, tag))
    return TowerGraph(pres, tuple(nodes), tuple(edges))


def tower_dot(tower: TowerGraph) -> str:
    """Deterministic DOT rendering: arrows point from finer to coarser."""
    lines = ["digraph tower {"]
    for node in sorted(tower.nodes, key=lambda n: (n.degree, n.name)):
        lines.append(
            f'  "{node.name}" [label="{node.name} deg={node.degree} '
            f'genus={node.genus}"];'
        )
    for edge in sorted(tower.edges, key=lambda e: (e.sub, e.super)):
        lines.append(
            f'  "{edge.sub}" -> "{edge.super}" '
            f'[label="{edge.relative_degree} {edge.char_tag}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Virtual automorphisms and cycles.  The readers import ``vaut`` when they
# run, so the store and the subgroup and tower codecs do not load it.


def vaut_doc(v: VirtualAutomorphism) -> dict:
    return {
        "schema": "vaut/1",
        "domain": subgroup_doc(v.domain),
        "codomain": subgroup_doc(v.codomain),
        "images": _words_doc(v.images),
        "inverseImages": _words_doc(v.inverse_images),
    }


def vaut_from_doc(doc: dict) -> VirtualAutomorphism:
    from .vaut import VirtualAutomorphism

    _check_schema(doc, "vaut/1")
    domain = subgroup_from_doc(_require(doc, "domain", dict))
    codomain = subgroup_from_doc(_require(doc, "codomain", dict))
    images = _words_from(_require(doc, "images", list), domain.pres)
    inverse = _words_from(_require(doc, "inverseImages", list), domain.pres)
    return VirtualAutomorphism(domain, codomain, images, inverse)


def cycle_doc(cycle: TwoArrowCycle) -> dict:
    doc: dict = {
        "schema": "cycle/1",
        "alpha": subgroup_doc(cycle.alpha),
        "beta": subgroup_doc(cycle.beta),
    }
    if cycle.forward is not None:
        doc["forward"] = _words_doc(cycle.forward)
    if cycle.backward is not None:
        doc["backward"] = _words_doc(cycle.backward)
    return doc


def cycle_from_doc(doc: dict) -> TwoArrowCycle:
    from .vaut import TwoArrowCycle

    _check_schema(doc, "cycle/1")
    alpha = subgroup_from_doc(_require(doc, "alpha", dict))
    beta = subgroup_from_doc(_require(doc, "beta", dict))
    forward = _words_from(doc["forward"], alpha.pres) if "forward" in doc else None
    backward = _words_from(doc["backward"], alpha.pres) if "backward" in doc else None
    return TwoArrowCycle(alpha, beta, forward, backward)


# ---------------------------------------------------------------------------
# Workspace: a content-addressed directory of documents plus an index.

WORKSPACE_ENV = "COVERTOWER_WORKSPACE"
INDEX_NAME = "index.json"


def workspace_dir(explicit: Optional[str] = None) -> Path:
    root = explicit or os.environ.get(WORKSPACE_ENV) or "covertower-workspace"
    path = Path(root)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot use workspace {path}: {exc}") from exc
    return path


def load_doc(path: Union[str, Path]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {path}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("schema"), str):
        raise SchemaError(f"document lacks a schema tag: {path}")
    return doc


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _spill(root: Path, pieces: Iterable[bytes]) -> tuple[str, str, int]:
    """Write ``pieces`` to a new temporary file in ``root``, hashing them.

    Returns the file, the SHA-256 hex digest of its bytes and its size.
    The name holds the process id and random bytes, so calls in progress
    at once (say, a store nested in another store's document generator)
    never share a temporary file.  On failure the file is removed.  Paths
    here are plain strings: ``pathlib`` interns every name it parses, which
    for a batch of documents is one more table of their names.
    """
    tmp = os.path.join(root, f".{os.getpid()}.{os.urandom(6).hex()}.tmp")
    digest = hashlib.sha256()
    size = 0
    try:
        with open(tmp, "wb") as handle:
            for piece in pieces:
                handle.write(piece)
                digest.update(piece)
                size += len(piece)
    except BaseException:
        _unlink(tmp)
        raise
    return tmp, digest.hexdigest(), size


def _rename(tmp: str, path: Union[str, Path]) -> None:
    """Move ``tmp`` onto ``path``; remove ``tmp`` if that fails."""
    try:
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise


def _write_atomic(path: Path, pieces: Iterable[bytes]) -> None:
    """Replace ``path`` with the bytes of ``pieces`` in one step.

    Readers see the old bytes or the new: the temporary file sits in the
    same directory, so ``os.replace`` is a rename within one file system.
    A failed write raises ``SchemaError`` naming ``path``.
    """
    try:
        tmp, _, _ = _spill(path.parent, pieces)
        _rename(tmp, path)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _is_copy(path: str, size: int) -> bool:
    """Whether ``path`` is already a regular file of ``size`` bytes."""
    try:
        return os.path.isfile(path) and os.path.getsize(path) == size
    except OSError:
        return False


def _store_file(root: Path, stem: str, doc: dict) -> str:
    """Write ``doc`` under its content name in ``root``; return that name.

    A regular file of that name and size already holds these bytes (the
    name fixes them, up to a collision in 64 bits of SHA-256), so it is
    kept and the new copy dropped: a rerun replaces no document.
    """
    path = ""
    try:
        tmp, digest, size = _spill(root, _pieces(doc))
        name = f"{stem}-{digest[:16]}.json"
        path = os.path.join(root, name)
        if _is_copy(path, size):
            os.unlink(tmp)
        else:
            _rename(tmp, path)
    except OSError as exc:
        raise SchemaError(f"cannot write {path or root}: {exc}") from exc
    return name


def _index_stamp(path: Path) -> Optional[tuple[int, int, int]]:
    """Inode, size and mtime of the index, or None when it is absent."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def _read_index(path: Path) -> dict[str, str]:
    """The index's entries as file name -> schema; empty when it is absent."""
    if not path.exists():
        return {}
    doc = load_doc(path)
    entries = doc.get("entries")
    if doc["schema"] != "workspace-index/1" or not isinstance(entries, list):
        raise SchemaError(f"not a workspace-index/1 document: {path}")
    out = {}
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("file"), str)
            and isinstance(entry.get("schema"), str)
        ):
            raise SchemaError(f"malformed entry {i} in workspace index: {path}")
        out[entry["file"]] = entry["schema"]
    return out


def _index_pieces(entries: dict[str, str]) -> Iterator[bytes]:
    """The workspace-index/1 document of ``entries`` (file -> schema), in
    canonical pieces built a block of entries at a time."""
    files = sorted(entries)
    blocks = (
        [{"file": f, "schema": entries[f]} for f in files[start : start + _BLOCK]]
        for start in range(0, len(files), _BLOCK)
    )
    yield b'{"entries":'
    for piece in _array(blocks):
        yield piece.encode("utf-8")
    yield b',"schema":"workspace-index/1"}\n'


def store_docs(root: Path, docs: Iterable[dict]) -> list[str]:
    """Write documents under their content hashes; update the index once.

    Returns the stored file names, in the order of ``docs``.  ``docs`` may
    be a generator, so a large batch need not be held in memory at once;
    each document is encoded in pieces straight into its file.  If it
    raises partway, the index still lists exactly the documents written so
    far, together with the entries it already had.  If another writer
    replaced the index meanwhile, its entries are read again and kept.  A
    batch whose documents the index already lists leaves it untouched.
    """
    index_path = root / INDEX_NAME
    stamp = _index_stamp(index_path)
    entries = _read_index(index_path)
    names: list[str] = []
    changed = False
    try:
        for doc in docs:
            schema = doc.get("schema")
            if schema not in SCHEMAS:
                raise SchemaError(f"refusing to store unknown schema {schema!r}")
            name = _store_file(root, schema.split("/")[0], doc)
            if entries.get(name) != schema:
                entries[name] = schema
                changed = True
            names.append(name)
    finally:
        if changed:
            if _index_stamp(index_path) != stamp:
                entries = {**_read_index(index_path), **entries}
            _write_atomic(index_path, _index_pieces(entries))
    return names


def store_doc(root: Path, doc: dict) -> Path:
    """Write one document under its content hash and update the index."""
    return root / store_docs(root, [doc])[0]
