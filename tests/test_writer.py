"""The canonical writer against the one-shot ``json.dumps`` it replaced.

``io._pieces`` yields a document's canonical bytes in pieces of a few
kilobytes; the store writes those pieces to a temporary file while hashing
them, the index is encoded a block of entries at a time, and stdout and
the ``enumerate`` manifest take the same pieces.  Every byte must equal
``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"``.
"""

import hashlib
import json
import os
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covertower import (
    TwoArrowCycle,
    build_char_tower,
    canonical_json_bytes,
    content_hash,
    cycle_doc,
    homology_cover,
    identity_vaut,
    ledger_report,
    load_doc,
    store_docs,
    subgroup_doc,
    tower_doc,
    vaut_doc,
)
from covertower import io
from covertower.cli import main


def reference(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _long(items):
    """Lists longer than one block, repeating a few drawn elements."""
    return st.builds(
        lambda xs, n: (xs * n)[: n + io._BLOCK],
        st.lists(items, min_size=1, max_size=4),
        st.integers(1, io._BLOCK),
    )


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**12), 10**12)
    | st.floats()
    | st.text(max_size=6)  # non-ASCII too: json escapes it
)
_rows = st.lists(st.integers(-3, 70000), max_size=6)


def _nest(children):
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=5), children, max_size=5)
        | st.lists(st.dictionaries(st.text(max_size=3), children, max_size=3), min_size=1, max_size=4)
        # Keys json turns into strings, or, mixed, refuses to sort.
        | st.dictionaries(st.integers(-20, 20), children, max_size=4)
        | st.dictionaries(st.integers(-2, 2) | st.text(max_size=1), children, max_size=3)
    )


# Long lists are leaves here, so that nesting them does not multiply
# their lengths.
_documents = st.recursive(
    _scalars
    | _long(_scalars)
    | _long(_rows)
    | _long(st.dictionaries(st.text(max_size=2), _scalars | _rows, max_size=2)),
    _nest,
    max_leaves=12,
)


@given(_documents)
def test_pieces_match_json_dumps(doc):
    try:
        expected = reference(doc)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            canonical_json_bytes(doc)
        return
    assert canonical_json_bytes(doc) == expected
    assert content_hash(doc) == hashlib.sha256(expected).hexdigest()


def test_int_keys_are_quoted_and_sorted_as_numbers():
    doc = {"counts": {10: 1, 2: 3, -1: 0}, "rows": [[1, 2]] * (io._BLOCK + 5)}
    data = canonical_json_bytes(doc)
    assert data == reference(doc)
    assert b'{"-1":0,"2":3,"10":1}' in data
    with pytest.raises(TypeError):
        canonical_json_bytes({"a": {1: 0, "b": 1}})


@pytest.fixture(scope="module")
def every_kind(pres2, index_two_subgroups, ledger_tower_steps):
    h1 = index_two_subgroups[0]
    tower = build_char_tower(pres2, ledger_tower_steps)
    return {
        "subgroup": subgroup_doc(h1),
        "certified": subgroup_doc(homology_cover(pres2, 3)),
        "tower": tower_doc(tower),
        "vaut": vaut_doc(identity_vaut(h1)),
        "cycle": cycle_doc(TwoArrowCycle(h1, h1)),
        "ledger": ledger_report(tower, range(-2, 3), tower_ref="tower.json"),
    }


def test_every_kind_of_document_is_stored_byte_for_byte(tmp_path, every_kind):
    names = store_docs(tmp_path, every_kind.values())
    for name, (kind, doc) in zip(names, every_kind.items()):
        expected = reference(doc)
        assert canonical_json_bytes(doc) == expected, kind
        stem = doc["schema"].split("/")[0]
        assert name == f"{stem}-{hashlib.sha256(expected).hexdigest()[:16]}.json"
        assert (tmp_path / name).read_bytes() == expected, kind
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_index_is_encoded_a_block_of_entries_at_a_time(tmp_path):
    docs = [{"schema": "ledger/1", "n": n} for n in range(2 * io._BLOCK + 7)]
    store_docs(tmp_path, docs)
    index = load_doc(tmp_path / "index.json")
    assert len(index["entries"]) == len(docs)
    assert (tmp_path / "index.json").read_bytes() == reference(index)
    entries = {"a.json": "subgroup/1", "bé.json": "é/1"}
    assert b"".join(io._index_pieces(entries)) == reference(
        {
            "schema": "workspace-index/1",
            "entries": [{"file": f, "schema": s} for f, s in sorted(entries.items())],
        }
    )
    assert b"".join(io._index_pieces({})) == reference(
        {"schema": "workspace-index/1", "entries": []}
    )


def test_manifest_and_stdout_are_the_canonical_bytes(tmp_path, capsys):
    code = main(["--workspace", str(tmp_path), "enumerate", "--genus", "2", "--max-index", "3"])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    manifest = json.loads(out)
    assert len(manifest["files"]) == 236
    assert out == reference(manifest)
    assert (tmp_path / "manifest-enumerate-g2-i3.json").read_bytes() == out


def test_a_rerun_replaces_no_document(tmp_path, capsys):
    argv = ["--workspace", str(tmp_path), "enumerate", "--genus", "2", "--max-index", "3"]
    outputs, stamps = [], []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        stamps.append(
            {
                p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
                for p in tmp_path.iterdir()
                if not p.name.startswith("manifest-")
            }
        )
    assert outputs[0] == outputs[1]
    # Every document, and the index that already lists them, is untouched.
    assert len(stamps[0]) == 237
    assert stamps[0] == stamps[1]
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_a_file_of_another_size_is_replaced(tmp_path, every_kind):
    doc = every_kind["subgroup"]
    (name,) = store_docs(tmp_path, [doc])
    (tmp_path / name).write_bytes(b"{}\n")
    assert store_docs(tmp_path, [doc]) == [name]
    assert (tmp_path / name).read_bytes() == reference(doc)


def test_a_document_that_fails_to_encode_leaves_no_file(tmp_path, every_kind):
    good = every_kind["subgroup"]
    # The long list is written before the set is reached.
    bad = {"schema": "ledger/1", "a": [[0]] * (4 * io._BLOCK), "b": {1, 2}}
    with pytest.raises(TypeError):
        store_docs(tmp_path, [good, bad])
    on_disk = sorted(p.name for p in tmp_path.iterdir())
    listed = [entry["file"] for entry in load_doc(tmp_path / "index.json")["entries"]]
    assert on_disk == sorted(listed + ["index.json"])
    assert len(listed) == 1


def test_pieces_hold_a_fraction_of_the_one_shot_encoding(pres2):
    doc = subgroup_doc(homology_cover(pres2, 8))
    assert doc["index"] == 4096

    def peak(encode):
        tracemalloc.start()
        try:
            encode()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_shot = peak(lambda: hashlib.sha256(reference(doc)).hexdigest())
    streamed = peak(lambda: content_hash(doc))
    assert streamed <= 0.25 * one_shot
    assert max(len(piece) for piece in io._pieces(doc)) < 16 * 1024


def test_temporary_names_differ_between_calls(tmp_path):
    first, _, _ = io._spill(tmp_path, [b"a"])
    second, _, _ = io._spill(tmp_path, [b"a"])
    assert first != second
    assert os.path.dirname(first) == str(tmp_path)
