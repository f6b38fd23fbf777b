import hashlib
import json

import pytest

from covertower import (
    NotTransitive,
    RelatorViolated,
    SchemaError,
    SurfacePresentation,
    TwoArrowCycle,
    build_char_tower,
    canonical_json_bytes,
    char_subgroup_from_doc,
    content_hash,
    cycle_doc,
    cycle_from_doc,
    cycle_from_subgroups,
    full_subgroup,
    homology_cover,
    identity_vaut,
    intersect,
    load_doc,
    reduce_cycle,
    store_doc,
    store_docs,
    subgroup_doc,
    subgroup_from_doc,
    tower_doc,
    tower_dot,
    tower_from_doc,
    validate_vaut,
    vaut_doc,
    vaut_from_doc,
    verify_certificate,
    workspace_dir,
)
from covertower import io


@pytest.fixture(scope="module")
def pres():
    return SurfacePresentation(2)


@pytest.fixture(scope="module")
def tower(pres):
    return build_char_tower(pres, [{"kind": "homology", "n": 2}])


def test_subgroup_round_trip(index_two_subgroups):
    for sub in index_two_subgroups:
        doc = subgroup_doc(sub)
        back = subgroup_from_doc(doc)
        assert back == sub
        assert subgroup_doc(back) == doc


def test_certified_subgroup_round_trip(pres):
    cover = homology_cover(pres, 2)
    doc = subgroup_doc(cover)
    assert doc["certificate"]["kind"] == "homology-level"
    back = char_subgroup_from_doc(doc)
    assert back.subgroup == cover.subgroup
    assert back.certificate.level == 2
    assert verify_certificate(back)


def test_plain_doc_has_no_certificate(index_two_subgroups):
    doc = subgroup_doc(index_two_subgroups[0])
    assert "certificate" not in doc
    with pytest.raises(SchemaError):
        char_subgroup_from_doc(doc)


def test_canonical_bytes_are_order_independent(index_two_subgroups):
    doc = subgroup_doc(index_two_subgroups[0])
    shuffled = {k: doc[k] for k in reversed(list(doc))}
    assert canonical_json_bytes(doc) == canonical_json_bytes(shuffled)
    assert content_hash(doc) == content_hash(shuffled)
    assert canonical_json_bytes(doc).endswith(b"\n")
    other = subgroup_doc(index_two_subgroups[1])
    assert content_hash(doc) != content_hash(other)


def _base_doc(index_two_subgroups):
    return subgroup_doc(index_two_subgroups[0])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("table"),
        lambda d: d.pop("genus"),
        lambda d: d.update(genus="2"),
        lambda d: d.update(genus=1),
        lambda d: d.update(schema="subgroup/2"),
        lambda d: d.update(table=[[0, 0, 0], [1, 1, 1]]),
        lambda d: d.update(index=3),
        lambda d: d.update(table=[["0", 0, 0, 1], [1, 1, 1, 0]]),
    ],
)
def test_malformed_subgroup_documents(index_two_subgroups, mutate):
    doc = json.loads(canonical_json_bytes(_base_doc(index_two_subgroups)))
    mutate(doc)
    with pytest.raises(SchemaError):
        subgroup_from_doc(doc)


def test_well_shaped_but_invalid_tables_raise_math_errors():
    lazy = {
        "schema": "subgroup/1",
        "genus": 2,
        "index": 2,
        "basepoint": 0,
        "table": [[0, 0, 0, 0], [1, 1, 1, 1]],
    }
    with pytest.raises(NotTransitive):
        subgroup_from_doc(lazy)
    skewed = {
        "schema": "subgroup/1",
        "genus": 2,
        "index": 3,
        "basepoint": 0,
        "table": [[1, 1, 0, 0], [2, 0, 1, 1], [0, 2, 2, 2]],
    }
    with pytest.raises(RelatorViolated):
        subgroup_from_doc(skewed)


def test_tower_round_trip(tower):
    doc = tower_doc(tower)
    back = tower_from_doc(doc)
    assert tower_doc(back) == doc
    assert {n.name for n in back.nodes} == {n.name for n in tower.nodes}
    assert back.edges == tower.edges


def _certificate(doc):
    """The certificate of the tower's degree-16 node."""
    return doc["nodes"][1]["subgroup"]["certificate"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["edges"][0].update(charTag="maybe"),
        lambda d: d["edges"][0].update(sub="ghost"),
        lambda d: d["nodes"][1].update(name=d["nodes"][0]["name"]),
        lambda d: d["nodes"][1].update(degree=5),
        lambda d: d["nodes"][1].update(genus=5),
        # Forged edges: an arrow that does not exist, and a wrong degree.
        lambda d: d["edges"][0].update(
            sub=d["edges"][0]["super"], super=d["edges"][0]["sub"]
        ),
        lambda d: d["edges"][0].update(relativeDegree=8),
        # Forged certificates: an unknown kind, a level below 1, and
        # automorphisms that are out of range, not lists, or not automorphisms.
        lambda d: _certificate(d).update(kind="bogus"),
        lambda d: _certificate(d).update(level=-3),
        lambda d: _certificate(d).update(level=0),
        lambda d: _certificate(d).update(auts=[{"name": "x", "images": [[9]] * 4}]),
        lambda d: _certificate(d).update(auts=5),
        lambda d: _certificate(d).update(
            auts=[{"name": "x", "images": [[1], [1], [3], [4]], "inverseImages": [[1], [1], [3], [4]]}]
        ),
        lambda d: _certificate(d).update(auts=[{"name": "x", "images": [[3], [4], [1], [2]]}]),
        lambda d: d.update(genus=1),
        lambda d: d.update(genus=3),
    ],
)
def test_malformed_tower_documents(tower, mutate):
    doc = json.loads(canonical_json_bytes(tower_doc(tower)))
    mutate(doc)
    with pytest.raises(SchemaError):
        tower_from_doc(doc)


def test_tower_dot(tower):
    dot = tower_dot(tower)
    assert dot == tower_dot(tower)
    assert dot.startswith("digraph tower {\n")
    assert dot.endswith("}\n")
    root = next(n for n in tower.nodes if n.degree == 1)
    deep = next(n for n in tower.nodes if n.degree == 16)
    assert f'"{root.name}" [label="{root.name} deg=1 genus=2"];' in dot
    assert f'"{deep.name}" -> "{root.name}" [label="16 yes"];' in dot


def test_vaut_round_trip(index_two_subgroups):
    v = identity_vaut(index_two_subgroups[0])
    doc = vaut_doc(v)
    assert "inverseImages" in doc
    back = vaut_from_doc(doc)
    validate_vaut(back)
    assert vaut_doc(back) == doc

    # A germ without inverse witnesses is refused at load.
    lean = {key: value for key, value in doc.items() if key != "inverseImages"}
    with pytest.raises(SchemaError, match="^missing key 'inverseImages'$"):
        vaut_from_doc(lean)


def test_cycle_round_trip(pres, index_two_subgroups):
    h1, h2 = index_two_subgroups[:2]
    bare = cycle_doc(TwoArrowCycle(h1, h1))
    assert "forward" not in bare
    back = cycle_from_doc(bare)
    assert back.forward is None

    full = full_subgroup(pres)
    path = cycle_from_subgroups([full, h1, intersect(h1, h2), h2, full])
    reduced = reduce_cycle(path, order="left")
    doc = cycle_doc(reduced)
    assert cycle_doc(cycle_from_doc(doc)) == doc


def test_store_doc_content_addressing(tmp_path, index_two_subgroups, tower):
    doc = subgroup_doc(index_two_subgroups[0])
    path = store_doc(tmp_path, doc)
    assert path.name == f"subgroup-{content_hash(doc)[:16]}.json"
    assert path.read_bytes() == canonical_json_bytes(doc)

    again = store_doc(tmp_path, doc)
    assert again == path

    second = store_doc(tmp_path, tower_doc(tower))
    index = load_doc(tmp_path / "index.json")
    files = [entry["file"] for entry in index["entries"]]
    assert files == sorted(files)
    assert set(files) == {path.name, second.name}
    schemas = {entry["file"]: entry["schema"] for entry in index["entries"]}
    assert schemas[path.name] == "subgroup/1"
    assert schemas[second.name] == "tower/1"


def test_store_doc_refuses_unknown_schema(tmp_path):
    with pytest.raises(SchemaError):
        store_doc(tmp_path, {"schema": "nope/1"})


def _per_document_store(root, doc):
    """Reference: the original read-modify-write of the index per document."""
    stem = doc["schema"].split("/")[0]
    name = f"{stem}-{content_hash(doc)[:16]}.json"
    (root / name).write_bytes(canonical_json_bytes(doc))
    index_path = root / "index.json"
    entries = {}
    if index_path.exists():
        for entry in json.loads(index_path.read_bytes())["entries"]:
            entries[entry["file"]] = entry["schema"]
    entries[name] = doc["schema"]
    index = {
        "schema": "workspace-index/1",
        "entries": [{"file": f, "schema": s} for f, s in sorted(entries.items())],
    }
    index_path.write_bytes(canonical_json_bytes(index))


def _tree(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


@pytest.mark.parametrize("case", ["fresh", "existing-index", "duplicate", "empty"])
def test_store_docs_matches_per_document_store(tmp_path, case, index_two_subgroups, tower):
    docs = [subgroup_doc(s) for s in index_two_subgroups[:5]] + [tower_doc(tower)]
    seeded = [subgroup_doc(s) for s in index_two_subgroups[5:8]]
    if case == "duplicate":
        docs.insert(3, docs[1])
    if case == "empty":
        docs = []
    trees = []
    for label in ("reference", "single", "batch"):
        root = tmp_path / label
        root.mkdir()
        if case == "existing-index":
            for doc in seeded:
                _per_document_store(root, doc)
        if label == "reference":
            for doc in docs:
                _per_document_store(root, doc)
        elif label == "single":
            names = [store_doc(root, doc).name for doc in docs]
        else:
            batch = store_docs(root, (doc for doc in docs))
            assert batch == names
        trees.append(_tree(root))
    assert trees[0] == trees[1] == trees[2]
    assert not any(name.endswith(".tmp") for name in trees[2])
    if case == "existing-index":
        index = load_doc(tmp_path / "batch" / "index.json")
        files = {entry["file"] for entry in index["entries"]}
        assert len(files) == len(docs) + len(seeded)


def test_store_docs_indexes_what_it_wrote_before_a_failure(tmp_path, index_two_subgroups):
    docs = [subgroup_doc(s) for s in index_two_subgroups[:3]]

    def failing():
        yield from docs[:2]
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError):
        store_docs(tmp_path, failing())
    index = load_doc(tmp_path / "index.json")
    listed = sorted(entry["file"] for entry in index["entries"])
    on_disk = sorted(p.name for p in tmp_path.iterdir() if p.name != "index.json")
    assert listed == on_disk
    assert len(on_disk) == 2

    with pytest.raises(SchemaError):
        store_docs(tmp_path, [docs[2], {"schema": "nope/1"}])
    index = load_doc(tmp_path / "index.json")
    assert len(index["entries"]) == 3
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


@pytest.mark.parametrize(
    "index",
    [
        pytest.param({"schema": "subgroup/1", "entries": []}, id="wrong-schema"),
        pytest.param({"schema": "workspace-index/1"}, id="no-entries"),
        pytest.param({"schema": "workspace-index/1", "entries": {}}, id="entries-not-a-list"),
        pytest.param({"schema": "workspace-index/1", "entries": ["a.json"]}, id="entry-not-an-object"),
        pytest.param({"schema": "workspace-index/1", "entries": [{"file": "a.json"}]}, id="no-schema"),
        pytest.param({"schema": "workspace-index/1", "entries": [{"schema": "subgroup/1"}]}, id="no-file"),
        pytest.param(
            {"schema": "workspace-index/1", "entries": [{"file": 3, "schema": "subgroup/1"}]},
            id="file-not-a-string",
        ),
    ],
)
def test_store_docs_refuses_a_malformed_index(tmp_path, index, index_two_subgroups):
    (tmp_path / "index.json").write_text(json.dumps(index))
    with pytest.raises(SchemaError, match="index.json"):
        store_docs(tmp_path, [subgroup_doc(index_two_subgroups[0])])
    assert [p.name for p in tmp_path.iterdir()] == ["index.json"]
    assert json.loads((tmp_path / "index.json").read_text()) == index


@pytest.mark.parametrize("seeded", [False, True], ids=["fresh", "existing-index"])
def test_store_docs_keeps_a_second_writers_entries(tmp_path, seeded, index_two_subgroups):
    docs = [subgroup_doc(s) for s in index_two_subgroups[:6]]
    if seeded:
        store_docs(tmp_path, docs[:1])
    inner = []

    def first_batch():
        yield docs[1]
        # A second writer stores its batch while this one is midway.
        inner.extend(store_docs(tmp_path, docs[3:6]))
        yield docs[2]

    outer = store_docs(tmp_path, first_batch())
    listed = {entry["file"] for entry in load_doc(tmp_path / "index.json")["entries"]}
    on_disk = {p.name for p in tmp_path.iterdir()} - {"index.json"}
    assert listed == on_disk
    assert set(outer) | set(inner) <= listed
    assert len(listed) == 5 + seeded


@pytest.mark.parametrize("seeded", [False, True], ids=["fresh", "existing-index"])
def test_store_docs_reads_an_unchanged_index_once(tmp_path, monkeypatch, seeded, index_two_subgroups):
    docs = [subgroup_doc(s) for s in index_two_subgroups[:3]]
    if seeded:
        store_docs(tmp_path, docs[:1])
    loads = []
    real_load = io.load_doc
    monkeypatch.setattr(io, "load_doc", lambda path: loads.append(path) or real_load(path))
    store_docs(tmp_path, docs[1:])
    assert len(loads) == seeded


def test_workspace_dir(tmp_path, monkeypatch):
    explicit = workspace_dir(str(tmp_path / "a"))
    assert explicit.is_dir()
    monkeypatch.setenv("COVERTOWER_WORKSPACE", str(tmp_path / "b"))
    from_env = workspace_dir()
    assert from_env == tmp_path / "b"
    assert from_env.is_dir()


def test_load_doc_failures(tmp_path):
    with pytest.raises(SchemaError):
        load_doc(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_doc(bad)
    tagless = tmp_path / "tagless.json"
    tagless.write_text("[1,2,3]")
    with pytest.raises(SchemaError):
        load_doc(tagless)
