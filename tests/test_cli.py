import json
import hashlib

import pytest

from covertower import (
    CovertowerError,
    IntersectionIndexOverflow,
    RunConfig,
    SurfacePresentation,
    build_char_tower,
    content_hash,
    full_subgroup,
    handle_swap,
    homology_cover,
    identity_vaut,
    make_subgroup,
    store_doc,
    subgroup_doc,
    subgroup_from_doc,
    tower_doc,
    vaut_doc,
    vaut_from_automorphism,
)
from covertower.cli import UsageError, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _seed_subgroups(ws, index_two_subgroups):
    names = []
    for sub in index_two_subgroups[:2]:
        names.append(store_doc(ws, subgroup_doc(sub)).name)
    return names


def test_enumerate(tmp_path, capsys):
    out = _run_json(
        capsys,
        "--workspace",
        str(tmp_path),
        "enumerate",
        "--genus",
        "2",
        "--max-index",
        "2",
    )
    assert out["counts"] == {"1": 1, "2": 15}
    assert len(out["files"]) == 16
    for name in out["files"]:
        assert (tmp_path / name).is_file()
    assert (tmp_path / "manifest-enumerate-g2-i2.json").is_file()
    assert (tmp_path / "index.json").is_file()


def test_char_core_equals_homology_cover_table(tmp_path, capsys, index_two_subgroups):
    ws = str(tmp_path)
    names = _seed_subgroups(tmp_path, index_two_subgroups)
    core = _run_json(capsys, "--workspace", ws, "char", "core", "--subgroup", names[0])
    hom = _run_json(
        capsys, "--workspace", ws, "char", "homology", "--genus", "2", "--n", "2"
    )
    assert core["index"] == hom["index"] == 16
    assert core["certificate"] == "hom-kernel-intersection"
    assert hom["certificate"] == "homology-level"
    # Different certificates, different files, one underlying cover.
    core_sub = subgroup_from_doc(json.loads((tmp_path / core["file"]).read_text()))
    hom_sub = subgroup_from_doc(json.loads((tmp_path / hom["file"]).read_text()))
    assert core_sub == hom_sub


def test_intersect(tmp_path, capsys, index_two_subgroups):
    ws = str(tmp_path)
    names = _seed_subgroups(tmp_path, index_two_subgroups)
    out = _run_json(capsys, "--workspace", ws, "intersect", names[0], names[1])
    assert out["index"] == 4
    same = _run_json(capsys, "--workspace", ws, "intersect", names[0], names[0])
    assert same["index"] == 2
    assert same["file"] == names[0]


def test_tower_build_export_and_ledger(tmp_path, capsys):
    ws = str(tmp_path)
    built = _run_json(
        capsys,
        "--workspace",
        ws,
        "tower",
        "build",
        "--genus",
        "2",
        "--step",
        "homology:2",
        "--dot",
    )
    assert built["nodes"] == 2 and built["edges"] == 1
    assert (tmp_path / built["dot"]).is_file()

    code, out, err = _run(
        capsys, "--workspace", ws, "export", "--tower", built["file"], "--dot"
    )
    assert code == 0
    assert out == (tmp_path / built["dot"]).read_text()

    doc = _run_json(
        capsys, "--workspace", ws, "export", "--tower", built["file"], "--json"
    )
    assert doc["schema"] == "tower/1"

    report = _run_json(
        capsys,
        "--workspace",
        ws,
        "ledger",
        "check",
        "--tower",
        built["file"],
        "--m-range=-3..4",
    )
    assert report["schema"] == "ledger/1"
    assert all(check["pass"] for check in report["checks"])
    deep = next(s for s in report["perStratum"] if s["degree"] == 16)
    assert deep["exponents"]["2"] == {"num": 13, "den": 16}


def test_vaut_verbs(tmp_path, capsys, index_two_subgroups):
    ws = str(tmp_path)
    names = _seed_subgroups(tmp_path, index_two_subgroups)
    ident = _run_json(
        capsys, "--workspace", ws, "vaut", "identity", "--subgroup", names[0]
    )
    assert ident["domainIndex"] == 2

    composed = _run_json(
        capsys, "--workspace", ws, "vaut", "compose", ident["file"], ident["file"]
    )
    assert composed["file"] == ident["file"]

    inverted = _run_json(capsys, "--workspace", ws, "vaut", "invert", ident["file"])
    assert inverted["file"] == ident["file"]

    eq = _run_json(
        capsys, "--workspace", ws, "vaut", "germ-eq", ident["file"], ident["file"]
    )
    assert eq == {"germEqual": True}

    found = _run_json(
        capsys, "--workspace", ws, "vaut", "mcl-search", ident["file"], "--depth", "2"
    )
    assert found["found"] is True
    assert found["index"] <= 2


def test_vaut_mcl_search_past_the_index_cap_exits_three(tmp_path, capsys, index_two_subgroups):
    pres = SurfacePresentation(2)
    v = vaut_from_automorphism(handle_swap(pres), index_two_subgroups[0])
    name = store_doc(tmp_path, vaut_doc(v)).name
    cfg_path = tmp_path / "cap.json"
    cfg_path.write_text(json.dumps({"max_result_index": 3}))
    code, out, err = _run(
        capsys, "--workspace", str(tmp_path), "--config", str(cfg_path),
        "vaut", "mcl-search", name, "--depth", "2",
    )
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "BudgetExceeded",
        "message": "mcl search reached depth 0 of 2 at a candidate of index 2: "
        "intersection of subgroups of index 2 and 2 has index a multiple of 2 "
        "and at most 4, above index cap 3",
    }


# SHA-256 of the stdout, the stored cycle/1 file and the stored vaut/1 file
# of ``vaut reduce``, the same for both orders.
REDUCE_DIGESTS = {
    "zigzag": (
        "50d51d094abd7656d9545433e420d6e7e352f68e13231366436b4778fd9198d0",
        "c74338a2ed6318d92be00893b9250eed492d3450d51706e18aec2ffae11e74b4",
        "36da249cd904fd48c31fb03349f54433f765ebb0fd1fcca09ccdcdda76120e0c",
    ),
    "five-hop": (
        "ea929fc90c12cfde7783310b2b0b204edeb8140c8d1e964d1c5d423d87733564",
        "54d2ce70b956f5fff95396c1733bdc1f5865352487075bb5116c91b7426ad883",
        "167022625de6cf5e9630fac042db146b7e2bc594f7bdd2de6302ed0fff17ba12",
    ),
}


def test_vaut_reduce_orders_match(tmp_path, capsys, pres2, index_two_subgroups):
    from covertower import full_subgroup, intersect

    ws = str(tmp_path)
    h1, h2, h4 = index_two_subgroups[0], index_two_subgroups[1], index_two_subgroups[3]

    def stored(sub):
        return store_doc(tmp_path, subgroup_doc(sub)).name

    full = stored(full_subgroup(pres2))
    a, c, b = stored(h1), stored(intersect(h1, h2)), stored(h2)
    e, d = stored(intersect(h2, h4)), stored(h4)
    cycles = {"zigzag": ((full, a, c, b, full), 4), "five-hop": ((a, c, b, e, d), 8)}
    for name, (hops, index) in cycles.items():
        for order in ("left", "right"):
            code, out, err = _run(
                capsys, "--workspace", ws, "vaut", "reduce", *hops, "--order", order
            )
            assert code == 0, err
            result = json.loads(out)
            assert result["domainIndex"] == index
            files = [(tmp_path / result[kind]).read_bytes() for kind in ("cycle", "vaut")]
            digests = tuple(hashlib.sha256(raw).hexdigest() for raw in (out.encode(), *files))
            assert digests == REDUCE_DIGESTS[name], (name, order)


def test_genus1_verbs(tmp_path, capsys):
    ws = str(tmp_path)
    moduli = _run_json(
        capsys, "--workspace", ws, "genus1", "modulus-map", "--lattice", "0,1,2,0"
    )
    assert moduli["lattice"] == [[2, 0], [0, 1]]
    assert moduli["matrix"][0][0] == {"num": 2, "den": 1}

    acted = _run_json(
        capsys,
        "--workspace",
        ws,
        "genus1",
        "act",
        "--matrix",
        "2,1,0,1",
        "--point",
        "0,1",
    )
    assert acted["image"] == {
        "real": {"num": 1, "den": 1},
        "imag": {"num": 2, "den": 1},
    }

    orbit = _run_json(
        capsys,
        "--workspace",
        ws,
        "genus1",
        "orbit",
        "--target",
        "1+2i",
        "--eps",
        "1/1000",
    )
    assert orbit["matrix"] == [
        [{"num": 2, "den": 1}, {"num": 1, "den": 1}],
        [{"num": 0, "den": 1}, {"num": 1, "den": 1}],
    ]
    assert orbit["errorSquared"] == {"num": 0, "den": 1}


ORBIT_BYTES = {
    None: (
        b'{"errorSquared":{"den":14441444036100000000000000000000000000000000,'
        b'"num":1084149598003507401601833837661},"matrix":[[{"den":1,"num":1193865},'
        b'{"den":1,"num":537428}],[{"den":1,"num":0},{"den":1,"num":380019}]]}\n'
    ),
    "-7/3,5/2": (
        b'{"errorSquared":{"den":14441444036100000000000000000000000000000000,'
        b'"num":1084149598003507401601833837661},"matrix":[[{"den":1,"num":477546},'
        b'{"den":1,"num":1651702}],[{"den":1,"num":0},{"den":1,"num":380019}]]}\n'
    ),
}


@pytest.mark.parametrize("source", list(ORBIT_BYTES))
def test_genus1_orbit_bytes_on_a_decimal_target(tmp_path, capsys, source):
    # The CLI parses points exactly, so the decimal digits of sqrt(2) and
    # pi are a rational target that is not hit within eps; the bytes were
    # recorded from the implementation that evaluated every round with act.
    argv = ["--workspace", str(tmp_path), "genus1", "orbit"]
    argv += ["--target", "1.4142135623730951+3.141592653589793i", "--eps", "1/1000000"]
    if source is not None:
        argv.append(f"--source={source}")
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == ORBIT_BYTES[source]


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--workspace", str(tmp_path), "no-such-verb"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "UsageError"
    with pytest.raises(SystemExit) as excinfo:
        main(["--workspace", str(tmp_path), "genus1", "act", "--matrix", "1,2,3"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    # Out-of-range integers are refused by the argument converters.
    for argv in (
        ("enumerate", "--genus", "1", "--max-index", "2"),
        ("enumerate", "--genus", "2", "--max-index", "0"),
        ("char", "homology", "--genus", "2", "--n", "0"),
        ("char", "homology", "--genus", "1", "--n", "2"),
        ("tower", "build", "--genus", "1", "--step", "homology:2"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["--workspace", str(tmp_path / "ws"), *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "UsageError"
    code, out, err = _run(
        capsys, "--workspace", str(tmp_path / "ws"),
        "genus1", "orbit", "--target", "1+2i", "--eps", "0",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"
    assert not (tmp_path / "ws").exists()


@pytest.mark.parametrize("step", ["homology:0", "homology:-2", "char-core:0,0"])
def test_bad_tower_steps_exit_two(tmp_path, capsys, step):
    with pytest.raises(SystemExit) as excinfo:
        main(["--workspace", str(tmp_path / "ws"), "tower", "build",
              "--genus", "2", "--step", step])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "UsageError"
    assert not (tmp_path / "ws").exists()


def test_orientation_reversing_matrix_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--workspace", str(tmp_path), "genus1", "act",
              "--matrix", "1,0,0,-1", "--point", "1+2i"])
    assert excinfo.value.code == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "UsageError"
    assert "orientation-reversing" in diagnostic["message"]


@pytest.mark.parametrize(
    "fields",
    [{"max_index": -3}, {"max_search_nodes": 0}, {"max_result_index": True},
     {"max_index": 2.0}, {"max_result_index": "3"}],
)
def test_bad_config_caps_exit_six(tmp_path, capsys, fields):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(fields))
    code, out, err = _run(
        capsys, "--workspace", str(tmp_path), "--config", str(cfg_path),
        "enumerate", "--genus", "2", "--max-index", "2",
    )
    assert code == 6
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_a_config_that_sets_a_retired_field_exits_six(tmp_path, capsys):
    # The witness-free inverse search and its length bound are gone; a
    # config file that still sets the bound is refused, not ignored.
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"max_solve_length": 3}))
    code, out, err = _run(
        capsys, "--workspace", str(tmp_path), "--config", str(cfg_path),
        "enumerate", "--genus", "2", "--max-index", "2",
    )
    assert code == 6
    assert out == ""
    assert json.loads(err) == {
        "error": "SchemaError",
        "message": "bad config: unknown config fields: ['max_solve_length']",
    }


def test_config_caps_must_be_positive_integers():
    for name in ("max_index", "max_search_nodes", "max_result_index"):
        for bad in (0, -1, False, 1.5, "3"):
            with pytest.raises(ValueError):
                RunConfig(**{name: bad})


def test_budget_exit_three(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(RunConfig(max_search_nodes=10).to_json()))
    code, out, err = _run(
        capsys,
        "--workspace",
        str(tmp_path),
        "--config",
        str(cfg_path),
        "enumerate",
        "--genus",
        "2",
        "--max-index",
        "3",
    )
    assert code == 3
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_math_error_exit_four(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "--workspace",
        str(tmp_path),
        "genus1",
        "modulus-map",
        "--lattice",
        "1,2,2,4",
    )
    assert code == 4
    assert json.loads(err)["error"] == "SingularMatrix"


def test_overflow_exit_five(tmp_path, capsys, index_two_subgroups):
    names = _seed_subgroups(tmp_path, index_two_subgroups)
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(RunConfig(max_result_index=3).to_json()))
    code, out, err = _run(
        capsys,
        "--workspace",
        str(tmp_path),
        "--config",
        str(cfg_path),
        "intersect",
        names[0],
        names[1],
    )
    assert code == 5
    assert json.loads(err)["error"] == "IntersectionIndexOverflow"


def test_compose_past_the_index_cap_exits_five(tmp_path, capsys, pres2):
    # The mod-2 and mod-3 homology covers overlap in index 16 * 81 = 1,296.
    ws = str(tmp_path)
    germs = []
    for n in (2, 3):
        name = store_doc(tmp_path, subgroup_doc(homology_cover(pres2, n).subgroup)).name
        ident = _run_json(capsys, "--workspace", ws, "vaut", "identity", "--subgroup", name)
        germs.append(ident["file"])
    cfg_path = tmp_path / "cap.json"
    cfg_path.write_text(json.dumps({"max_result_index": 100}))
    code, out, err = _run(
        capsys, "--workspace", ws, "--config", str(cfg_path), "vaut", "compose", *germs
    )
    assert code == 5
    assert out == ""
    assert json.loads(err) == {
        "error": "IntersectionIndexOverflow",
        "message": "intersection of subgroups of index 16 and 81 has index a "
        "multiple of 1296 and at most 1296, above index cap 100",
    }


def test_germ_eq_past_the_index_cap_exits_five(tmp_path, capsys, pres2):
    # The mod-2 and mod-3 homology covers share a domain of index 1,296.
    ws = str(tmp_path)
    germs = []
    for n in (2, 3):
        name = store_doc(tmp_path, subgroup_doc(homology_cover(pres2, n).subgroup)).name
        ident = _run_json(capsys, "--workspace", ws, "vaut", "identity", "--subgroup", name)
        germs.append(ident["file"])
    cfg_path = tmp_path / "cap.json"
    cfg_path.write_text(json.dumps({"max_result_index": 100}))
    code, out, err = _run(
        capsys, "--workspace", ws, "--config", str(cfg_path), "vaut", "germ-eq", *germs
    )
    assert code == 5
    assert out == ""
    assert json.loads(err) == {
        "error": "IntersectionIndexOverflow",
        "message": "intersection of subgroups of index 16 and 81 has index a "
        "multiple of 1296 and at most 1296, above index cap 100",
    }
    assert _run_json(capsys, "--workspace", ws, "vaut", "germ-eq", *germs) == {"germEqual": True}


def test_char_core_past_the_index_cap_exits_five(tmp_path, capsys, pres2):
    # An index-5 core lies in the abelian kernel mod lcm(1..5) = 60, whose
    # index is at least 60^3 with 4 generators and 1 relator: refused with
    # no search.  There is no separate degree cap (exit 3).
    five = make_subgroup(pres2, [(1, 2, 3, 4, 0)] + [tuple(range(5))] * 3)
    name = store_doc(tmp_path, subgroup_doc(five)).name
    code, out, err = _run(
        capsys, "--workspace", str(tmp_path), "char", "core", "--subgroup", name
    )
    assert code == 5
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "IntersectionIndexOverflow"
    assert diagnostic["message"] == "core at n=5 has index at least 60^3, above cap 10000"


def test_schema_error_exit_six(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "--workspace",
        str(tmp_path),
        "char",
        "core",
        "--subgroup",
        "missing.json",
    )
    assert code == 6
    assert json.loads(err)["error"] == "SchemaError"


def _workspace_is_a_file(tmp_path, pres2):
    taken = tmp_path / "taken"
    taken.write_text("")
    return taken, taken


def _document_name_is_a_directory(tmp_path, pres2):
    name = f"subgroup-{content_hash(subgroup_doc(full_subgroup(pres2)))[:16]}.json"
    (tmp_path / name).mkdir()
    return tmp_path, tmp_path / name


@pytest.mark.parametrize("occupy", [_workspace_is_a_file, _document_name_is_a_directory])
def test_workspace_file_errors_exit_six(tmp_path, capsys, pres2, occupy):
    ws, blocked = occupy(tmp_path, pres2)
    code, out, err = _run(
        capsys, "--workspace", str(ws), "enumerate", "--genus", "2", "--max-index", "2"
    )
    assert code == 6
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "SchemaError"
    assert str(blocked) in diagnostic["message"]
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_forged_tower_edges_exit_six(tmp_path, capsys):
    ws = str(tmp_path)
    built = _run_json(
        capsys, "--workspace", ws, "tower", "build", "--genus", "2", "--step", "homology:2"
    )
    reversed_edge = json.loads((tmp_path / built["file"]).read_text())
    edge = reversed_edge["edges"][0]
    edge["sub"], edge["super"] = edge["super"], edge["sub"]
    wrong_degree = json.loads((tmp_path / built["file"]).read_text())
    wrong_degree["edges"][0]["relativeDegree"] = 8
    for doc in (reversed_edge, wrong_degree):
        (tmp_path / "forged.json").write_text(json.dumps(doc))
        code, out, err = _run(
            capsys, "--workspace", ws, "ledger", "check", "--tower", "forged.json"
        )
        assert code == 6
        assert out == ""
        assert json.loads(err)["error"] == "SchemaError"


def _forged_vaut(pres2, index_two_subgroups):
    return vaut_doc(identity_vaut(index_two_subgroups[0]))


def _forged_tower(pres2, index_two_subgroups):
    return tower_doc(build_char_tower(pres2, [{"kind": "homology", "n": 2}]))


def _node_certificate(doc):
    return doc["nodes"][1]["subgroup"]["certificate"]


_VAUT_INVERT = ["vaut", "invert"]
_LEDGER_CHECK = ["ledger", "check", "--tower"]


@pytest.mark.parametrize(
    "verb, source, mutate",
    [
        pytest.param(_VAUT_INVERT, _forged_vaut, lambda d: d["images"][0].append(9),
                     id="vaut-image-letter"),
        pytest.param(_VAUT_INVERT, _forged_vaut, lambda d: d["inverseImages"][0].append(7),
                     id="vaut-witness-letter"),
        pytest.param(_VAUT_INVERT, _forged_vaut, lambda d: d.pop("inverseImages"),
                     id="vaut-no-witnesses"),
        pytest.param(_LEDGER_CHECK, _forged_tower,
                     lambda d: _node_certificate(d).update(kind="bogus"),
                     id="certificate-kind"),
        pytest.param(_LEDGER_CHECK, _forged_tower,
                     lambda d: _node_certificate(d).update(auts=[{"name": "x", "images": [[9]] * 4}]),
                     id="certificate-aut-letter"),
        pytest.param(_LEDGER_CHECK, _forged_tower,
                     lambda d: _node_certificate(d).update(auts=[{"name": "x", "images": [[1]] * 4}]),
                     id="certificate-aut-no-inverse"),
        pytest.param(_LEDGER_CHECK, _forged_tower,
                     lambda d: _node_certificate(d).update(level=-3),
                     id="certificate-level"),
    ],
)
def test_malformed_documents_exit_six(
    tmp_path, capsys, pres2, index_two_subgroups, verb, source, mutate
):
    doc = source(pres2, index_two_subgroups)
    mutate(doc)
    (tmp_path / "forged.json").write_text(json.dumps(doc))
    code, out, err = _run(capsys, "--workspace", str(tmp_path), *verb, "forged.json")
    assert code == 6
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("verb", ["intersect", "vaut compose", "vaut reduce"])
def test_mixed_genus_inputs_exit_four(tmp_path, capsys, index_two_subgroups, verb):
    ws = str(tmp_path)
    pres3 = SurfacePresentation(3)
    genus_three = make_subgroup(pres3, [(1, 0)] + [(0, 1)] * 5)
    a = store_doc(tmp_path, subgroup_doc(index_two_subgroups[0])).name
    b = store_doc(tmp_path, subgroup_doc(genus_three)).name
    if verb == "vaut compose":
        a, b = (
            _run_json(capsys, "--workspace", ws, "vaut", "identity", "--subgroup", x)["file"]
            for x in (a, b)
        )
    operands = [a, b, a] if verb == "vaut reduce" else [a, b]
    code, out, err = _run(capsys, "--workspace", ws, *verb.split(), *operands)
    assert code == 4
    assert out == ""
    assert json.loads(err) == {
        "error": "InconsistentInput",
        "message": "subgroups of different presentations",
    }


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_has_a_documented_exit_code():
    classes = {CovertowerError, *_subclasses(CovertowerError)}
    assert {UsageError, IntersectionIndexOverflow} <= classes
    for cls in classes:
        assert cls.exit_code in {2, 3, 4, 5, 6}, cls


@pytest.mark.parametrize(
    "table, basepoint, message",
    [
        ([[0, 0, 0, 0], [0, 1, 1, 1]], 0, "column 1 is not a permutation"),
        ([[1, 0, 0, 0], [0, 1, 1, 1]], 99, "basepoint out of range"),
    ],
)
def test_bad_subgroup_table_exits_six(tmp_path, capsys, table, basepoint, message):
    doc = {"schema": "subgroup/1", "genus": 2, "index": 2, "basepoint": basepoint, "table": table}
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, out, err = _run(
        capsys, "--workspace", str(tmp_path), "char", "core", "--subgroup", "bad.json"
    )
    assert code == 6
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "SchemaError"
    assert message in diagnostic["message"]


def _digest_tree(root):
    digests = {}
    for path in sorted(root.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_byte_identical_reruns(tmp_path, capsys):
    transcripts = []
    trees = []
    for label in ("a", "b"):
        ws = tmp_path / label
        ws.mkdir()
        lines = []
        for argv in (
            ["enumerate", "--genus", "2", "--max-index", "2"],
            ["char", "homology", "--genus", "2", "--n", "2"],
            ["tower", "build", "--genus", "2", "--step", "homology:2", "--dot"],
        ):
            code, out, err = _run(capsys, "--workspace", str(ws), *argv)
            assert code == 0
            lines.append(out)
        transcripts.append("".join(lines))
        trees.append(_digest_tree(ws))
    assert transcripts[0] == transcripts[1]
    assert trees[0] == trees[1]
