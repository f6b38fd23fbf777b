"""The four workloads: seeded inputs, timed phases and output checks.

Library phases run in a fresh worker process (``worker.py``), so the
process-global caches start cold as they do for a real call.  CLI phases
run the real command line, one child at a time.  Every phase reports its
time; every check is one attempted operation, and a wrong answer counts
as a failed one however fast it arrived.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import random
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


class Checks:
    """Tally of attempted and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok

    def merge(self, attempted: int, failed: list[str]) -> None:
        self.attempted += attempted
        self.failed.extend(failed)

    def guarded(self, name: str, check, *args) -> None:
        """Run a check function; output it cannot parse is a failure too."""
        try:
            check(self, *args)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError):
            self.check(f"{name}.malformed", False)


def _json(data: bytes) -> dict:
    try:
        doc = json.loads(data)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file name and content under a workspace."""
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode() + b"\0" + sha256(path.read_bytes()).encode())
    return h.hexdigest()


def random_word(rng: random.Random, length: int, generators: int) -> tuple[int, ...]:
    """A freely reduced word of the given length."""
    word: list[int] = []
    while len(word) < length:
        x = rng.choice((1, -1)) * rng.randint(1, generators)
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


# ---------------------------------------------------------------------------
# tower-ledger: three CLI calls (build, export, ledger check).

TOWER_STEPS = ("char-core:2,3", "homology:2", "homology:3", "homology:6", "homology:8")
M_RANGE = range(-10, 11)
# name -> (degree, certificate kind, homology level); edges as (sub, super, degree, tag).
TOWER_NODES = {
    "n0": (1, "homology-level", 1),
    "n1": (16, "hom-kernel-intersection", 2),
    "n2": (81, "homology-level", 3),
    "n3": (1296, "homology-level", 6),
    "n4": (4096, "homology-level", 8),
}
TOWER_EDGES = sorted(
    [
        ("n1", "n0", 16, "yes"),
        ("n2", "n0", 81, "yes"),
        ("n3", "n0", 1296, "yes"),
        ("n3", "n1", 81, "unknown"),
        ("n3", "n2", 16, "unknown"),
        ("n4", "n0", 4096, "yes"),
        ("n4", "n1", 256, "unknown"),
    ]
)


def check_tower(checks: Checks, doc: dict, rng: random.Random, words: int) -> None:
    """Shape, tags, canonical tables and a mod-n membership oracle per node."""
    nodes = {n["name"]: n for n in doc.get("nodes", [])}
    shape = {
        name: (n["degree"], n["subgroup"].get("certificate", {}).get("kind"))
        for name, n in nodes.items()
    }
    checks.check(
        "tower.nodes",
        shape == {k: v[:2] for k, v in TOWER_NODES.items()}
        and all(n["genus"] == n["degree"] + 1 for n in nodes.values()),
    )
    edges = sorted(
        (e["sub"], e["super"], e["relativeDegree"], e["charTag"])
        for e in doc.get("edges", [])
    )
    checks.check("tower.edges", edges == TOWER_EDGES)
    for name, (degree, _kind, level) in TOWER_NODES.items():
        sub = nodes.get(name, {}).get("subgroup", {})
        table = sub.get("table", [])
        basepoint = sub.get("basepoint", -1)
        if not checks.check(
            f"tower.{name}.table",
            len(table) == degree and not oracles.table_problems(table, 2, basepoint),
        ):
            continue
        inverse = oracles.inverse_columns(table)
        agree = True
        for _ in range(words):
            w = list(random_word(rng, rng.randint(1, 12), 4))
            if rng.random() < 0.5:
                # Close the word up to a member of the mod-level kernel.
                for j in range(1, 5):
                    s = sum(1 if x == j else -1 if x == -j else 0 for x in w)
                    w.extend([-j] * (s % level))
            member = oracles.walk(table, inverse, basepoint, w) == basepoint
            agree &= member == oracles.homology_member(w, level, 4)
        checks.check(f"tower.{name}.membership", agree)


def check_ledger(checks: Checks, doc: dict, tower_file: str) -> None:
    """44 named checks all pass; exponents are e(m)/degree per stratum."""
    results = {c["name"]: c["pass"] for c in doc.get("checks", [])}
    expected = [f"{kind}-m{m}" for m in M_RANGE for kind in ("compatibility", "universal-mumford")]
    expected += ["wp-coherence", "serre-duality"]
    checks.check("ledger.names", sorted(results) == sorted(expected))
    for name in expected:
        checks.check(f"ledger.{name}", results.get(name) is True)
    checks.check("ledger.tower", doc.get("tower") == tower_file)
    strata = {s["node"]: s for s in doc.get("perStratum", [])}
    for name, (degree, _kind, _level) in TOWER_NODES.items():
        s = strata.get(name, {})
        exps = s.get("exponents", {})
        checks.check(
            f"ledger.{name}.exponents",
            s.get("degree") == degree
            and s.get("genus") == degree + 1
            and all(
                Fraction(exps.get(str(m), {}).get("num", 0), exps.get(str(m), {}).get("den", 1))
                == Fraction(oracles.mumford_exponent(m), degree)
                for m in M_RANGE
            ),
        )


def tower_ledger(ctx) -> dict:
    ws = ctx.workspace()
    base = ["--workspace", str(ws)]
    build = ctx.cli(base + ["tower", "build", "--genus", "2"] + [a for s in TOWER_STEPS for a in ("--step", s)] + ["--dot"])
    tower_file = str(_json(build.stdout).get("file", "missing"))
    export = ctx.cli(base + ["export", "--tower", tower_file])
    ledger = ctx.cli(base + ["ledger", "check", "--tower", tower_file, f"--m-range={M_RANGE[0]}..{M_RANGE[-1]}"])
    start = time.perf_counter()
    with ctx.span("bench.check"):
        checks = ctx.checks
        for label, run in (("build", build), ("export", export), ("ledger", ledger)):
            checks.check(f"{label}.exit", run.returncode == 0)
        outputs = {
            "build_stdout": build.stdout,
            "export_stdout": export.stdout,
            "ledger_stdout": ledger.stdout,
        }
        for key, data in outputs.items():
            ctx.same_bytes(key, sha256(data))
        ctx.same_bytes("workspace", tree_digest(ws))
        tower = _json(export.stdout)
        checks.guarded("tower", check_tower, tower, ctx.rng, 200)
        checks.guarded("ledger", check_ledger, _json(ledger.stdout), tower_file)
    check_s = time.perf_counter() - start
    ctx.corruption_detected = tower_corruption_detected(tower, ctx.rng)
    return {
        "phase1_s": build.wall,
        "phase2_s": export.wall + ledger.wall,
        "wall_s": build.wall + export.wall + ledger.wall + check_s,
    }


def tower_corruption_detected(doc: dict, rng: random.Random) -> bool:
    """Swap two entries of one column of a correct table: the check must fail."""
    doc = json.loads(json.dumps(doc))
    for node in doc.get("nodes", []):
        table = node.get("subgroup", {}).get("table", [])
        if len(table) > 1:
            table[0][0], table[1][0] = table[1][0], table[0][0]
            break
    checks = Checks()
    checks.guarded("probe", check_tower, doc, rng, 20)
    return bool(checks.failed)


# ---------------------------------------------------------------------------
# enumerate-store: library counts, then the CLI writes every subgroup.

COUNT_CASES = ((2, 4), (3, 3))
COUNT_PASSES = 3
STORE_GENUS, STORE_INDEX = 2, 4
# Published values of the Mednykh-Hall counts; the oracle recomputes them.
ORACLE_COUNTS = {(2, 4): {1: 1, 2: 15, 3: 220, 4: 5275}, (3, 3): {1: 1, 2: 63, 3: 7924}}


def check_counts(checks: Checks, label: str, counts: dict, genus: int, max_index: int) -> None:
    oracle = oracles.subgroup_counts(genus, max_index)
    checks.check(f"{label}.oracle", oracle == ORACLE_COUNTS[(genus, max_index)])
    checks.check(f"{label}.counts", {int(k): v for k, v in counts.items()} == oracle)


def count_phase(inputs, tracer, checks: Checks) -> dict:
    import covertower as ct

    # enumerate keeps no cache, so back-to-back passes in one process each
    # do the full work; their mean times a window long enough to be steady.
    counts = []
    start = time.perf_counter()
    for _ in range(COUNT_PASSES):
        for genus, max_index in COUNT_CASES:
            with _op(tracer, f"bench.count-g{genus}-i{max_index}"):
                subs = ct.low_index_subgroups(ct.SurfacePresentation(genus), max_index)
                by_index: dict[int, int] = {}
                for s in subs:
                    by_index[s.index] = by_index.get(s.index, 0) + 1
            counts.append(((genus, max_index), by_index))
    elapsed = (time.perf_counter() - start) / COUNT_PASSES
    start = time.perf_counter()
    for (genus, max_index), by_index in counts:
        check_counts(checks, f"count.g{genus}-i{max_index}", by_index, genus, max_index)
    check_s = time.perf_counter() - start
    # A count one off must be reported as a failure.
    (genus, max_index), by_index = counts[0]
    wrong = dict(by_index)
    wrong[1] = wrong.get(1, 0) + 1
    probe = Checks()
    check_counts(probe, "probe", wrong, genus, max_index)
    return {"phase1_s": elapsed, "check_s": check_s, "corruption_detected": bool(probe.failed)}


def check_store(checks: Checks, ws: Path, manifest: dict, rng: random.Random, sample: int) -> None:
    files = manifest.get("files", [])
    check_counts(checks, "store", manifest.get("counts", {}), STORE_GENUS, STORE_INDEX)
    checks.check("store.files", len(files) == sum(ORACLE_COUNTS[(2, 4)].values()) == len(set(files)))
    manifest_name = f"manifest-enumerate-g{STORE_GENUS}-i{STORE_INDEX}.json"
    on_disk = sorted(p.name for p in ws.iterdir())
    checks.check("store.listing", on_disk == sorted(files + ["index.json", manifest_name]))
    index = _json((ws / "index.json").read_bytes()) if (ws / "index.json").exists() else {}
    checks.check(
        "store.index",
        [e.get("file") for e in index.get("entries", [])] == sorted(files)
        and all(e.get("schema") == "subgroup/1" for e in index.get("entries", [])),
    )
    for name in rng.sample(files, min(sample, len(files))):
        doc = _json((ws / name).read_bytes()) if (ws / name).exists() else {}
        table = doc.get("table", [])
        checks.check(
            f"store.{name}",
            doc.get("genus") == STORE_GENUS
            and doc.get("index") == len(table) <= STORE_INDEX
            and not oracles.table_problems(table, STORE_GENUS, doc.get("basepoint", -1)),
        )


def enumerate_store(ctx) -> dict:
    count = ctx.worker("phase")
    ws = ctx.workspace()
    store = ctx.cli(["--workspace", str(ws), "enumerate", "--genus", str(STORE_GENUS), "--max-index", str(STORE_INDEX)])
    start = time.perf_counter()
    with ctx.span("bench.check"):
        ctx.checks.check("store.exit", store.returncode == 0)
        ctx.same_bytes("stdout", sha256(store.stdout))
        ctx.same_bytes("workspace", tree_digest(ws))
        manifest = _json(store.stdout)
        ctx.checks.guarded("store", check_store, ws, manifest, ctx.rng, 200)
    check_s = time.perf_counter() - start
    manifest["counts"] = dict(manifest.get("counts", {}), **{"4": -1})
    probe = Checks()
    probe.guarded("probe", check_store, ws, manifest, ctx.rng, 0)
    ctx.corruption_detected = bool(probe.failed) and count.get("corruption_detected", False)
    count_s = count.get("phase1_s", 0.0)
    return {
        "phase1_s": count_s,
        "phase2_s": store.wall,
        "wall_s": count_s + count.get("check_s", 0.0) + store.wall + check_s,
    }


# ---------------------------------------------------------------------------
# vaut-laws: group laws on the mod-4 homology cover, then zigzag reductions.

LAW_COVER_LEVEL = 4  # index 4^4 = 256
INNER_WORD_LENGTH = 2
ZIGZAGS = 200


def laws_inputs(seed: int):
    import covertower as ct

    rng = random.Random(seed)
    pres = ct.SurfacePresentation(2)
    index_two = [s for s in ct.low_index_subgroups(pres, 2) if s.index == 2]
    pairs = [(i, j) for i in range(len(index_two)) for j in range(i + 1, len(index_two))]
    return {
        "pres": pres,
        "inner": [random_word(rng, INNER_WORD_LENGTH, 4) for _ in range(2)],
        "index_two": index_two,
        "pairs": rng.choices(pairs, k=ZIGZAGS),
    }


def laws_phase(inputs, tracer, checks: Checks) -> dict:
    import covertower as ct

    pres = inputs["pres"]
    results: list[tuple[str, bool]] = []
    start = time.perf_counter()
    with _op(tracer, "bench.law-setup"):
        cover = ct.homology_cover(pres, LAW_COVER_LEVEL).subgroup
        a = ct.vaut_from_automorphism(ct.handle_swap(pres), cover)
        b = ct.vaut_from_automorphism(ct.inner_automorphism(pres, inputs["inner"][0]), a.codomain)
        c = ct.vaut_from_automorphism(ct.inner_automorphism(pres, inputs["inner"][1]), b.codomain)
    laws = {
        "identity-left": lambda: (ct.compose(ct.identity_vaut(cover), a), a),
        "identity-right": lambda: (ct.compose(a, ct.identity_vaut(a.codomain)), a),
        "inverse-left": lambda: (ct.compose(a, ct.inverse(a)), ct.identity_vaut(cover)),
        "inverse-right": lambda: (ct.compose(ct.inverse(a), a), ct.identity_vaut(a.codomain)),
        "associativity": lambda: (ct.compose(ct.compose(a, b), c), ct.compose(a, ct.compose(b, c))),
    }
    domains = []
    for name, law in laws.items():
        with _op(tracer, f"bench.law-{name}"):
            lhs, rhs = law()
            results.append((f"law.{name}", ct.germ_equals(lhs, rhs)))
        domains.append(lhs.domain.index)
    compose_s = time.perf_counter() - start

    middle_index = []
    start = time.perf_counter()
    for k, (i, j) in enumerate(inputs["pairs"]):
        with _op(tracer, f"bench.zigzag-{k}"):
            A, B = inputs["index_two"][i], inputs["index_two"][j]
            C = ct.intersect(A, B)
            path = ct.cycle_from_subgroups([A, C, B])
            left = ct.from_two_arrow(ct.reduce_cycle(path, order="left"))
            right = ct.from_two_arrow(ct.reduce_cycle(path, order="right"))
            results.append((f"zigzag.{i}-{j}", ct.germ_equals(left, right)))
        middle_index.append(C.index)
    cycle_s = time.perf_counter() - start

    start = time.perf_counter()
    for name, ok in results:
        checks.check(name, ok)
    # The cover is characteristic, so every law keeps it as the domain.
    checks.check("law.domains", domains == [LAW_COVER_LEVEL**4] * len(laws))
    # Two distinct index-2 subgroups meet in index 4.
    checks.check("zigzag.index", middle_index == [4] * len(middle_index))
    check_s = time.perf_counter() - start
    # The handle swap is not the identity germ: offered as the result of an
    # identity law, the germ check must fail.
    detected = not ct.germ_equals(a, ct.identity_vaut(cover))
    return {"phase1_s": compose_s, "phase2_s": cycle_s, "check_s": check_s, "corruption_detected": detected}


# ---------------------------------------------------------------------------
# torus: genus_one only, no coset tables.

FLOAT_CHECKS, EXACT_CHECKS, ORBIT_TARGETS = 80_000, 20_000, 8_000
ORACLE_SAMPLE = 2_000
BATCH = 1_000


def torus_inputs(seed: int):
    import covertower as ct

    rng = random.Random(seed)
    mats = []
    while len(mats) < 60:
        raw = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        if raw[0][0] * raw[1][1] - raw[0][1] * raw[1][0] > 0:
            mats.append(ct.mobius_from_integer_matrix(raw))
    floats = [
        (rng.choice(mats), rng.choice(mats), ct.UpperHalfPoint(rng.uniform(-5, 5), rng.uniform(0.1, 5.0)))
        for _ in range(FLOAT_CHECKS)
    ]
    exact = [
        (
            rng.choice(mats),
            rng.choice(mats),
            ct.UpperHalfPoint(
                Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                Fraction(rng.randint(1, 30), rng.randint(1, 9)),
            ),
        )
        for _ in range(EXACT_CHECKS)
    ]
    targets = [ct.UpperHalfPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5.0)) for _ in range(ORBIT_TARGETS)]
    return {"floats": floats, "exact": exact, "targets": targets, "sample": set(rng.sample(range(EXACT_CHECKS), ORACLE_SAMPLE))}


def torus_phase(inputs, tracer, checks: Checks) -> dict:
    import covertower as ct

    float_bad = exact_bad = orbit_bad = 0
    sampled = []
    start = time.perf_counter()
    cases = inputs["floats"]
    for b in range(0, len(cases), BATCH):
        with _op(tracer, f"bench.float-{b // BATCH}"):
            for m, n, tau in cases[b : b + BATCH]:
                lhs = ct.act(ct.compose_mobius(m, n), tau)
                rhs = ct.act(m, ct.act(n, tau))
                if not cmath.isclose(lhs.as_complex(), rhs.as_complex(), rel_tol=1e-12, abs_tol=1e-12):
                    float_bad += 1
    cases = inputs["exact"]
    sample = inputs["sample"]
    for b in range(0, len(cases), BATCH):
        with _op(tracer, f"bench.exact-{b // BATCH}"):
            for k in range(b, min(b + BATCH, len(cases))):
                m, n, tau = cases[k]
                lhs = ct.act(ct.compose_mobius(m, n), tau)
                rhs = ct.act(m, ct.act(n, tau))
                if not (lhs.real == rhs.real and lhs.imag == rhs.imag):
                    exact_bad += 1
                if k in sample:
                    sampled.append((k, lhs))
    checks_s = time.perf_counter() - start

    start = time.perf_counter()
    origin = ct.i_point()
    for k, target in enumerate(inputs["targets"]):
        with _op(tracer, f"bench.orbit-{k}"):
            image = ct.act(ct.dense_orbit_approx(origin, target, 1e-6), origin)
            orbit_bad += abs(image.as_complex() - target.as_complex()) >= 1e-6
    orbit_s = time.perf_counter() - start

    start = time.perf_counter()
    checks.check("torus.float", float_bad == 0)
    checks.check("torus.exact", exact_bad == 0)
    checks.check("torus.orbit", orbit_bad == 0)
    checks.check("torus.oracle", exact_oracle_agrees(inputs["exact"], sampled))
    check_s = time.perf_counter() - start
    # One sampled value off by 1e-9 must disagree with the oracle.
    k, value = sampled[0]
    wrong = ct.UpperHalfPoint(value.real + Fraction(1, 10**9), value.imag)
    detected = not exact_oracle_agrees(inputs["exact"], [(k, wrong)])
    return {"phase1_s": checks_s, "phase2_s": orbit_s, "check_s": check_s, "corruption_detected": detected}


def exact_oracle_agrees(cases, sampled) -> bool:
    """Library values on sampled rational points against plain Fractions."""
    for k, value in sampled:
        m, n, tau = cases[k]
        want = oracles.mobius_act_exact(oracles.mat_mul(m.entries, n.entries), tau.real, tau.imag)
        if (value.real, value.imag) != want:
            return False
    return bool(sampled)


# ---------------------------------------------------------------------------


def _op(tracer, name: str):
    """One workload operation: a root span with its own operation id."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, op=tracer.new_op())


def library_only(ctx) -> dict:
    """Parent side of a workload that runs entirely in one worker."""
    result = ctx.worker("phase")
    ctx.corruption_detected = result.get("corruption_detected", False)
    times = [result.get(k, 0.0) for k in ("phase1_s", "phase2_s", "check_s")]
    return {"phase1_s": times[0], "phase2_s": times[1], "wall_s": sum(times)}


def no_inputs(seed: int):
    return None


# name -> (seeded library inputs, library phase, parent-side iteration)
WORKLOADS = {
    "tower-ledger": (no_inputs, None, tower_ledger),
    "enumerate-store": (no_inputs, count_phase, enumerate_store),
    "vaut-laws": (laws_inputs, laws_phase, library_only),
    "torus": (torus_inputs, torus_phase, library_only),
}
