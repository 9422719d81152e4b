"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import collections
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

run.import_library()

import orientkit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDED = ("theta-sym", "orient-oracle", "families-n4")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    base = run.ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    yield path
    shutil.rmtree(path)
    if not any(base.iterdir()):
        base.rmdir()


def write_inputs(name: str, seed: int, parent: Path) -> Path:
    target = parent / f"{name}-{seed}-{len(list(parent.iterdir()))}"
    target.mkdir()
    workloads.WORKLOADS[name].write(seed, target)
    return target


@pytest.mark.parametrize("name", SEEDED)
def test_seed_determines_inputs(name, workdir):
    first = run.tree_digest(write_inputs(name, 11, workdir))
    assert run.tree_digest(write_inputs(name, 11, workdir)) == first
    assert run.tree_digest(write_inputs(name, 12, workdir)) != first


def test_theta_sym_graphs_are_connected_capped_and_counted(workdir):
    records = workloads.WORKLOADS["theta-sym"].load(write_inputs("theta-sym", 3, workdir))
    assert len(records) == len(workloads.theta_sym_shapes())
    for r in records:
        g = orientkit.parse_graph(r["graph"])
        assert g.is_connected() and g.half_edge_count <= 14
        assert 2 <= len(g.vertices) <= 4 and 6 <= len(g.edges) <= 7
        assert r["aut"] == len(orientkit.enumerate_automorphisms(g)) <= 768


def test_orient_oracle_graphs_are_connected_and_capped(workdir):
    files = workloads.WORKLOADS["orient-oracle"].load(write_inputs("orient-oracle", 3, workdir))
    assert len(files) == len(workloads.ORIENT_SHAPES)
    for path in files:
        g = orientkit.parse_graph(path.read_text())
        assert g.is_connected() and g.half_edge_count <= 14 and 5 <= len(g.vertices) <= 7


def test_families_inputs_keep_psi_an_automorphism(workdir):
    records = workloads.WORKLOADS["families-n4"].load(write_inputs("families-n4", 3, workdir))
    assert len(records) == sum(1 for _ in orientkit.family_instances(4))
    for r in records:
        g = orientkit.parse_graph(r["graph"])
        orientkit.as_automorphism(g, tuple(r["psi"]))
        assert [k for k, _ in r["checks"]] == list(range(1, len(g.edges) + 1))


def test_theta_sym_shapes_follow_their_rule():
    """Every connected multigraph class on 2-4 vertices with 6-7 edges and
    |Aut| <= 768; grouped by |Aut|, every 8th in text order."""
    by_aut = collections.defaultdict(set)
    for nv in (2, 3, 4):
        slots = [(u, u) for u in range(nv)] + list(itertools.combinations(range(nv), 2))
        index = {s: i for i, s in enumerate(slots)}
        relabel = [[index[tuple(sorted((p[u], p[v])))] for u, v in slots]
                   for p in itertools.permutations(range(nv))]
        for ne in (6, 7):
            for cut in itertools.combinations(range(ne + len(slots) - 1), len(slots) - 1):
                mult = [b - a - 1 for a, b in zip((-1,) + cut, cut + (ne + len(slots) - 1,))]
                key = max(tuple(mult[q[i]] for i in range(len(slots))) for q in relabel)
                pairs = [s for s, m in zip(slots, key) for _ in range(m)]
                seen, todo = {0}, [0]
                while todo:
                    u = todo.pop()
                    for a, b in pairs:
                        for x, y in ((a, b), (b, a)):
                            if x == u and y not in seen:
                                seen.add(y)
                                todo.append(y)
                if len(seen) == nv and (aut := workloads.aut_order(pairs)) <= 768:
                    by_aut[aut].add(" ".join(f"{u}{v}" for u, v in sorted(pairs)))
    expected = [s for aut in sorted(by_aut) for s in sorted(by_aut[aut])[::8]]
    assert workloads.theta_sym_shapes() == expected


def test_verify_fails_on_a_corrupted_expected_digest(workdir):
    sweep = workloads.VerifySweep("verify-e3", 3)
    data = sweep.load(workdir)
    assert run.run_pass(sweep, data)["failed"] == 0
    digest, classes, auts = sweep.expected
    sweep.expected = ("0" * 64, classes, auts)
    assert run.run_pass(sweep, data)["failed"] == 1


def test_doctored_theta_in_the_sweep_is_an_error(workdir, monkeypatch):
    corpus = orientkit.corpus
    theta_k, theta_s = corpus.sweep_theorem.__defaults__

    def doctored(g, a):
        return theta_k(g, a) * (-1 if len(g.edges) == 3 else 1)

    monkeypatch.setattr(corpus.sweep_theorem, "__defaults__", (doctored, theta_s))
    sweep = workloads.VerifySweep("verify-e3", 3)
    passes = run.measure(sweep, sweep.load(workdir), 0, None, speed.Probe())["passes"]
    assert passes[0]["failed"] == len(passes[0]["latencies"]) == 1


def test_wrong_answers_and_exceptions_count_as_failures(workdir):
    theta = workloads.WORKLOADS["theta-sym"]
    records = theta.load(write_inputs("theta-sym", 5, workdir))[:3]
    records[0] = dict(records[0], aut=records[0]["aut"] + 1)
    records[1] = dict(records[1], graph="halfedges=3; edges=; vertices=")
    assert run.run_pass(theta, records)["failed"] == 2

    oracle = workloads.WORKLOADS["orient-oracle"]
    bad = workdir / "bad.graph"
    bad.write_text("halfedges=2; edges=(0 1); vertices={0}\n")
    assert run.run_pass(oracle, [bad])["failed"] == 2

    families = workloads.WORKLOADS["families-n4"]
    records = families.load(write_inputs("families-n4", 5, workdir))[-1:]
    records[0]["checks"][1][1] = 10**6
    assert run.run_pass(families, records)["failed"] == 1


def test_probe_time_is_taken_out_and_spans_are_scaled(workdir):
    theta = workloads.WORKLOADS["theta-sym"]
    records = theta.load(write_inputs("theta-sym", 4, workdir))[:20]
    probe = speed.Probe(interval=0.01)
    probe.start()
    try:
        result = run.run_pass(theta, records, probe)
    finally:
        probe.stop()
    assert result["failed"] == 0 and len(probe.times) >= 5
    start, end = result["span"]
    assert result["wall"] == pytest.approx(end - start - probe.spent, abs=1e-3)
    assert sum(result["latencies"]) <= result["wall"]
    # A span between probes takes the nearest probe's factor; a span that
    # holds probes takes their mean.
    inside = probe.factor(start, end)
    assert min(probe.factors) <= inside <= max(probe.factors)
    assert probe.factor(probe.starts[0], probe.starts[0]) == probe.factors[0]


def traced_counts(workload, data) -> dict:
    probe = speed.Probe()
    tracer = tracing.Tracer(probe.work_clock)
    measured = run.measure(workload, data, 0, tracer, probe)
    tracer.check_coverage(workload.expected_calls)
    return {k: v for k, (v, unit) in run.per_layer_metrics(tracer, measured).items()
            if unit == "count"}


def test_traced_counts_repeat_and_reach_every_layer(workdir):
    sweep = workloads.VerifySweep("verify-e3", 3)
    first = traced_counts(sweep, sweep.load(workdir))
    assert traced_counts(sweep, sweep.load(workdir)) == first
    # sweep_theorem reaches theta_k only through its default arguments.
    assert first["orientation.theta_k.calls"] == first["automorphisms.found"] == 122
    assert first["corpus.classes"] == 17
    assert orientkit.corpus.sweep_theorem.__defaults__[0] is orientkit.orientation.theta_k
    assert orientkit.cli.cli_main.__module__ == "orientkit.cli"


def test_coverage_guard_rejects_a_silent_layer(workdir):
    sweep = workloads.VerifySweep("verify-e3", 3)
    tracer = tracing.Tracer()
    run.measure(sweep, sweep.load(workdir), 0, tracer, speed.Probe())
    with pytest.raises(tracing.CoverageError, match="or_orbits_bruteforce"):
        tracer.check_coverage(("orientation.theta_k", "orientation.or_orbits_bruteforce"))


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_declared_metric(trace, section):
    proc = run_benchmark(run.ROOT, "--workload", "families-n4", "--seed", "2",
                         "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_library(workdir):
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    proc = run_benchmark(workdir, "--workload", "theta-sym", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
