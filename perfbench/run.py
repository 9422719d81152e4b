"""Benchmark for orientkit: one workload per run, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a source tree; the library is imported from
``src/`` of that tree and nowhere else. A run sets up its inputs, then
makes passes over them until ``--seconds`` have gone by (finishing the pass
under way). With ``--trace 0`` it reports the end-to-end metrics, its
pass and op times scaled to a reference host speed that a probe measures
throughout the run (speed.py); with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it, starting
with ``record``, says what the run was and on what, with the unscaled
times. README.md beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
WORKLOAD_NAMES = ("verify-e5", "theta-sym", "orient-oracle", "families-n4")


def import_library() -> None:
    """Import orientkit from this tree's ``src``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import orientkit

    if not Path(orientkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"orientkit was found at {orientkit.__file__}, not under {SRC}")


def library_caches() -> list:
    """Every ``functools`` cache in the package, cleared before each pass so
    that each pass pays for them as a fresh user process does."""
    return [value for name, mod in list(sys.modules.items())
            if name == "orientkit" or name.startswith("orientkit.")
            for value in vars(mod).values() if hasattr(value, "cache_clear")]


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(name: str, seed: int, workdir: Path, reference: str) -> tuple[list[float], bool]:
    """Time fresh interpreters that import the library and write the inputs,
    and check that each wrote exactly the inputs this process wrote."""
    times = []
    identical = True
    for i in range(SETUP_SAMPLES):
        target = workdir / f"setup-{i}"
        target.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only", str(target)]
        t0 = perf_counter()
        # A blocking wait: subprocess.run with a timeout polls, in steps of up to 50 ms.
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
            returncode = proc.wait()
        times.append(perf_counter() - t0)
        if returncode:
            raise subprocess.CalledProcessError(returncode, cmd)
        identical &= tree_digest(target) == reference
        shutil.rmtree(target)
    return times, identical


def run_pass(workload, data, probe=None) -> dict:
    """One pass over the inputs. Each op's span is kept so that it can be
    scaled later; the time spent in the probe is taken out of every
    latency and of the pass time."""
    def probe_spent() -> float:
        return probe.spent if probe else 0.0

    spans, latencies = [], []
    failed = 0
    first_error = None
    t0, spent0 = perf_counter(), probe_spent()
    for op in workload.ops(data):
        start, spent = perf_counter(), probe_spent()
        try:
            ok = op()
        except Exception as err:  # a failed op is counted, and the run goes on
            ok = False
            first_error = first_error or f"{type(err).__name__}: {err}"
        end = perf_counter()
        spans.append((start, end))
        latencies.append(end - start - (probe_spent() - spent))
        failed += not ok
    end = perf_counter()
    return {"span": (t0, end), "wall": end - t0 - (probe_spent() - spent0),
            "spans": spans, "latencies": latencies, "failed": failed, "error": first_error}


def measure(workload, data, seconds: float, tracer, probe) -> dict:
    """Passes over the inputs until ``seconds`` have gone by, with the probe
    running throughout; each pass then gets its time and its op latencies
    scaled to the reference speed. With a tracer, every second pass is
    traced, starting with the second; counts come from the first traced
    pass and times are averaged over all traced passes."""
    caches = library_caches()
    cycle_basis = sys.modules["orientkit.orientation"].cycle_basis
    passes = []
    first_traced = None
    start = perf_counter()
    probe.start()
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            for cache in caches:
                cache.cache_clear()
            if traced:
                tracer.install()
            try:
                result = run_pass(workload, data, probe)
            finally:
                if traced:
                    tracer.uninstall()
            result["traced"] = traced
            passes.append(result)
            if traced and first_traced is None:
                info = cycle_basis.cache_info() if hasattr(cycle_basis, "cache_info") else None
                first_traced = {"stats": copy.deepcopy(tracer.stats), "ops": len(result["latencies"]),
                                "cache_hits": info.hits if info else 0,
                                "cache_misses": info.misses if info else 0}
            if perf_counter() - start >= seconds and (tracer is None or len(passes) >= 2):
                break
    finally:
        probe.stop()
    for p in passes:
        p["scaled_wall"] = p["wall"] * probe.factor(*p["span"])
        p["scaled_latencies"] = [x * probe.factor(*span) for x, span in zip(p["latencies"], p["spans"])]
    return {"passes": passes, "first_traced": first_traced}


def end_to_end_metrics(passes: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    """Pass and op times scaled to the reference speed (see speed.py);
    set-up times as measured."""
    walls = [p["scaled_wall"] for p in passes]
    latencies = [x for p in passes for x in p["scaled_latencies"]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    samples = {"wall_s": len(walls), "op_p50_ms": len(latencies), "op_p90_ms": len(latencies),
               "setup_s": len(setup_times),
               "op_p90_beyond": len(latencies) - math.ceil(0.9 * len(latencies))}
    return metrics, samples


def raw_times(passes: list[dict], probe) -> dict:
    """The unscaled figures, for the record line."""
    latencies = [x for p in passes for x in p["latencies"]]
    return {"wall_s": statistics.median(p["wall"] for p in passes),
            "op_p50_ms": 1000 * percentile(latencies, 50),
            "op_p90_ms": 1000 * percentile(latencies, 90),
            "probe_median_ms": 1000 * statistics.median(probe.times),
            "probe_count": len(probe.times),
            "probe_share": probe.spent / sum(p["span"][1] - p["span"][0] for p in passes)}


def per_layer_metrics(tracer, measured: dict) -> dict:
    """Layer times per traced pass, scaled by the traced passes' mean factor
    (weighted by their time), since the tracer keeps totals, not spans."""
    first = measured["first_traced"]
    counts = first["stats"]
    traced = [p for p in measured["passes"] if p["traced"]]
    untraced = [p for p in measured["passes"] if not p["traced"]]
    scale = sum(p["scaled_wall"] for p in traced) / sum(p["wall"] for p in traced) / len(traced)
    metrics = {}
    for name, st in counts.items():
        metrics[f"{name}.calls"] = (st.calls, "count")
        metrics[f"{name}.s"] = (tracer.stats[name].s * scale, "s")
        metrics[f"{name}.errors"] = (st.errors, "count")
    metrics["orientation.theta_k.self_s"] = (tracer.stats["orientation.theta_k"].self_s * scale, "s")
    for layer, self_s in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = (self_s * scale, "s")
    classes = counts["corpus.enumerate_graphs"].items
    canon = counts["graphs.canonical_graph"].calls
    found = counts["automorphisms.enumerate"].items
    lookups = first["cache_hits"] + first["cache_misses"]
    metrics.update({
        "corpus.classes": (classes, "count"),
        "corpus.dedup_ratio": (classes / canon if canon else 0.0, "ratio"),
        "automorphisms.found": (found, "count"),
        "automorphisms.induced_actions_per_aut": (
            counts["automorphisms.induced_actions"].calls / found if found else 0.0, "ratio"),
        "orientation.cycle_basis.hit_ratio": (first["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "orientation.oracle_calls_per_op": (
            counts["orientation.or_orbits_bruteforce"].calls / first["ops"], "ratio"),
        "bench.ops_per_pass": (first["ops"], "count"),
        "trace.overhead_s": (statistics.median(p["scaled_wall"] for p in traced)
                             - statistics.median(p["scaled_wall"] for p in untraced), "s"),
    })
    return metrics


def run_workload(args, workdir: Path) -> int:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workdir / "inputs"
    inputs.mkdir()
    workload.write(args.seed, inputs)
    data = workload.load(inputs)
    setup_times, setup_identical = measure_setup(workload.name, args.seed, workdir,
                                                 tree_digest(inputs))
    probe = speed.Probe()
    try:
        tracer = tracing.Tracer(probe.work_clock) if args.trace else None
    except tracing.CoverageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    measured = measure(workload, data, args.seconds, tracer, probe)
    passes = measured["passes"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "source_sha256": tree_digest(SRC / "orientkit"),
        "passes": len(passes), "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "error_rate": failed / attempted,
        "first_error": next((p["error"] for p in passes if p["error"]), None),
        "setup_inputs_identical": setup_identical,
        "setup_samples_s": [round(t, 4) for t in setup_times],
    }
    if tracer is not None:
        try:
            tracer.check_coverage(workload.expected_calls)
        except tracing.CoverageError as err:
            print(f"error: {err}", file=sys.stderr)
            return 3
        metrics = per_layer_metrics(tracer, measured)
        record["traced_passes"] = sum(p["traced"] for p in passes)
        record["trace_overhead_s"] = metrics["trace.overhead_s"][0]
    else:
        metrics, record["samples"] = end_to_end_metrics(passes, setup_times)
        record["raw"] = {k: round(v, 6) for k, v in raw_times(passes, probe).items()}
        record["pass_scaled_wall_s"] = [round(p["scaled_wall"], 4) for p in passes]
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} ratio ({failed}/{attempted} ops)")
    if record["first_error"]:
        print(f"first error: {record['first_error']}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and setup_identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as err:
        print(f"error: cannot import orientkit from {SRC}: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        workload.write(args.seed, Path(args.setup_only))
        workload.load(Path(args.setup_only))
        return 0
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
