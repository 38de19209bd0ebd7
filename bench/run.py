"""End-to-end and per-layer benchmark of the delayboost library.

    python3 bench/run.py --workload train-paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  The
workloads (bench/workloads.py) are train-paper, tune-grid and prepare-score.

A run sets the workload up at least three times and for at least three
seconds, each time in a fresh process (bench/setup_inputs.py), and reports
the median as setup_s.  It then repeats the workload's pass until --seconds
have passed, at least twice, and checks every pass's outputs.  With
--trace 0 the last line of standard output carries the end-to-end metrics;
with --trace 1, passes alternate traced and untraced, and it carries the
per-layer metrics from the traced passes plus the tracing overhead.  Metric
names and units come from BENCHMARK.json.

Results, and with --trace 1 every span, are written to bench/out/results/.
Fingerprints of outputs and exact counts are kept in bench/out/fingerprints/
and compared with those of earlier runs of the same seed and program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
# Set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S have
# passed, so that short set-ups get enough samples for a steady median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0
# Two passes let every run compare outputs; a traced run needs two traced
# passes to compare counts, and one untraced pass between them.
MIN_PASSES = 2
MIN_TRACED_PASSES = 3
CHILD_TIMEOUT_S = 150
# One process, no worker threads: keep any BLAS pool NumPy may start at one.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Counts that must repeat exactly across traced passes and across runs.
EXACT_COUNTS = (
    "dataset.rows_loaded",
    "resample.rows_added",
    "tree.fit_tree.calls",
    "tree.nodes",
    "tree.leaves",
    "tune.fits",
    "tune.trees_fitted",
    "tune.trees_needed",
    "model_io.model_bytes",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "delayboost" / "__init__.py").is_file():
        print("error: src/delayboost not found; run from the root of a delayboost checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = run(args, spec, workloads, work_dir)
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


class SetupFailed(Exception):
    pass


def run(args, spec, workloads, work_dir: Path) -> dict:
    import numpy as np

    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    reps = set_up(args, work_dir)
    tracer = Tracer()
    m = measure(workload, args.seconds, tracer if args.trace else None, workloads)
    problems = list(m["problems"])

    e2e = {"setup_s": statistics.median(r["seconds"] for r in reps)}
    if m["passes"]:
        e2e["pass_s"] = statistics.median(p["seconds"] for p in m["passes"])
        e2e["rows_per_s"] = workload.rows / e2e["pass_s"]
    e2e["peak_rss_mb"] = m["peak_rss_mb"]
    e2e.update(m["quality"])

    layers, counts, absent = {}, None, []
    if args.trace:
        layers, counts, absent, count_problems = per_layer(m, reps, workload, workloads)
        problems += count_problems

    record = {
        "program_sha256": program_digest(),
        "outputs": {**m["fingerprint"], **m["quality"]} if m["fingerprint"] else None,
        "counts": counts,
    }
    problems += check_across_runs(OUT / "fingerprints" / f"{args.workload}-seed{args.seed}.json",
                                  record)

    attempted = len(m["passes"]) + len(m["failures"])
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    missing = [d["name"] for d in names if d["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in names if d["name"] in values}

    why = next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), "")
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "machine": platform.machine()}
    times = sorted(p["seconds"] for p in m["passes"])
    results = {
        "workload": args.workload,
        "mirrors": workload.mirrors,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "program_sha256": record["program_sha256"],
        "setup": {"seconds": [r["seconds"] for r in reps],
                  "import_s": [r["import_s"] for r in reps]},
        "passes": [{"seconds": p["seconds"], "traced": p["traced"]} for p in m["passes"]],
        "pass_s_tail": tail(times),
        "failed_frac": len(m["failures"]) / attempted,
        "failures": m["failures"],
        "problems": problems,
        "outputs": record["outputs"],
        "counts": counts,
        "absent_spans": absent,
        "end_to_end": e2e,
        "per_layer": layers,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(results, indent=2) + "\n")
    if args.trace:
        (results_dir / f"{args.workload}-seed{args.seed}.spans.json").write_text(
            json.dumps(all_spans(reps, tracer.spans)) + "\n")

    report(results, names, values)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems and not m["failures"],
        "attempted": attempted,
        "failed": len(m["failures"]),
        "metrics": metrics,
    }


def set_up(args, work_dir: Path) -> list[dict]:
    """Run the workload's set-up repeatedly, each time in a fresh process.

    Every repetition must write byte-identical files.
    """
    from workloads import sha256_file

    reps = []
    deadline = time.perf_counter() + SETUP_MIN_S
    while len(reps) < SETUP_MIN_REPS or time.perf_counter() < deadline:
        cmd = [sys.executable, str(BENCH / "setup_inputs.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--dir", str(work_dir), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            raise SetupFailed(f"no result within {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise SetupFailed(proc.stderr.strip() or f"exit code {proc.returncode}")
        rep = json.loads(proc.stdout.splitlines()[-1])
        rep["digests"] = {p.name: sha256_file(p) for p in sorted(work_dir.iterdir())}
        reps.append(rep)
    if any(r["digests"] != reps[0]["digests"] for r in reps):
        raise SetupFailed("set-up repetitions wrote different files")
    return reps


def measure(workload, seconds: float, tracer, workloads) -> dict:
    """Repeat the pass until `seconds` have passed, and at least `min_passes` times.

    With a tracer, even-numbered passes run with the boundaries patched.  A
    pass that raises, or whose outputs fail a check or differ from the first
    pass's, counts as failed.  Quality comes from the last pass.
    """
    passes, failures = [], []
    fingerprint, quality, problems = None, {}, []
    peak_rss_mb = 0.0
    min_passes = MIN_PASSES if tracer is None else MIN_TRACED_PASSES
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 0
        out = None
        try:
            if traced:
                with tracer.installed(workloads.BOUNDARIES), tracer.span("pass") as root:
                    out = workload.run()
                elapsed, root_id = root["end"] - root["start"], root["id"]
            else:
                start = time.perf_counter()
                out = workload.run()
                elapsed, root_id = time.perf_counter() - start, None
            fp = workload.check(out)
            if fingerprint is not None and fp != fingerprint:
                raise workloads.CheckFailed(f"outputs differ from the first pass's: {fp} != {fingerprint}")
            fingerprint = fp
            passes.append({"seconds": elapsed, "traced": traced, "root": root_id})
        except Exception as exc:  # record the pass as failed and keep measuring
            failures.append(f"pass {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            out = None
        if i == 0:  # a CLI process runs one pass; later passes add fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        i += 1
        if i < min_passes or time.perf_counter() < deadline:
            continue
        if out is None:
            problems.append("last pass failed, so quality was not measured")
        else:
            try:
                quality = workload.quality(out)
            except workloads.CheckFailed as exc:
                problems.append(str(exc))
        break
    return {"passes": passes, "failures": failures, "fingerprint": fingerprint,
            "quality": quality, "problems": problems, "peak_rss_mb": peak_rss_mb,
            "spans": tracer.spans if tracer is not None else []}


def per_layer(m: dict, reps: list[dict], workload, workloads):
    """Per-layer metrics: medians over traced passes, counts checked equal."""
    from spans import Layers, descendants

    traced = [p for p in m["passes"] if p["traced"]]
    untraced = [p for p in m["passes"] if not p["traced"]]
    per_pass = [layer_metrics(Layers(descendants(m["spans"], p["root"])), workload)
                for p in traced]
    setup_layers = [Layers(r["spans"]) for r in reps]
    problems = []
    layers, counts = {}, {}
    for name in (per_pass[0] if per_pass else {}):
        values = [pm[name] for pm in per_pass]
        if name in EXACT_COUNTS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            counts[name] = layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    for name in ("dataset.generate_synthetic", "dataset.write_csv"):
        layers[f"{name}.s"] = statistics.median(L.seconds(name) for L in setup_layers)
    layers["tune.cv_best_score"] = (m["fingerprint"] or {}).get("cv_best_score", 0.0)
    if traced and untraced:
        layers["bench.trace_overhead_s"] = (
            statistics.median(p["seconds"] for p in traced)
            - statistics.median(p["seconds"] for p in untraced))
    seen = {s["name"] for s in m["spans"]} | {s["name"] for r in reps for s in r["spans"]}
    absent = sorted({b[2] for b in workloads.BOUNDARIES} - seen)
    return layers, counts or None, absent, problems


def layer_metrics(L, workload) -> dict:
    """Metrics of one traced pass.  A boundary with no spans reads 0."""
    fit_s, fit_calls = L.seconds("tree.fit_tree"), L.calls("tree.fit_tree")
    score_s = L.seconds("boost.decision_function")
    fitted = L.count("boost.fit_gbc", "trees", under="tune.grid_search")
    return {
        "dataset.load_csv.s": L.seconds("dataset.load_csv"),
        "dataset.rows_loaded": L.count("dataset.load_csv", "rows"),
        "encode.fit_encoding.s": L.seconds("encode.fit_encoding"),
        "encode.apply_encoding.s": L.seconds("encode.apply_encoding"),
        "encode.shuffle_split.s": L.seconds("encode.shuffle_split"),
        "resample.random_smote.s": L.seconds("resample.random_smote"),
        "resample.rows_added": L.count("resample.random_smote", "rows_added"),
        "tree.fit_tree.s": fit_s,
        "tree.fit_tree.calls": fit_calls,
        "tree.fit_tree.s_per_call": fit_s / fit_calls if fit_calls else 0.0,
        "tree.nodes": L.count("tree.fit_tree", "nodes"),
        "tree.leaves": L.count("tree.fit_tree", "leaves"),
        "boost.fit_gbc.s": L.seconds("boost.fit_gbc"),
        "boost.fit_gbc.self_s": L.self_seconds("boost.fit_gbc"),
        "boost.decision_function.s": score_s,
        "boost.decision_function.rows_per_s":
            L.count("boost.decision_function", "rows") / score_s if score_s else 0.0,
        "tune.grid_search.s": L.seconds("tune.grid_search"),
        "tune.grid_search.self_s": L.self_seconds("tune.grid_search"),
        "tune.fits": L.count("boost.fit_gbc", "fits", under="tune.grid_search"),
        "tune.trees_fitted": fitted,
        "tune.trees_needed": workload.trees_needed,
        "tune.tree_reuse_ratio": workload.trees_needed / fitted if fitted else 0.0,
        "metrics.roc_auc.s": L.seconds("metrics.roc_auc"),
        "metrics.summarize.s": L.seconds("metrics.summarize"),
        "model_io.save_model.s": L.seconds("model_io.save_model"),
        "model_io.load_model.s": L.seconds("model_io.load_model"),
        "model_io.model_bytes": (L.count("model_io.save_model", "bytes")
                                 + L.count("model_io.load_model", "bytes")),
    }


def tail(sorted_times: list[float]):
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    n = len(sorted_times)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted_times[n - 11], "n": n}


def program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "delayboost").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_across_runs(path: Path, record: dict) -> list[str]:
    """Compare outputs and exact counts with the last run of this seed and program."""
    problems = []
    stored = json.loads(path.read_text()) if path.is_file() else {}
    if stored.get("program_sha256") == record["program_sha256"]:
        for key in ("outputs", "counts"):
            old, new = stored.get(key), record[key]
            if old is not None and new is not None and old != new:
                problems.append(f"{key} differ from an earlier run of this seed: {new} != {old}")
            if new is None:
                record[key] = old
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return problems


def all_spans(reps: list[dict], pass_spans: list[dict]) -> list[dict]:
    """Set-up spans of every repetition, then the passes', with ids made unique."""
    out, offset = [], 0
    for rep_spans in [r["spans"] for r in reps] + [pass_spans]:
        for s in rep_spans:
            parent = None if s["parent"] is None else s["parent"] + offset
            out.append({**s, "id": s["id"] + offset, "parent": parent})
        offset += len(rep_spans)
    return out


def report(results: dict, names: list[dict], values: dict) -> None:
    """Human-readable summary, printed before the JSON line."""
    env = results["env"]
    print(f"workload {results['workload']}  seed {results['seed']}  trace {results['trace']}")
    print(f"mirrors  {results['mirrors']}")
    print(f"env      nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    for d in names:
        if d["name"] in values:
            print(f"  {d['name']:<36} {values[d['name']]:>16.6g} {d['unit']}")
    times = [p["seconds"] for p in results["passes"]]
    if times:
        t = results["pass_s_tail"]
        tail_text = (f"p{t['percentile']:.1f} {t['value']:.4f} s" if t
                     else "no percentile has 10 samples beyond it")
        print(f"  pass_s over {len(times)} passes: min {min(times):.4f} s, "
              f"max {max(times):.4f} s; {tail_text}")
    attempted = len(times) + len(results["failures"])
    print(f"  failed_frac {len(results['failures'])}/{attempted} = {results['failed_frac']:g}")
    for key, value in (results["outputs"] or {}).items():
        print(f"  {key:<36} {value}")
    if results["absent_spans"]:
        print(f"  absent spans: {', '.join(results['absent_spans'])}")


if __name__ == "__main__":
    sys.exit(main())
