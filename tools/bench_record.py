"""Record a parent and a change measured in one session: BENCH_<pr>.json.

    python tools/bench_record.py --parent REV [--pairs 10] [--seconds 30] [--seed 0] \
        [--workloads paper,novel-members,concept-space] --out BENCH_<pr>.json
    python tools/bench_record.py --compare A.json B.json

The change is this checkout's working tree: HEAD plus any uncommitted
edits to src/ and perfbench/, whose diff the file names by sha256. The
parent is REV's committed files, written with `git archive` into a
temporary directory that is removed afterwards, on failure too; the
repository's own worktrees and refs are left as they were. Each side
runs its own `perfbench/run.py` unchanged, and the recorder reads each
run's last output line, the result JSON. Runs go in pairs, one per side,
alternating which side runs first.

For each workload and end-to-end metric of BENCHMARK.json the file holds
both sides' medians and IQRs, the ratio change / parent, the pairs the
change won in the metric's `better` direction (ties count for neither) and
the metric's bound. One `--trace 1` round per side and workload gives the
per-layer metrics. The environment (both shas, Python, numpy and its BLAS,
nproc, load average at start and end) leads the file.

Under `probes` the file holds scale figures perfbench does not measure,
read from one probe process per side for each pair, alternating which
side goes first, after the pairs. A probe process builds perfbench's
novel-members inputs at the run's seed with 3000 generics in place of
1000, learns the 1000-noun curriculum untimed, then times the 3000
novel-member generics; it does this three times, from fresh inputs each
time. It then saves and loads the last network five times and clusters
its matrix (4045 rows at seed 0) three times. Each span's value is the
process's median, so one process gives one value per probe:
  - `novel_members_3000_generics_s`, the generics' wall time, with the
    sha256 of the final network text;
  - `save_load_3000_generics_ms`, one `network_to_text` and one
    `network_from_text` of that network (46k edges at seed 0), timed
    together, with the same sha256;
  - `clustering_s`, the wall time of `agglomerative_order` alone, with
    the sha256 of the cluster text;
  - `clustering_peak_rss_mb`, the process's peak RSS after clustering;
  - `clustering_traced_peak_mb`, the `tracemalloc` peak of one more,
    untimed `agglomerative_order` call (numpy's buffers included), which
    unlike the RSS does not move with the allocator's mmap threshold.
Each holds each side's minimum, median and values, the ratio of the
medians, and each side's digests. A probe process whose peak RSS exceeds
PEAK_RSS_LIMIT_MB exits 1 after printing its figures.

Exits 1 if any run, traced or not, does not read `correct`, a probe
process fails, or the two sides' network or cluster texts differ.

`--compare A B` prints, per workload and metric, each file's ratio and the
ratio of B's change median to A's, and the same for each probe.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper", "novel-members", "concept-space")
SIDES = ("parent", "change")
# probe name: (unit, the probe process's value key, its digest key)
PROBES = {
    "novel_members_3000_generics_s": ("s", "seconds", "sha256"),
    "save_load_3000_generics_ms": ("ms", "save_load_ms", "sha256"),
    "clustering_s": ("s", "cluster_seconds", "cluster_sha256"),
    "clustering_peak_rss_mb": ("MB", "peak_rss_mb", "cluster_sha256"),
    "clustering_traced_peak_mb": ("MB", "traced_peak_mb", "cluster_sha256"),
}
# The scale scenario's memory gate: a probe process, on either side, fails above it.
PEAK_RSS_LIMIT_MB = 300
# One probe process: argv[1] is the seed, argv[2] the peak RSS limit in MB.
# Building the inputs and learning the curriculum are not timed; fresh inputs
# give each generics run a cold parse memo.
_PROBE_CODE = """
import hashlib, json, resource, statistics, sys, time, tracemalloc
import synth
from wugnet import graph, learner, matrix
spans = {"seconds": [], "save_load_ms": [], "cluster_seconds": []}
for _ in range(3):
    lexicon, curriculum, generics = synth.novel_members_inputs(int(sys.argv[1]), 1000, 3000)
    net = graph.ConceptNetwork()
    learner.learn_curriculum(net, curriculum, lexicon)
    start = time.perf_counter()
    for instance in generics:
        learner.observe(net, instance, lexicon)
    spans["seconds"].append(time.perf_counter() - start)
for _ in range(5):
    start = time.perf_counter()
    text = graph.network_to_text(net)
    loaded = graph.network_from_text(text)  # kept through clustering, for a comparable peak
    spans["save_load_ms"].append((time.perf_counter() - start) * 1000)
m = matrix.build_matrix(net)
for _ in range(3):
    start = time.perf_counter()
    leaves, tree = matrix.agglomerative_order(m)
    spans["cluster_seconds"].append(time.perf_counter() - start)
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
tracemalloc.start()
matrix.agglomerative_order(m)
traced_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
clusters = matrix.clusters_to_text(leaves, tree)
print(json.dumps({
    **{key: statistics.median(values) for key, values in spans.items()},
    "sha256": hashlib.sha256(text.encode()).hexdigest(),
    "cluster_sha256": hashlib.sha256(clusters.encode()).hexdigest(),
    "peak_rss_mb": peak_rss_mb, "traced_peak_mb": traced_peak_mb}))
if peak_rss_mb > float(sys.argv[2]):
    sys.exit(f"peak RSS {peak_rss_mb:.0f} MB is above the {sys.argv[2]} MB limit")
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run of a checkout; its result JSON, or a failed result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "error": f"exit {proc.returncode}", "metrics": {}}
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def _probe(checkout: Path, seed: int) -> dict | None:
    """One probe process of a checkout; its result JSON, or None if it failed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        str(checkout / d) for d in ("src", "perfbench"))}
    proc = subprocess.run([sys.executable, "-c", _PROBE_CODE, str(seed), str(PEAK_RSS_LIMIT_MB)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return result


def summarize_probe(runs: dict[str, list[dict | None]], name: str) -> dict:
    """One probe's minimum, median, values and digests per side, and the ratio of the medians."""
    unit, key, digest = PROBES[name]
    out: dict = {"unit": unit, "better": "lower", "runs": len(runs["parent"])}
    for side in SIDES:
        values = [run[key] for run in runs[side] if run]
        out[side] = {"min": min(values, default=None),
                     "median": statistics.median(values) if values else None,
                     "values": values,
                     "sha256": sorted({run[digest] for run in runs[side] if run})}
    parent, change = out["parent"]["median"], out["change"]["median"]
    out["ratio"] = change / parent if parent and change is not None else None
    return out


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: medians, IQRs, ratio, wins and bound over the pairs."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        parent_values, change_values = (list(v) for v in zip(*both))
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in both)
        parent, change = statistics.median(parent_values), statistics.median(change_values)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "ratio": change / parent if parent else None,
            "wins": f"{wins}/{len(both)}",
            "parent": {"median": parent, "iqr": _iqr(parent_values), "values": parent_values},
            "change": {"median": change, "iqr": _iqr(change_values), "values": change_values},
        }
    return out


def _environment() -> dict:
    import numpy as np

    try:
        blas = {k: v for k, v in np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                if k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    cpu = platform.processor()
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpu": cpu}


def record(args) -> int:
    load_start = os.getloadavg()
    diff = _git("diff", "HEAD", "--", "src", "perfbench")
    parent_sha = _git("rev-parse", f"{args.parent}^{{commit}}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    tmp = Path(tempfile.mkdtemp(prefix="bench-record-"))
    try:
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "parent", filter="data")
        checkouts = {"parent": tmp / "parent", "change": ROOT}
        pairs: dict[str, list[dict]] = {w: [] for w in workloads}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {}
                for side in order:
                    pair[side] = _run(checkouts[side], workload, args.seed, args.seconds, 0)
                pair["first"] = order[0]
                pairs[workload].append(pair)
                print(f"pair {i + 1}/{args.pairs} {workload}: " + ", ".join(
                    f"{side} {'correct' if pair[side]['correct'] else 'NOT CORRECT'}"
                    for side in order), file=sys.stderr)
        probes: dict[str, list[dict | None]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                probes[side].append(_probe(checkouts[side], args.seed))
            print(f"probe {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {'ok' if probes[side][-1] else 'FAILED'}" for side in SIDES),
                file=sys.stderr)
        traces = {w: {side: _run(checkouts[side], w, args.seed, 1, 1) for side in SIDES}
                  for w in workloads}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = [p[side] for w in workloads for p in pairs[w] for side in SIDES]
    runs += [traces[w][side] for w in workloads for side in SIDES]
    # each digest the probes record: the network text's and the cluster text's
    differ = [key for key in sorted({digest for _, _, digest in PROBES.values()})
              if len({frozenset(run[key] for run in probes[side] if run) for side in SIDES}) > 1]
    for key in differ:
        print(f"the two sides' probe texts differ in {key}", file=sys.stderr)
    correct = (all(run["correct"] is True for run in runs)
               and all(run is not None for side in SIDES for run in probes[side])
               and not differ)
    report = {
        "parent": parent_sha,
        "change": _git("rev-parse", "HEAD"),
        # the change side is the working tree: name its uncommitted code edits, if any
        "change_uncommitted_diff_sha256": diff and hashlib.sha256(diff.encode()).hexdigest(),
        "environment": {**_environment(), "load_average_start": load_start,
                        "load_average_end": os.getloadavg()},
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "workloads": workloads},
        "correct": correct,
        "end_to_end": {w: summarize(pairs[w], benchmark["end_to_end"]) for w in workloads},
        "pairs": pairs,
        "probes": {name: summarize_probe(probes, name) for name in PROBES},
        "per_layer": traces,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: {'all runs correct' if correct else 'SOME RUNS NOT CORRECT'}",
          file=sys.stderr)
    return 0 if correct else 1


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (a_path, b_path))
    print(f"A {a_path}: {a['parent'][:10]} -> {a['change'][:10]}")
    print(f"B {b_path}: {b['parent'][:10]} -> {b['change'][:10]}")
    print(f"{'workload':14s} {'metric':22s} {'A ratio':>9s} {'A wins':>7s} "
          f"{'B ratio':>9s} {'B wins':>7s} {'B/A change':>11s}")
    for workload, metrics in b["end_to_end"].items():
        for name, m in metrics.items():
            old = a["end_to_end"].get(workload, {}).get(name)
            cross = (m["change"]["median"] / old["change"]["median"]
                     if old and old["change"]["median"] else None)
            cells = [_fmt(old and old["ratio"]), old["wins"] if old else "-",
                     _fmt(m["ratio"]), m["wins"], _fmt(cross)]
            print(f"{workload:14s} {name:22s} {cells[0]:>9s} {cells[1]:>7s} "
                  f"{cells[2]:>9s} {cells[3]:>7s} {cells[4]:>11s}")
    for name, probe in b.get("probes", {}).items():
        old = a.get("probes", {}).get(name)
        old_median, median = old and old["change"]["median"], probe["change"]["median"]
        cross = median / old_median if old_median and median is not None else None
        print(f"probe {name}: A ratio {_fmt(old and old['ratio'])}, "
              f"B ratio {_fmt(probe['ratio'])}, B/A change {_fmt(cross)}")
        unit = probe["unit"]
        for side in SIDES:
            print(f"  B {side:6s} min {_fmt(probe[side]['min'])} {unit}, "
                  f"median {_fmt(probe[side]['median'])} {unit} "
                  f"over {len(probe[side]['values'])} runs")
    return 0


def _fmt(ratio) -> str:
    return "-" if ratio is None else f"{ratio:.4f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--parent", metavar="REV")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.parent and args.out) or args.pairs < 1:
        ap.error("--parent and --out are required, and --pairs must be at least 1")
    if unknown := set(args.workloads.split(",")) - set(WORKLOADS):
        ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
