"""Runs one workload in this process and prints its result.

Started by run.py in a fresh process with single-threaded BLAS and a fixed
hash seed. Prints human-readable lines first (context, every metric with
its unit and sample count, the failure tally) and the result JSON object
as the last line. Exits non-zero without a result if wugnet cannot be
imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# Paper control share on the scaled workloads (their own section has 0.6,
# the reference 0.1).
CONTROL_SHARE = 0.3
# The speed of the shared machine the benchmark was defined on flips between
# a slow and a fast mode (reference_loop 0.67 vs 0.43 ms) every few
# seconds, so raw times of one run say more about the machine than about
# the code. Every time is therefore reported at the slow-mode reference
# speed: each sample is scaled by REFERENCE_S / (median reference_loop time
# of the SPEED_NEIGHBOURS probes just before and just after the step that
# took it). Steps are kept short so that few of them straddle a switch.
REFERENCE_S = 0.00065
SPEED_NEIGHBOURS = 3

WORKLOADS = {
    "paper": (),
    "novel-members": (workloads.NovelMembersSection,),
    "concept-space": (workloads.ConceptSpaceSection,),
}


class Run:
    """Operation tally and output digests for one workload run."""

    def __init__(self, recorded: dict[str, str] | None):
        self.recorded = recorded
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.checked = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed: {what}", file=sys.stderr)

    def digest_ok(self, name: str, data: str | bytes) -> bool:
        """Compare with the recorded digest, or else with this run's first one."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        first = self.seen.setdefault(name, digest)
        if self.recorded is None:
            return first == digest
        self.checked += 1
        return self.recorded.get(name) == digest


def interleave(run: Run, sections, seconds: float | None = None,
               rounds: int | None = None) -> None:
    """Step the section furthest behind its time share until all are done.

    A section starts no new round once it has done `rounds` of them, or
    once another round would end past `seconds` at its pace so far. The
    reference keeps stepping while any other section is still running.
    """
    start = perf_counter()
    n = len(sections)
    current = [None] * n
    done = [0] * n
    spent = [0.0] * n
    probe = [isinstance(s, workloads.Reference) for s in sections]
    while True:
        now = perf_counter()
        live = []
        for i, section in enumerate(sections):
            if current[i] is None and not probe[i]:
                if rounds is not None:
                    if done[i] >= rounds:
                        continue
                elif done[i] and now + (now - start) / done[i] > start + seconds:
                    continue
            live.append(i)
        if all(probe[i] for i in live):
            return
        i = min(live, key=lambda k: spent[k] / sections[k].share)
        if current[i] is None:
            current[i] = sections[i].round()
        if not probe[i]:
            # each step starts from a collected heap, so the collections
            # inside it depend on its own allocations, not on the garbage
            # the interleaved sections happened to leave
            gc.collect()
        t0 = perf_counter()
        try:
            next(current[i])
        except StopIteration:
            current[i] = None
            done[i] += 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            run.op(False, f"{type(sections[i]).__name__} round raised")
            current[i] = None
            done[i] += 1
        spent[i] += perf_counter() - t0


class Speed:
    """Scale factor to the reference speed, from the probes around a sample."""

    def __init__(self, reference: list[tuple[float, float, int]]):
        self.ends = np.array([t1 for _, t1, _ in reference])
        self.dur = np.array([t1 - t0 for t0, t1, _ in reference])

    def __call__(self, t0: float, t1: float) -> float:
        k = SPEED_NEIGHBOURS
        before = int(np.searchsorted(self.ends, t0))
        after = int(np.searchsorted(self.ends, t1))
        near = np.concatenate((self.dur[max(0, before - k):before], self.dur[after:after + k]))
        return REFERENCE_S / float(np.median(near))


def end_to_end(sections, setup, run: Run, peak_kb: int, scale):
    """Every end-to-end metric as (value, unit, samples); times go through `scale`."""

    def seconds(key):
        # the workload's own section wins over the paper control
        for section in reversed(sections):
            if section.samples.get(key):
                return [((t1 - t0) * scale(t0, t1), n) for t0, t1, n in section.samples[key]]
        raise RuntimeError(f"no samples for {key}")

    def ms(key):
        return [1e3 * dt for dt, _ in seconds(key)]

    def tail(values, q):
        return float(np.percentile(values, q))

    passes = ms("paper_pass")
    learned = seconds("learn")
    novel = ms("novel")
    save_load = ms("save_load")
    similar = ms("similar")
    export = [dt for dt, _ in seconds("cluster_export")]
    setup_s = [(t1 - t0) * scale(t0, t1) for t0, t1, _ in setup]
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "paper_pass_ms_p50": (statistics.median(passes), "ms", len(passes)),
        "paper_pass_ms_p90": (tail(passes, 90), "ms", len(passes)),
        "learn_instances_per_s": (sum(n for _, n in learned) / sum(dt for dt, _ in learned),
                                  "1/s", len(learned)),
        "novel_member_ms_p50": (statistics.median(novel), "ms", len(novel)),
        "novel_member_ms_p99": (tail(novel, 99), "ms", len(novel)),
        "novel_members_per_s": (1e3 * len(novel) / sum(novel), "1/s", len(novel)),
        "save_load_ms": (statistics.median(save_load), "ms", len(save_load)),
        "similar_ms_p50": (statistics.median(similar), "ms", len(similar)),
        "similar_ms_p90": (tail(similar, 90), "ms", len(similar)),
        "cluster_export_s": (statistics.median(export), "s", len(export)),
        "peak_rss_mb": (peak_kb / 1024, "MB", 1),
        "ops_ok_ratio": ((run.attempted - run.failed) / max(run.attempted, 1), "ratio", run.attempted),
    }


def build(workload: str, seed: int, run: Run, tmp: Path):
    extra = WORKLOADS[workload]
    control = workloads.PaperSection(run, seed, tmp, share=CONTROL_SHARE if extra else 0.9)
    return [control] + [cls(run, seed) for cls in extra]


def setup_all(sections, repeats: int, reference=None) -> list[tuple[float, float, int]]:
    """Set every section up `repeats` times; probe the speed around each set-up."""

    def probe_burst():
        if reference is not None:
            end = perf_counter() + 0.2
            while perf_counter() < end:
                for _ in reference.round():
                    pass

    times = []
    for _ in range(repeats):
        probe_burst()
        t0 = perf_counter()
        for section in sections:
            section.setup()
        times.append((t0, perf_counter(), 1))
    probe_burst()
    return times


def measure(args, run: Run, sections) -> dict:
    reference = workloads.Reference(run, args.seed)
    setup = setup_all(sections, SETUP_REPEATS, reference)
    for section in sections:
        section.warm()
        section.samples.clear()
    interleave(run, [reference] + sections, seconds=args.seconds)
    speed = Speed(reference.samples["reference"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = end_to_end(sections, setup, run, peak_kb, lambda t0, t1: 1.0)
    metrics = end_to_end(sections, setup, run, peak_kb, speed)
    ref_ms = [1e3 * (t1 - t0) for t0, t1, _ in reference.samples["reference"]]
    print(f"reference loop: median {statistics.median(ref_ms):.4f} ms over {len(ref_ms)} runs; "
          f"times below are scaled to {1e3 * REFERENCE_S:g} ms per loop (raw beside them)")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:24s} {value:14.6f} {unit:6s} raw {raw[name][0]:14.6f}  n={n}")
    print(f"ops_failed_ratio {run.failed / max(run.attempted, 1):g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def traced(args, run: Run, sections) -> dict:
    """Fixed work untraced, then the same work traced; per-layer figures.

    The work is one set-up of every section and `trace_rounds` rounds of
    each, so the counts repeat exactly for a seed.
    """
    setup_all(sections, 1)
    for section in sections:
        section.warm()

    def once():
        t0 = perf_counter()
        setup_all(sections, 1)
        for section in sections:
            interleave(run, [section], rounds=section.trace_rounds)
        return perf_counter() - t0

    untraced_wall = once()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall = once()
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}.npz")

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    # every utterance goes through learner.observe, which parses it once:
    # fewer parse spans means a by-name import escaped the wrapping
    run.op(metrics["lang.parse.calls"][0] == metrics["learner.observe.calls"][0],
           "traced lang.parse calls equal learner.observe calls")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def record(args, run: Run, sections) -> None:
    """Write the digests of one round of every section for this seed."""
    setup_all(sections, 1)
    for section in sections:
        interleave(run, [section], rounds=1)
    if run.failed:
        raise SystemExit("not recording: the round had failed operations")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(run.seen.items()))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(run.seen)} digests for {args.workload} seed {args.seed}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = None if args.record_digests else table.get(args.workload, {}).get(str(args.seed))
    run = Run(recorded)
    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} python={platform.python_version()} "
          f"numpy={np.__version__}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        sections = build(args.workload, args.seed, run, tmp)
        if args.record_digests:
            record(args, run, sections)
            return 0
        metrics = (traced if args.trace else measure)(args, run, sections)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if recorded is None:
        print(f"digests: skipped, none recorded for seed {args.seed}; "
              "checked that repeated outputs match within the run")
    else:
        print(f"digests: checked {run.checked} outputs against the seed-{args.seed} record")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
