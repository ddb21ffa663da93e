"""fdnoma benchmark: one command per workload run, outputs checked.

Run from the repository root:

    python3 bench/run.py --workload analytic-sweep --seed 1 --seconds 30 --trace 0

Workloads: analytic-sweep, mc-sweep, cross-check (see bench/README.md).
The package is imported from ``src/`` of the tree this script sits in,
never from an installed copy.  Each run is one process and one
closed-loop caller.  It repeats checked passes over the workload's
inputs for ``--seconds`` and prints a report, then one JSON line:

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``wall_s``,
  ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics, from passes with quad-level
  spans alternating with plain passes, plus the workload's layer runs.

Per-run details (provenance, inputs, exact counts, every failed check,
all named metrics) go to ``bench/results/<workload>-seed<seed>-trace<t>.json``;
a traced run also writes ``<workload>-seed<seed>-spans.json``.
Exit code 0 with a result line; 2 when ``src/fdnoma`` is missing;
1 on any other harness error.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import QUAD_SPAN, Recorder, install_quad_probe, self_time_summary, spans_to_json  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "results"
SETUP_PROBES = 5
MIN_PASSES = 2

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics and units.  A metric reads 0 on a workload that does
# not exercise its layer (no calls, so nothing to time or count).
LAYER_UNITS = {
    "analytic.op_exact.warm_ms_p50": "ms",
    "analytic.op_exact.cold_ms_p50": "ms",
    "analytic.op_exact.quad_calls": "count",
    "analytic.quad.us_p50": "us",
    "analytic.op_exact.quad_share": "ratio",
    "analytic.tail_weight_integral.us_p50": "us",
    "analytic.op_exact.numerics_errors": "count",
    "analytic.op_lower_bound.us_p50": "us",
    "analytic.op_asymptotic.us_p50": "us",
    "specfun.ordered_sf.us_p50": "us",
    "config.derive_constants.us_p50": "us",
    "analytic.op_oracle_2d.quad_calls": "count",
    "channel.draw_batch.ns_per_trial": "ns",
    "channel.draw_batch.bytes_per_trial": "bytes",
    "sidnr.outage_mask.ns_per_trial_user": "ns",
    "montecarlo.estimate_all_users.mtrials_per_s_p1": "Mtrials/s",
    "montecarlo.estimate_all_users.mtrials_per_s_p2": "Mtrials/s",
    "montecarlo.parallel_efficiency": "ratio",
    "baselines.hd_outage_all.mtrials_per_s": "Mtrials/s",
    "baselines.oma_outage_all.mtrials_per_s": "Mtrials/s",
    "cli.run_sweep.s": "s",
    "cli.overhead_share": "ratio",
    "trace.overhead_share": "ratio",
}


def load_fdnoma():
    """Import fdnoma from this tree's src/; None when it is not there."""
    if not (SRC / "fdnoma" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import fdnoma

    if Path(fdnoma.__file__).resolve().parent != (SRC / "fdnoma").resolve():
        return None
    return fdnoma


def git_commit():
    """HEAD of the tree's git checkout, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(fdnoma):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "fdnoma").glob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),  # package and benchmark code
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fdnoma": fdnoma.__version__,
        "machine": platform.machine(),
    }


def measure_setup(args) -> list[float]:
    """Time fresh processes from spawn, through importing fdnoma and
    building the workload's inputs, to the point where the first timed
    call would start."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return times


def _us(xs):
    return statistics.median(xs) * 1e6 if xs else 0.0


def span_layer_metrics(spans, counts) -> dict:
    """Per-layer metrics read from the spans of traced passes."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    exact = by_name.get("analytic.op_exact", [])
    exact_ids = {s.index for s in exact}
    quad_in_exact = [s.seconds for s in by_name.get(QUAD_SPAN, []) if s.parent in exact_ids]
    exact_s = sum(s.seconds for s in exact)
    return {
        "analytic.quad.us_p50": _us(quad_in_exact),
        "analytic.op_exact.quad_share": sum(quad_in_exact) / exact_s if exact_s else 0.0,
        "analytic.op_lower_bound.us_p50": _us([s.seconds for s in by_name.get("analytic.op_lower_bound", [])]),
        "analytic.op_asymptotic.us_p50": _us([s.seconds for s in by_name.get("analytic.op_asymptotic", [])]),
        "analytic.op_exact.quad_calls": counts["quad_calls"].get("analytic.op_exact", 0),
        "analytic.op_oracle_2d.quad_calls": counts["quad_calls"].get("analytic.op_oracle_2d", 0),
        "analytic.op_exact.numerics_errors": counts["numerics_errors"].get("analytic.op_exact", 0),
    }


def tail_percentile(xs, min_beyond=10):
    """Highest of a few standard percentiles with at least ``min_beyond``
    samples above it: (value, percentile, sample count)."""
    n = len(xs)
    for p in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= min_beyond:
            return float(np.percentile(xs, p)), p, n
    return None, None, n


def per_call(results, key):
    """Latency of each call of one pass, as the median over the given
    passes (the passes repeat the same calls): list of (seconds, tag)."""
    calls = list(zip(*(r.numbers.get(key, []) for r in results)))
    return [(statistics.median(s.seconds for s, _ in reps), reps[0][1]) for reps in calls]


def named_metrics(results, walls, setup, rss_mb) -> dict:
    """Every end-to-end metric that applies to the workload: name -> (value, unit)."""
    first = results[0]
    out = {
        "wall_s": (statistics.median(walls), "s"),
        "fail_ratio": (first.failed / first.attempted, "ratio"),
        "failed": (first.failed, "count"),
        "ops_attempted": (first.attempted, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if setup is not None:
        out["setup_s"] = (statistics.median(setup), "s")
    lat = [t for t, _ in per_call(results, "exact_calls")]
    if lat:
        out["exact_ms_p50"] = (statistics.median(lat) * 1e3, "ms")
        value, pct, n = tail_percentile(lat)
        if value is not None:
            out["exact_ms_tail"] = (value * 1e3, "ms")
            out["exact_ms_tail.percentile"] = (pct, "%")
            out["exact_ms_tail.samples"] = (n, "count")
    if "oracle_calls" in first.numbers:
        out["oracle_s_p50"] = (statistics.median(t for t, _ in per_call(results, "oracle_calls")), "s")
    if "rel_err_max" in first.numbers:
        out["exact_oracle_rel_err_max"] = (first.numbers["rel_err_max"], "ratio")
    if "mc_seconds" in first.numbers:
        trials = first.counts["mc_trials"] * len(results)
        out["mc_mtrials_per_s"] = (trials / sum(r.numbers["mc_seconds"] for r in results) / 1e6, "Mtrials/s")
    return out


def earlier_counts(wl_name, seed, prov):
    """Exact counts of earlier runs of this seed with the same code and
    library versions."""
    same = ("source_sha256", "python", "numpy", "scipy")
    found = []
    for path in OUT.glob(f"{wl_name}-seed{seed}-trace*.json"):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if all(data.get("provenance", {}).get(k) == prov[k] for k in same):
            found.append((path.name, data.get("counts")))
    return found


def run_passes(wl, rec, budget, trace):
    """Repeat passes until the next one would overrun ``budget`` seconds
    (at least ``MIN_PASSES``).  A traced run alternates plain and
    traced passes.  Returns (results, wall seconds, traced flags, spans
    of the traced passes)."""
    results, walls, traced, traced_spans = [], [], [], []
    t_begin = time.perf_counter()
    while len(results) < MIN_PASSES or (
        time.perf_counter() - t_begin + statistics.median(walls) <= budget
    ):
        rec.trace = trace and len(results) % 2 == 1
        first_span = len(rec.spans)
        t0 = time.perf_counter()
        with rec.span("bench.pass"):
            results.append(wl.run_pass(rec))
        walls.append(time.perf_counter() - t0)
        traced.append(rec.trace)
        if rec.trace:
            traced_spans += rec.spans[first_span:]
    return results, walls, traced, traced_spans


def repeat_failures(results, earlier) -> list[str]:
    """Counts and outputs must repeat between passes, and counts between
    runs of the same seed."""
    first = results[0]
    out = []
    for i, r in enumerate(results[1:], start=1):
        if r.counts != first.counts:
            out.append(f"pass {i} counts {r.counts} differ from pass 0 {first.counts}")
        if r.outputs != first.outputs:
            out.append(f"pass {i} outputs differ from pass 0")
    for name, counts in earlier:
        if counts != first.counts:
            out.append(f"counts {first.counts} differ from the earlier run {name}: {counts}")
    return out


def layer_metrics(results, walls, traced, traced_spans, layer) -> dict:
    """Every per-layer metric: 0 where the workload has no such calls."""
    on = [r for r, t in zip(results, traced) if t]
    metrics = {name: 0.0 for name in LAYER_UNITS}
    metrics.update(span_layer_metrics(traced_spans, results[0].counts))
    lat = per_call(on, "exact_calls")
    warm = [t for t, cold in lat if cold is False]
    cold = [t for t, cold in lat if cold is True]
    metrics["analytic.op_exact.warm_ms_p50"] = statistics.median(warm) * 1e3 if warm else 0.0
    metrics["analytic.op_exact.cold_ms_p50"] = statistics.median(cold) * 1e3 if cold else 0.0
    metrics.update(layer)
    traced_wall = statistics.median(w for w, t in zip(walls, traced) if t)
    plain_wall = statistics.median(w for w, t in zip(walls, traced) if not t)
    metrics["trace.overhead_share"] = traced_wall / plain_wall - 1.0
    return metrics


def write_spans(path, wl, args, traced_spans, all_spans, layer_start):
    by_name = self_time_summary(traced_spans)
    by_layer: dict[str, float] = {}
    for name, row in by_name.items():
        layer = name.rsplit(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    path.write_text(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "points": {i: dict(desc) for desc, i in wl.points.items()},
        "traced_passes": {"self_time_by_span": by_name, "self_time_by_layer": by_layer},
        "layer_runs": self_time_summary(all_spans[layer_start:]),
        **spans_to_json(all_spans),
    }, default=str))


def run(args, probe, fdnoma) -> int:
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        own_setup = time.perf_counter() - T_START
        trace = bool(args.trace)
        setup = None if trace else measure_setup(args)

        rec = Recorder(probe, trace=False)
        probe.recorder = rec
        budget = args.seconds * (1.0 - (wl.layer_run_share if trace else 0.0))
        results, walls, traced, traced_spans = run_passes(wl, rec, budget, trace)
        rec.trace = trace
        layer_start = len(rec.spans)
        layer = wl.layer_run(rec) if trace else {}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        prov = provenance(fdnoma)
        first = results[0]
        hard = first.hard + repeat_failures(results, earlier_counts(wl.name, args.seed, prov))
        named = named_metrics(
            [r for r, t in zip(results, traced) if not t],
            [w for w, t in zip(walls, traced) if not t],
            setup, rss_mb,
        )
        if trace:
            metrics, units = layer_metrics(results, walls, traced, traced_spans, layer), LAYER_UNITS
        else:
            metrics, units = {k: named[k][0] for k in E2E_UNITS}, E2E_UNITS

        stem = f"{wl.name}-seed{args.seed}"
        (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps({
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": prov,
            "inputs": wl.describe(),
            "counts": first.counts,
            "passes": len(results),
            "pass_wall_s": walls,
            "pass_traced": traced,
            "own_setup_s": own_setup,
            "setup_probe_s": setup,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "per_layer": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()} if trace else None,
            "hard_failures": hard,
            "soft_failures": first.soft,
        }, indent=1, default=str))
        if trace:
            write_spans(OUT / f"{stem}-spans.json", wl, args, traced_spans, rec.spans, layer_start)

        print(f"# fdnoma benchmark {wl.name} seed {args.seed}: {len(results)} passes, "
              f"{first.attempted} ops per pass, {first.failed} failed")
        for k, (v, u) in named.items():
            print(f"# {k} = {v:.6g} {u}")
        if trace:
            for k, v in metrics.items():
                print(f"# {k} = {v:.6g} {units[k]}")
        for msg in hard[:20]:
            print(f"# HARD FAILURE: {msg}")
        for msg in first.soft[:20]:
            print(f"# failed check: {msg}")
        print(json.dumps({
            "correct": not hard,
            "attempted": first.attempted,
            "failed": first.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("analytic-sweep", "mc-sweep", "cross-check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    probe = install_quad_probe()
    fdnoma = load_fdnoma()
    if fdnoma is None:
        print(f"bench: no fdnoma package under {SRC}", file=sys.stderr)
        return 2
    return run(args, probe, fdnoma)


if __name__ == "__main__":
    sys.exit(main())
