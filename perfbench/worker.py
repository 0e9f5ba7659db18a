"""One workload in one process: set up, run timed ops, check, report.

``run.py`` starts this file once per workload (and once more per extra
set-up measurement), so ``setup_s`` and ``peak_rss_mib`` belong to that
workload alone. The last line of standard output is one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 [--tiny] [--setup-only]

The load is a closed loop with one client: ops run back to back in this
process. ``--trace 0`` times the ops untraced. ``--trace 1`` runs half
the time untraced and half with every layer call wrapped in a span
(see ``tracing.py``), then measures the host's roofline probes. On
``rollout_fp32`` each half is shared with the MPM column, the E2
baseline at equal particle count (see ``workloads.MPMColumn``).
"""

import os
import sys

# BLAS is pinned to one thread before NumPy loads: one op, one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import host  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, MPMColumn  # noqa: E402

#: an op count below which medians mean little; runs go on until both
#: this many ops and the requested seconds are done
MIN_OPS = 3
#: ops re-run against a reference after the timed interval: the first
#: and one drawn from the seed
VERIFIED_OPS = 2
#: op id of the untimed warm-up op (its inputs never repeat a timed op's)
WARMUP_OP = 2**31
#: shape of the matrix product probed when no network forward was
#: traced: the rollout_fp32 edge MLP
DEFAULT_GEMM = (16384, 32, 32, "float32")


def run_ops(wl, seconds: float, first: int = 0, min_ops: int = MIN_OPS,
            recorder=None, after_op=None, span: str = "op") -> list[dict]:
    """Run ops back to back until ``seconds`` have passed and at least
    ``min_ops`` ran. A failing op is recorded and the loop goes on. With
    a ``recorder``, each op is wrapped in a span named ``span``."""
    ops = []
    stop = time.perf_counter() + seconds
    i = first
    while len(ops) < min_ops or time.perf_counter() < stop:
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = wl.op(i)
            else:
                recorder.op_id = i
                with recorder.span(span):
                    out = wl.op(i)
            error = None
        except Exception as exc:  # a failed op counts; the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if after_op is not None:
            after_op()
        if error is None:
            error = wl.check(i, out)
        ops.append({"id": i, "s": elapsed, "error": error, "out": out})
        i += 1
    return ops


def verify(wl, ops: list[dict], seed: int) -> None:
    """Re-run sampled ops outside the timed interval; a wrong output
    marks its op failed."""
    ok = [op for op in ops if op["error"] is None]
    if ok:
        rng = np.random.default_rng([seed, 3])
        picks = rng.permutation(len(ok) - 1)[:VERIFIED_OPS - 1] + 1
        for op in [ok[0]] + [ok[k] for k in sorted(picks)]:
            try:
                op["error"] = wl.verify(op["id"], op["out"])
            except Exception as exc:  # a failed check counts; run goes on
                op["error"] = f"verify {type(exc).__name__}: {exc}"
    for op in ops:
        op["out"] = None


def summarize(wl, ops: list[dict]) -> dict:
    ok = [op["s"] for op in ops if op["error"] is None]
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "frames_per_s": wl.frames_per_op * len(ok)
                        / sum(op["s"] for op in ops),
        "op_ms_mean": 1e3 * statistics.fmean(ok or [op["s"] for op in ops]),
        "op_ms_p50": 1e3 * statistics.median(ok or [op["s"] for op in ops]),
        # a p90 needs ten samples beyond it
        "op_ms_p90": 1e3 * statistics.quantiles(ok, n=10)[-1]
                     if len(ok) >= 100 else None,
        "errors": sorted({op["error"] for op in ops if op["error"]})[:5],
        "notes": wl.notes,
        "op_s": [op["s"] for op in ops],
    }


def _cache_counts(wl) -> tuple[int, int]:
    eng = wl.engine()
    if eng is None:
        return 0, 0
    stats = eng.cache_stats()
    return stats["queries"], stats["builds"]


class EngineTimings:
    """Sums ``InferenceEngine.timings()`` stage totals after each op, for
    the cross-check against the spans."""

    def __init__(self, wl):
        self.wl = wl
        self.ms = {"graph": 0.0, "features": 0.0, "network": 0.0,
                   "integrate": 0.0}

    def __call__(self):
        eng = self.wl.engine()
        if eng is None:
            return
        t = {k: 1e3 * v["total"] for k, v in eng.timings().items()}
        self.ms["graph"] += t["graph"]
        self.ms["features"] += t["features"]
        self.ms["network"] += t["encode"] + t["process"] + t["decode"]
        self.ms["integrate"] += t["integrate"]


def per_layer(wl, untraced: dict, traced_ops: list[dict],
              rec, cache_delta, engine_ms,
              mpm_frames: int) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, and details for the log.
    ``mpm_frames`` counts the frame equivalents of traced MPM ops."""
    layers = rec.layer_ms()

    def total(name):
        return layers.get(name, {}).get("total", 0.0)

    def self_ms(name):
        return layers.get(name, {}).get("self", 0.0)

    ops = len(traced_ops)
    frames = wl.frames_per_op * ops
    forwards = layers.get("network", {}).get("count", 0)
    edges = rec.counts.get("graph.results", 0)
    substeps = layers.get("mpm.step", {}).get("count", 0)
    queries, builds = cache_delta
    traced = summarize(wl, traced_ops)

    m = {
        "graph.ms_per_frame": total("graph") / frames,
        "graph.hit_rate": 1.0 - builds / queries if queries else 0.0,
        "graph.edges_per_frame": edges / frames,
        "features.ms_per_frame": self_ms("features") / frames,
        "network.ms_per_frame": total("network") / frames,
        "network.mlp.ms_per_frame": total("network.mlp") / frames,
        "network.aggregate.ms_per_frame":
            total("network.aggregate") / frames,
        "engine.self_ms_per_frame": self_ms("engine") / frames,
        "autodiff.backward_ms_per_op": total("autodiff.backward") / ops,
        "autodiff.tape_ops_per_op": rec.counts.get("tape_ops", 0) / ops,
        "inverse.forward_ms_per_op": total("inverse.forward") / ops,
        "mpm.substeps_per_frame":
            substeps / mpm_frames if mpm_frames else 0.0,
        "trace.overhead": traced["frames_per_s"] / untraced["frames_per_s"],
        "trace.unattributed_ms_per_op": self_ms("op") / ops,
    }
    for name in ("mpm.step", "mpm.shape", "mpm.stress", "mpm.boundary"):
        key = name.replace(".step", "") + ".ms_per_substep"
        m[key] = total(name) / substeps if substeps else 0.0
    m["mpm.transfer.ms_per_substep"] = \
        self_ms("mpm.step") / substeps if substeps else 0.0

    details = {"frames": frames, "ops": ops, "spans": len(rec.spans)}
    gemm = DEFAULT_GEMM
    m["network.gflop_per_frame"] = m["network.mb_per_frame"] = 0.0
    m["network.flop_per_byte"] = m["network.gflop_per_s"] = 0.0
    if forwards:
        sim = wl.simulator
        cfg = sim.feature_config
        edges_per_forward = edges / forwards
        cost = host.network_cost(sim.network_config,
                                 cfg.node_feature_size(),
                                 cfg.edge_feature_size(),
                                 wl.nodes_per_forward, edges_per_forward,
                                 wl.network_dtype)
        scale = forwards / frames
        m["network.gflop_per_frame"] = cost["gflop"] * scale
        m["network.mb_per_frame"] = cost["mb"] * scale
        m["network.flop_per_byte"] = 1e3 * cost["gflop"] / cost["mb"]
        m["network.gflop_per_s"] = \
            m["network.gflop_per_frame"] / (m["network.ms_per_frame"] / 1e3)
        lat = sim.network_config.latent_size
        gemm = (round(edges_per_forward), lat,
                sim.network_config.mlp_hidden_size,
                np.dtype(wl.network_dtype).name)

    m["trace.engine_timings_diff"] = 0.0
    if sum(engine_ms.values()):
        mine = {"graph": total("graph"), "features": self_ms("features"),
                "network": total("network")}
        theirs = sum(engine_ms[k] for k in mine)
        m["trace.engine_timings_diff"] = \
            abs(sum(mine.values()) - theirs) / theirs
        # the engine's own stages besides these are integrate and guard;
        # its span self time also holds the plan build and window shift
        details["engine_cross_check_ms"] = {
            k: {"spans": mine[k], "engine_timings": engine_ms[k]}
            for k in ("graph", "features", "network")}
        details["engine_cross_check_ms"]["engine"] = {
            "spans_self": self_ms("engine"),
            "engine_timings_integrate": engine_ms["integrate"]}

    m["host.gemm_gflop_s"] = host.gemm_gflop_s(gemm[0], gemm[1], gemm[2],
                                               np.dtype(gemm[3]))
    llc = host.llc_bytes()
    m["host.stream_gb_s"] = host.stream_gb_s(4 * llc)
    details["gemm_shape"] = list(gemm)
    details["llc_mib"] = llc / 2**20
    details["stream_array_mib"] = 4 * llc / 2**20
    return m, details


def traced_run(wl, args) -> dict:
    mpm = MPMColumn() if wl.name == "rollout_fp32" else None
    share = args.seconds / (4 if mpm else 2)
    untraced_ops = run_ops(wl, share, min_ops=2)
    untraced = summarize(wl, untraced_ops)
    mpm_ops = []
    if mpm:
        mpm.setup(args.seed, args.tiny)
        mpm.op(WARMUP_OP)
        mpm_ops = run_ops(mpm, share, min_ops=2)
        mpm_untraced = summarize(mpm, mpm_ops)
    rec = tracing.SpanRecorder()
    engine_ms = EngineTimings(wl)
    q0 = _cache_counts(wl)
    with tracing.instrument(rec):
        traced_ops = run_ops(wl, share, first=len(untraced_ops), min_ops=2,
                             recorder=rec, after_op=engine_ms)
        q1 = _cache_counts(wl)
        if mpm:
            mpm_traced = run_ops(mpm, share, first=len(mpm_ops), min_ops=2,
                                 recorder=rec, span="mpm.op")
            mpm_ops += mpm_traced
    metrics, details = per_layer(
        wl, untraced, traced_ops, rec, (q1[0] - q0[0], q1[1] - q0[1]),
        engine_ms.ms, len(mpm_traced) * mpm.frames_per_op if mpm else 0)

    metrics["autodiff.tape_peak_mib"] = 0.0
    tracemalloc.start()
    try:
        tape = wl.tape_forward(traced_ops[-1]["id"] + 1)
        if tape is not None:
            metrics["autodiff.tape_peak_mib"] = \
                tracemalloc.get_traced_memory()[1] / 2**20
        del tape
    finally:
        tracemalloc.stop()

    metrics["e2.speedup"] = 0.0
    if mpm:
        metrics["e2.speedup"] = \
            untraced["frames_per_s"] / mpm_untraced["frames_per_s"]
        details["e2_mpm_frames_per_s"] = mpm_untraced["frames_per_s"]

    ops = untraced_ops + traced_ops
    verify(wl, ops, args.seed)
    metrics["fp32_drift"] = wl.notes.get("fp32_drift", 0.0)
    out = summarize(wl, ops)
    # the MPM ops are ops of this run too: a wrong one counts as failed
    mpm_errors = [op["error"] for op in mpm_ops if op["error"]]
    out["attempted"] += len(mpm_ops)
    out["failed"] += len(mpm_errors)
    out["errors"] = sorted(set(out["errors"] + mpm_errors))[:5]
    fingerprint = host.fingerprint()
    trace_dir = ROOT / ".bench_build" / "perfbench"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"trace-{wl.name}-seed{args.seed}.json"
    rec.write(path, {"workload": wl.name, "seed": args.seed,
                     "host": fingerprint, "metrics": metrics,
                     "details": details})
    out.update(per_layer=metrics, details=details, host=fingerprint,
               trace_file=str(path.relative_to(ROOT)),
               untraced_frames_per_s=untraced["frames_per_s"])
    return out


def plain_run(wl, args) -> dict:
    ops = run_ops(wl, args.seconds)
    verify(wl, ops, args.seed)
    return summarize(wl, ops)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed, args.tiny)
    wl.op(WARMUP_OP)
    setup_end = time.monotonic()
    if args.setup_only:
        out = {}
    elif args.trace:
        out = traced_run(wl, args)
    else:
        out = plain_run(wl, args)
    out["setup_end_monotonic"] = setup_end
    out["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
