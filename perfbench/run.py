"""perfbench — the repository's benchmark of the paper's two jobs.

The paper's two jobs are fast forward rollouts and gradients through
k=30 rollouts for the inverse problem. Two workloads measure them (see
``workloads.py`` for why each exists):

    rollout_fp32  inverse

Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--tiny]

Every workload runs in its own process (``worker.py``) with BLAS pinned
to one thread; the load is a closed loop with one client. Every op's
output is checked and sampled ops are re-run against a reference
outside the timed interval; a wrong or failed op counts against
``ok_ratio`` instead of stopping the run.

``--trace 0`` prints the end-to-end metrics:

    setup_s        median of three process starts up to the first
                   timed op (one before the timed run, its own, one
                   after it): imports, inputs, model/solver, C kernels,
                   warm-up
    frames_per_s   frames completed per second of op time
    op_ms.mean     mean op latency. The host drifts between a fast and
                   a 1.3-2x slower state for seconds to minutes, so one
                   run's op times are bimodal and their median jumps
                   between the two modes from run to run; the mean
                   moves with the share of time spent in each, which is
                   steadier.
                   The median (op_ms.p50) and, where a run holds at
                   least 100 ops, op_ms.p90 are printed with the op
                   count but not gated.
    peak_rss_mib   ru_maxrss of the workload process
    ok_ratio       1 - fail_ratio: ops that completed and passed their
                   checks, over ops attempted

``--trace 1`` prints the per-layer metrics of ``PER_LAYER`` from a run
whose second half wraps every layer call in a span (``tracing.py``).
A layer that a workload does not enter reports 0. The traced
``rollout_fp32`` run also times the MPM column, the numerical baseline
of the paper's speedup claim, for the ``mpm.*`` metrics and the E2
speedup ``e2.speedup`` (GNS over MPM frames/s at equal particle count).

``--workload all`` (the default) runs every workload in turn and prints
each metric by name and unit. The last line
of standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Results and span files go to
``.bench_build/perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("rollout_fp32", "inverse")

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "op_ms.mean": "ms",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "graph.ms_per_frame": "ms",
    "graph.hit_rate": "ratio",
    "graph.edges_per_frame": "count",
    "features.ms_per_frame": "ms",
    "network.ms_per_frame": "ms",
    "network.mlp.ms_per_frame": "ms",
    "network.aggregate.ms_per_frame": "ms",
    "network.gflop_per_frame": "GFLOP",
    "network.mb_per_frame": "MB",
    "network.flop_per_byte": "flop/B",
    "network.gflop_per_s": "GFLOP/s",
    "engine.self_ms_per_frame": "ms",
    "autodiff.backward_ms_per_op": "ms",
    "autodiff.tape_ops_per_op": "count",
    "autodiff.tape_peak_mib": "MiB",
    "inverse.forward_ms_per_op": "ms",
    "mpm.ms_per_substep": "ms",
    "mpm.shape.ms_per_substep": "ms",
    "mpm.stress.ms_per_substep": "ms",
    "mpm.boundary.ms_per_substep": "ms",
    "mpm.transfer.ms_per_substep": "ms",
    "mpm.substeps_per_frame": "count",
    "host.gemm_gflop_s": "GFLOP/s",
    "host.stream_gb_s": "GB/s",
    "trace.overhead": "ratio",
    "trace.unattributed_ms_per_op": "ms",
    "trace.engine_timings_diff": "ratio",
    "e2.speedup": "ratio",
    "fp32_drift": "m",
}

#: process starts per run whose median is setup_s (the timed run is one)
SETUP_STARTS = 3
#: wall-clock budget of one single-workload run
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    build = ROOT / ".bench_build"
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               REPRO_CKERNEL_CACHE=str(build / "ckernels"),
               TMPDIR=str(build / "tmp"))
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def _spawn(name: str, args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{name}: worker passed the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{name}: worker printed no result")
    res = json.loads(lines[-1])
    res["setup_s"] = res["setup_end_monotonic"] - start
    return res


def run_workload(name: str, args, deadline: float) -> dict:
    """Run one workload in its own process and return its result with
    its metrics (end-to-end or per-layer, by ``args.trace``)."""
    extra = 0 if args.trace else SETUP_STARTS - 1
    # the extra starts go before and after the timed run, so that their
    # median samples the host over the run's whole wall time
    setups = [_spawn(name, args, deadline, True)["setup_s"]
              for _ in range(extra // 2)]
    res = _spawn(name, args, deadline, False)
    setups.append(res["setup_s"])
    setups += [_spawn(name, args, deadline, True)["setup_s"]
               for _ in range(extra - extra // 2)]
    if args.trace:
        res["metrics"] = res.pop("per_layer")
    else:
        res["metrics"] = {
            "setup_s": statistics.median(setups),
            "frames_per_s": res["frames_per_s"],
            "op_ms.mean": res["op_ms_mean"],
            "peak_rss_mib": res["peak_rss_mib"],
            "ok_ratio": 1.0 - res["failed"] / res["attempted"],
        }
    res["setup_starts_s"] = setups
    return res


def _line(label: str, value, unit: str) -> str:
    return f"{label:<44} {value:>14.6g} {unit}"


def report(results: dict, args) -> dict:
    """Print every metric by name and unit; return the JSON summary."""
    units = PER_LAYER if args.trace else END_TO_END
    single = len(results) == 1
    metrics = {}
    for name, res in results.items():
        print(f"== {name} (seed {args.seed}, {res['attempted']} ops, "
              f"{res['failed']} failed)")
        for key, unit in units.items():
            value = res["metrics"][key]
            print(_line(f"{name}.{key}", value, unit))
            metrics[key if single else f"{name}.{key}"] = \
                {"value": value, "unit": unit}
        print(_line(f"{name}.fail_ratio", res["failed"] / res["attempted"],
                    "ratio"))
        for key in ("op_ms_p50", "op_ms_p90"):
            if res.get(key) is not None:
                print(_line(f"{name}.{key.replace('_p', '.p')} "
                            f"({res['attempted']} ops)", res[key], "ms"))
        for key, value in res["notes"].items():
            if key not in units:
                print(_line(f"{name}.{key}", value, ""))
        for err in res["errors"]:
            print(f"{name}: failed op: {err}")
        for key in ("details", "host"):
            if key in res:
                print(f"{name}.{key}: {json.dumps(res[key], sort_keys=True)}")
    return {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="perfbench: GNS/MPM benchmark")
    p.add_argument("--workload", default="all",
                   choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload (for the benchmark's tests)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args, time.monotonic() + TIMEOUT_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = report(results, args)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json", "w") as fh:
        json.dump({"results": results, "summary": summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
