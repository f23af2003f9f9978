#!/usr/bin/env python3
"""Layered host-time benchmark of the simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-day --seed 0 --seconds 32 --trace 0

Each iteration of a workload runs in a fresh single-threaded child
process (cold in-process caches, BLAS/OpenMP pinned to one thread,
``gc.freeze()`` after set-up).  The parent repeats iterations until the
next one would overrun ``--seconds`` (at least one, two when tracing),
checks every child's outputs, and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics of the traced iterations
(``--trace 1``).  Timings are reported at a reference host speed: each
child also times a fixed pure-Python yardstick, and every host time is
multiplied by ``REFERENCE_YARDSTICK_S / median yardstick time`` so that
the host's own speed drift cancels out.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code
0 means every output check passed.  ``--update-reference`` records the
default-seed output digest of a workload in ``reference.json``.

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-end-to-end map.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

# Listed here as well as in workloads.py: the parent never imports the
# simulator, so it can reject a missing source tree before starting.
WORKLOAD_NAMES = (
    "profile-suite", "plan-sweep", "fleet-day", "fleet-resilient",
)
#: The seed at which outputs are compared with ``reference.json``.
DEFAULT_SEED = 0
#: Parent wall-clock budget; the benchmark must end well inside 180 s.
DEADLINE_S = 170.0
#: Extra children that only set up, so setup_s is a median of several.
SETUP_ONLY_CHILDREN = 2
#: Yardstick runs per child, and the yardstick time that defines the
#: reference host speed all reported timings are scaled to.
YARDSTICK_RUNS = 3
REFERENCE_YARDSTICK_S = 0.1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  ``*_s`` entries named after a
#: span are the summed self time of that span's calls.
PER_LAYER = {
    "models.build_s": "s",
    "profiler.profile_s": "s",
    "profiler.sweep_s": "s",
    "profiler.profiles": "count",
    "profiler.us_per_event": "us",
    "ir.trace_events": "count",
    "kernels.cache_lookups": "count",
    "kernels.cache_hits": "count",
    "kernels.cache_misses": "count",
    "kernels.cache_hit_ratio": "ratio",
    "kernels.cache_entries": "count",
    "hw.cache_sim_s": "s",
    "distributed.plan_s": "s",
    "distributed.cost_config_s": "s",
    "distributed.strong_scaling_s": "s",
    "distributed.axis_builds": "count",
    "distributed.configs_costed": "count",
    "distributed.trace_profiles": "count",
    "distributed.s_per_axis_build": "s",
    "traffic.generate_s": "s",
    "traffic.requests": "count",
    "traffic.dumps_s": "s",
    "traffic.loads_s": "s",
    "traffic.bytes": "bytes",
    "fleet.simulate_s": "s",
    "fleet.us_per_request": "us",
    "fleet.completed": "count",
    "fleet.failed": "count",
    "fleet.shed": "count",
    "fleet.retried": "count",
    "fleet.hedges_launched": "count",
    "fleet.hedge_wins": "count",
    "fleet.hedge_win_ratio": "ratio",
    "chaos.compile_s": "s",
    "chaos.invariants_s": "s",
    "slo.report_s": "s",
    "slo.domain_s": "s",
    "obs.log_s": "s",
    "obs.spans": "count",
    "obs.dumps_s": "s",
    "obs.loads_s": "s",
    "obs.bytes": "bytes",
    "obs.perfetto_s": "s",
    "obs.alerts_s": "s",
    "bench.workload_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.yardstick_s": "s",
}

#: Human-readable alias of ``work_per_s`` per workload.
WORK_ALIAS = {
    "profile-suite": "events_per_s",
    "plan-sweep": "configs_per_s",
    "fleet-day": "requests_per_s",
    "fleet-resilient": "requests_per_s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-reference", action="store_true",
        help="record this workload's default-seed digest and exit",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


# -- child: one iteration in a fresh process --------------------------------

def yardstick() -> float:
    """Seconds for a fixed pure-Python job that uses no simulator code.

    The job's cost changes only with the host's speed, which drifts by
    up to 2x over tens of minutes on a shared machine.  Allocations are
    freed as they go, so the frozen heap never triggers a collection.
    """
    started = time.perf_counter()
    table = {}
    for value in range(300_000):
        table[value & 1023] = (value * value, str(value))
    sorted(range(200_000), key=lambda value: (value * 7919) % 10007)
    return time.perf_counter() - started


def child_main(args: argparse.Namespace) -> int:
    import gc
    import resource
    import traceback

    sys.path.insert(0, str(SRC))
    import repro
    from tracing import Recorder, layer_self_seconds
    import workloads

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    setup, measure, check = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    gc.collect()
    gc.freeze()
    setup_s = time.perf_counter() - START
    result = {
        "setup_s": setup_s,
        "yardstick_s": [yardstick() for _ in range(YARDSTICK_RUNS)],
        "traced": bool(args.trace),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rec = Recorder(
        f"{args.workload}/seed{args.seed}/pid{os.getpid()}",
        traced=bool(args.trace),
        counters=workloads.cache_counters,
    )
    failures: list[str] = []
    started = time.perf_counter()
    try:
        with rec.span("bench.workload", operation=False):
            out, counts = measure(state, rec)
    except Exception:
        failures.append("raised: " + traceback.format_exc(limit=-3))
        out, counts = None, {}
    result["wall_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    digest = None
    if out is not None:
        try:
            digest, check_failures = check(state, out)
            failures.extend(check_failures)
        except Exception:
            failures.append("check raised: " + traceback.format_exc(limit=-3))
    result.update(
        operations=rec.operations,
        failures=failures,
        counts=counts,
        digest=digest,
        work=counts.get(workloads.WORK_UNITS[args.workload], 0),
        seedless=args.workload in workloads.SEEDLESS,
    )
    if rec.traced:
        result["spans"] = rec.spans
        result["layer_s"] = layer_self_seconds(rec.spans)
    print(json.dumps(result))
    return 0


# -- parent: iterations, checks and the report -----------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_NO_CACHE", None)
    return env


def run_child(
    args: argparse.Namespace, timeout: float, *, traced: bool = False,
    setup_only: bool = False,
) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"iteration exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def run_iterations(
    args: argparse.Namespace,
) -> tuple[list[dict], list[dict], list[str]]:
    """Set-up-only children, then measured ones until the next would
    overrun ``--seconds``.  Returns (measured children, every child,
    errors)."""
    everyone: list[dict] = []
    for _ in range(SETUP_ONLY_CHILDREN):
        child = run_child(args, DEADLINE_S, setup_only=True)
        if "error" in child:
            return [], everyone, [child["error"]]
        everyone.append(child)
    children: list[dict] = []
    durations: list[float] = []
    minimum = 2 if args.trace else 1
    while True:
        elapsed = time.perf_counter() - START
        remaining = DEADLINE_S - elapsed
        if children and (
            len(children) >= minimum
            and elapsed + statistics.median(durations) > args.seconds
            or remaining < 1.5 * max(durations)
        ):
            break
        traced = bool(args.trace) and len(children) % 2 == 1
        began = time.perf_counter()
        child = run_child(args, remaining, traced=traced)
        durations.append(time.perf_counter() - began)
        if "error" in child:
            return children, everyone, [child["error"]]
        children.append(child)
        everyone.append(child)
    return children, everyone, []


def host_speed(everyone: list[dict]) -> tuple[float, float]:
    """(median yardstick seconds, factor scaling host seconds to the
    reference speed) over every child of the run."""
    measured = statistics.median(
        value for child in everyone for value in child["yardstick_s"]
    )
    return measured, REFERENCE_YARDSTICK_S / measured


def judge(
    args: argparse.Namespace, children: list[dict], errors: list[str]
) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every child's checks."""
    reference = load_reference().get(args.workload)
    compare = reference is not None and (
        args.seed == DEFAULT_SEED or children and children[0]["seedless"]
    )
    attempted = failed = 0
    messages = list(errors)
    failed += len(errors)
    for index, child in enumerate(children):
        attempted += child["operations"]
        bad = list(child["failures"])
        if compare and child["digest"] != reference:
            bad.append("output digest differs from reference.json")
        if child["counts"] != children[0]["counts"]:
            bad.append("layer counts differ between iterations")
        failed += min(len(bad), max(child["operations"], 1))
        messages.extend(f"iteration {index}: {text}" for text in bad)
    if reference is None:
        messages.append(f"no reference digest for {args.workload}")
        failed += 1
    attempted = max(attempted, 1)
    return attempted, min(failed, attempted), messages


def end_to_end(children: list[dict], everyone: list[dict]) -> dict[str, float]:
    """Medians in host seconds (not yet scaled to the reference speed)."""
    plain = [child for child in children if not child["traced"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in everyone),
        "wall_s": statistics.median(c["wall_s"] for c in plain),
        "work_per_s": statistics.median(c["work"] / c["wall_s"] for c in plain),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
    }


def scaled(metrics: dict[str, float], units: dict[str, str], factor: float):
    """Timings scaled by ``factor``, rates by its inverse; the yardstick
    itself stays in host seconds."""
    scale = {"s": factor, "us": factor, "1/s": 1.0 / factor}
    return {
        name: value * (
            1.0 if name == "bench.yardstick_s"
            else scale.get(units[name], 1.0)
        )
        for name, value in metrics.items()
    }


def per_layer(children: list[dict], yardstick_s: float) -> dict[str, float]:
    """Per-layer metrics in host seconds (not yet scaled)."""
    traced = [child for child in children if child["traced"]]
    plain = [child for child in children if not child["traced"]]
    metrics: dict[str, float] = {"bench.yardstick_s": yardstick_s}
    counts = traced[0]["counts"]
    for name, unit in PER_LAYER.items():
        if name in metrics:
            continue
        if unit == "s":
            metrics[name] = statistics.median(
                child["layer_s"].get(name, 0.0) for child in traced
            )
        else:
            metrics[name] = counts.get(name, 0)
    events = metrics["ir.trace_events"]
    metrics["profiler.us_per_event"] = (
        metrics["profiler.profile_s"] / events * 1e6 if events else 0.0
    )
    builds = metrics["distributed.axis_builds"]
    metrics["distributed.s_per_axis_build"] = (
        metrics["distributed.plan_s"] / builds if builds else 0.0
    )
    requests = metrics["traffic.requests"]
    metrics["fleet.us_per_request"] = (
        metrics["fleet.simulate_s"] / requests * 1e6 if requests else 0.0
    )
    metrics["bench.trace_overhead_s"] = statistics.median(
        c["wall_s"] for c in traced
    ) - statistics.median(c["wall_s"] for c in plain)
    return metrics


def write_chrome_trace(args: argparse.Namespace, children: list[dict]) -> Path:
    from tracing import chrome_trace

    runs = [
        (f"{args.workload} seed {args.seed} iteration {index}", child["spans"])
        for index, child in enumerate(children) if child["traced"]
    ]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    path.write_text(json.dumps(chrome_trace(runs)))
    return path


def update_reference(args: argparse.Namespace) -> int:
    child = run_child(args, DEADLINE_S)
    if "error" in child or child["failures"]:
        print(child.get("error") or child["failures"], file=sys.stderr)
        return 1
    reference = load_reference()
    reference[args.workload] = child["digest"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {args.workload} digest in {REFERENCE.name}")
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.update_reference:
        args.seed = DEFAULT_SEED
        return update_reference(args)

    children, everyone, errors = run_iterations(args)
    attempted, failed, messages = judge(args, children, errors)
    for message in messages:
        print(f"CHECK FAILED: {message}")
    have_traced = any(c["traced"] for c in children)
    have_plain = any(not c["traced"] for c in children)
    if not have_plain or (args.trace and not have_traced):
        print(json.dumps({
            "correct": False, "attempted": attempted,
            "failed": max(failed, 1), "metrics": {},
        }))
        return 1

    yardstick_s, factor = host_speed(everyone)
    print(
        f"{args.workload} seed={args.seed}: {len(children)} iterations, "
        f"{attempted} operations, error_rate={failed / attempted:.4g}, "
        f"yardstick {yardstick_s:.4f} s (timings x {factor:.4f})"
    )
    if args.trace:
        raw = per_layer(children, yardstick_s)
        units = PER_LAYER
        print(f"chrome trace: {write_chrome_trace(args, children)}")
    else:
        raw = end_to_end(children, everyone)
        units = END_TO_END
        print(
            f"  {WORK_ALIAS[args.workload]} = work_per_s "
            f"({children[0]['work']} units per iteration)"
        )
    metrics = scaled(raw, units, factor)
    print(f"  {'metric':32s} {'reference host':>16s} {'this host':>16s}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {raw[name]:>16.6g} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
