"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 18 --trace 0

The workload's inputs are generated from ``--seed``; the program in
``src/`` receives only those inputs. After one untimed set-up and an
untimed warm-up unit, units of work repeat until they have taken
``--seconds`` (and at least the workload's minimum number of units ran).
Every unit repeats the same work and lasts a few seconds. The throughput
is the work of all units over their measured time. Between units,
SETUP_SAMPLES set-ups are timed, spread over the run, and ``setup_s`` is
their median. Each unit's outputs are checked outside the measured time.

Measured times are scaled to a reference host speed (``refclock``): a
shared 2-vCPU host can change speed as a whole, by up to 2x, in phases
that outlast a run, and scaling by a reference kernel timed every
20 ms in the same process takes most of that out. The report also gives
the raw wall-clock throughput and the scale of measured over wall time.

With ``--trace 0`` the end-to-end metrics are measured with nothing
wrapped. With ``--trace 1`` untraced and traced units alternate for
``--seconds``; while a traced unit runs, the tracer wraps the program's
layers. The per-layer metrics come from those spans, and the tracing
overhead is the mean traced unit time minus the mean untraced one. The
traced run reads plain wall time: no kernel runs inside its spans.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit). The
line before it is a report with the environment, the workload's input
profile and every workload-specific figure. Spans and the report are
also written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads (refclock loads it): the engine's
# matrices are small, and on a shared machine more threads mostly add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from refclock import CLOCK  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 10     # warm set-ups timed per run, spread over it

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}


def import_program() -> None:
    """Put this checkout's ``src`` first on the path; exit if it is missing."""
    if not (SRC / "ksm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'ksm'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ksm
    if Path(ksm.__file__).resolve().parent != SRC / "ksm":
        sys.exit(f"perfbench: imported ksm from {ksm.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "processes": 1,
    }


def run_unit(workload, state, quiet):
    """One unit; an exception counts as a failed request and is reported."""
    from workloads import Unit
    gc.collect()  # every unit starts from the same heap, not the last's garbage
    scaled, wall = CLOCK.now(), CLOCK.wall()
    try:
        unit = workload.unit(state, quiet)
    except Exception:  # the run must go on and report the failure
        traceback.print_exc()
        unit = Unit(items=0, requests=[0.0], failed=1)
    unit.scale = (CLOCK.now() - scaled) / (CLOCK.wall() - wall)
    return unit


def timed_setup(workload, workdir: Path, times: list[float]) -> None:
    gc.collect()
    start = CLOCK.now()
    workload.setup(workdir)
    times.append(CLOCK.now() - start)


def measure(workload, state, seconds: float, workdir: Path,
            setup_times: list[float]) -> list:
    """Untraced units until they have taken ``seconds`` and at least the
    minimum ran. Set-ups are timed between units, spread evenly over the
    run so that they see the same mix of host load as the units, up to
    SETUP_SAMPLES; their time does not count against ``seconds``."""
    units = []
    busy = 0.0
    while len(units) < workload.min_units or busy < seconds:
        start = CLOCK.wall()
        units.append(run_unit(workload, state, nullcontext))
        busy += CLOCK.wall() - start
        due = (SETUP_SAMPLES if busy >= seconds
               else int(SETUP_SAMPLES * busy / seconds))
        while len(setup_times) < due:
            timed_setup(workload, workdir, setup_times)
    while len(setup_times) < SETUP_SAMPLES:
        timed_setup(workload, workdir, setup_times)
    return units


def mean_unit_seconds(units) -> float:
    return sum(u.seconds for u in units) / len(units)


def run(workload, seconds: float, trace: bool, workdir: Path) -> dict:
    """Measure one workload; returns the result and the report."""
    import numpy as np
    from spans import Tracer, per_layer_units

    workload.prepare(workdir)
    # The first set-up reads cold files and makes the first allocations; it
    # is not timed. The first unit fills caches and, where a workload checks
    # later units against the first, carries the full output checks; it is
    # not timed either.
    state = workload.setup(workdir)
    warmup = run_unit(workload, state, nullcontext)
    setup_times: list[float] = []
    if trace:
        # Untraced and traced units alternate, so both see the same host
        # load and their difference is the tracing overhead.
        tracer = Tracer()
        with tracer.installed(), tracer.span("bench.setup"):
            workload.setup(workdir)
        reference, units = [], []
        start = perf_counter()
        while (len(units) < workload.min_units
               or perf_counter() - start < seconds):
            reference.append(run_unit(workload, state, nullcontext))
            with tracer.installed(), tracer.span("bench.unit"):
                units.append(run_unit(workload, state, tracer.paused))
        checked = [warmup] + reference + units
    else:
        with CLOCK.running():
            units = measure(workload, state, seconds, workdir, setup_times)
        checked = [warmup] + units

    done = [u for u in units if u.failed == 0]
    attempted = sum(len(u.requests) for u in checked)
    failed = sum(u.failed for u in checked)
    # Completed, checked work over the measured time it took, every unit in.
    throughput = (sum(u.items for u in done) / sum(u.seconds for u in done)
                  if done else 0.0)
    wall_seconds = sum(u.seconds / u.scale for u in done)
    report = {
        workload.throughput_name: {"value": throughput, "unit": "1/s",
                                   "item": workload.item,
                                   "unit_rates": [u.items / u.seconds
                                                  for u in done]},
        f"wall_{workload.throughput_name}": {
            "value": sum(u.items for u in done) / wall_seconds
            if done else 0.0, "unit": "1/s"},
        "time_scale": {"value": sum(u.seconds for u in done) / wall_seconds
                       if done else 1.0, "unit": "ratio",
                       "per_unit": [u.scale for u in units],
                       "kernel_samples": len(CLOCK.kernel_times)},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "failed_share": {"value": failed / attempted, "unit": "ratio",
                         "failed": failed, "attempted": attempted},
        "units": len(units),
        "measured_s": sum(u.seconds for u in units),
    }
    if setup_times:
        report["setup_s"] = {"value": statistics.median(setup_times),
                             "unit": "s", "samples": setup_times}
    latencies = [x * 1e3 for u in done for x in u.requests]
    if workload.latency_name:
        p = workload.TAIL_PERCENTILE
        report[f"{workload.latency_name}_p50"] = {
            "value": statistics.median(latencies), "unit": "ms",
            "samples": len(latencies)}
        tail = float(np.percentile(latencies, p))
        report[f"{workload.latency_name}_tail"] = {
            "value": tail, "unit": "ms", "percentile": p,
            "samples": len(latencies),
            "beyond": sum(x > tail for x in latencies)}
    if done:
        report.update(done[-1].info)

    if trace:
        values = tracer.layer_metrics()
        untraced = mean_unit_seconds(reference)
        traced = mean_unit_seconds(units)
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_ratio"] = (traced - untraced) / untraced
        units_of = per_layer_units()
        tracer.write(OUT / f"{workload.name}-seed{workload.seed}.spans.jsonl")
        report["trace"] = {"spans": len(tracer.spans),
                           "overhead_s": traced - untraced,
                           "untraced_unit_s": untraced,
                           "traced_unit_s": traced}
    else:
        units_of = END_TO_END_UNITS
        values = {"setup_s": report["setup_s"]["value"],
                  "peak_rss_mb": report["peak_rss_mb"]["value"],
                  "throughput_per_s": throughput}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units_of.items()}
    return {"correct": failed == 0 and attempted > 0 and bool(done),
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(workload, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "inputs": workload.describe(),
              "metrics": result.pop("report")}
    suffix = "trace" if args.trace else "report"
    (OUT / f"{args.workload}-seed{args.seed}.{suffix}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
