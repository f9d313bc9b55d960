"""modwatch benchmark: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the full result record, stamped with
the machine context; a copy goes to ``.perfbench_results/``.  See
perfbench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train", "monitor", "analyze")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="sizes the work of the workload's own phases")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: checks the benchmark itself in seconds")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read without changing it."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine_context() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def import_modwatch():
    """Import the package from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "modwatch", "__init__.py")):
        sys.exit(f"perfbench: no modwatch sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import modwatch

    if os.path.dirname(os.path.dirname(os.path.abspath(modwatch.__file__))) != SRC:
        sys.exit(f"perfbench: imported modwatch from {modwatch.__file__}, not {SRC}")
    return modwatch


def load_metric_table() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    modwatch = import_modwatch()
    table = load_metric_table()
    import tracing
    import workloads

    load_before = os.getloadavg()[0]
    steal_before = steal_seconds()
    context = machine_context()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(modwatch)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    started = time.perf_counter()
    try:
        session = workloads.Session(args.workload, args.seed, args.seconds, args.smoke,
                                    work_dir, tracer, jobs=context["nproc"])
        session.setup()
        session.run()
    finally:
        tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    outcome = session.outcome
    values = dict(session.values)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": session.sizes.__dict__,
        "context": context,
        "load_1min_before": load_before,
        "load_1min_after": os.getloadavg()[0],
        "steal_s": steal_seconds() - steal_before,
        "wall_s": time.perf_counter() - started,
        "failures": outcome.failures,
        "end_to_end": {m["name"]: values.get(m["name"]) for m in table["end_to_end"]},
        "setup_all_s": session.setup_times,
        "samples": session.samples(),
    }
    if args.trace:
        violations = tracer.nesting_violations()
        outcome.check(not violations, f"spans nest ({violations[:3]})")
        negative = [sid for sid, ns in tracer.self_times().items() if ns < 0]
        outcome.check(not negative, f"self times >= 0 ({len(negative)} negative)")
        stats = tracer.layer_stats()
        record["spans"] = len(tracer.spans)
        record["per_layer"] = stats
        wanted = table["per_layer"]
    else:
        stats = values
        wanted = table["end_to_end"]

    missing = [m["name"] for m in wanted if stats.get(m["name"]) is None]
    print(json.dumps({"record": record}))
    out_dir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    if missing:
        print(f"perfbench: no value for {missing}; failures: {outcome.failures}", file=sys.stderr)
        return 1
    for failure in outcome.failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
