"""Benchmark of the ``smle`` toolkit.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pretrain|finetune|denoise \
        --seed N --seconds S --trace 0|1

The run imports ``smle`` from ``src/`` of the checkout, generates every
input from the seed, sets up several times (``setup_s`` is the median),
then repeats identical rounds of the workload for about ``--seconds``
seconds.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the layers of ``smle``
are wrapped from outside (see ``tracing.py``) and the metrics are per-layer
self times, call counts and ratios.  The line before it carries the run's
metadata and the workload's named figures.  A failed check, an operation
that raised, or outputs that differ between rounds make the run exit 1.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3


def import_smle():
    """Import ``smle`` from this checkout's ``src/`` only."""
    if not (SRC / "smle" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no smle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smle
    from smle import checkpoint, data, dsp, metrics, models, neural, pipeline

    if not Path(smle.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: smle imported from {smle.__file__}, not {SRC}")
    return {"checkpoint": checkpoint, "data": data, "dsp": dsp, "metrics": metrics,
            "models": models, "neural": neural, "pipeline": pipeline}


def _openblas():
    """``(get_num_threads, set_num_threads, get_config)`` of the OpenBLAS
    that numpy loaded, through ctypes, or None if none is found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                names = [f"{prefix}_{fn}{suffix}"
                         for fn in ("get_num_threads", "set_num_threads", "get_config")]
                if not all(hasattr(lib, name) for name in names):
                    continue
                get, set_, config = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                return get, set_, config
    return None


def run_metadata(seed):
    import numpy
    import scipy

    blas = _openblas()
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return {
        "seed": seed,
        "blas_threads": blas[0]() if blas else None,
        "blas_config": blas[2]().decode() if blas else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def measure(workload, seconds, tracer=None):
    """Run rounds until the next would end past ``seconds`` (at least
    ``workload.min_rounds``).  With a tracer, odd rounds run untraced and
    even rounds traced, so the tracing overhead is measured in the same run."""
    rounds, traced_s, plain_s = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rounds.append(workload.run_round())
        finally:
            if traced:
                tracer.uninstall()
        (traced_s if traced else plain_s).append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(rounds) >= workload.min_rounds
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
            return rounds, traced_s, plain_s


def main(argv=None, tiny=False):
    """Command-line entry; ``tiny`` runs the workload at smoke-test size."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_smle()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer(modules) if args.trace else None
    try:
        sizes = workloads.TINY if tiny else workloads.FULL
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
        return run(args, workload, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def run(args, workload, workdir, tracer):
    """Set up, measure and report one workload; returns the exit code."""
    if not workload.blas_threads:
        return measure_workload(args, workload, workdir, tracer)
    blas = _openblas()
    if blas is None:
        raise SystemExit("perfbench: cannot pin BLAS threads: OpenBLAS not found")
    default = blas[0]()
    blas[1](workload.blas_threads)
    try:
        return measure_workload(args, workload, workdir, tracer)
    finally:
        blas[1](default)


def measure_workload(args, workload, workdir, tracer):
    import tracing
    import workloads

    setup_s = []
    for i in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / f"setup{i}").mkdir(parents=True)
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.setup(workdir / f"setup{i}")
        finally:
            if tracer:
                tracer.uninstall()
        setup_s.append(time.perf_counter() - t0)

    if tracer:
        tracer.phase = "measure"
    rounds, traced_s, plain_s = measure(workload, args.seconds, tracer)
    errors = workloads.check_rounds(rounds)
    attempted = sum(op.count for r in rounds for op in r)
    failed = sum(op.failed for r in rounds for op in r)
    metrics, named = workload.metrics(rounds)
    metrics = {"setup_s": (statistics.median(setup_s), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
               "primary_per_s": (metrics["primary_per_s"], "1/s"),
               "control_per_s": (metrics["control_per_s"], "1/s"),
               "quality_db": (metrics["quality_db"], "dB")}
    report = {"workload": workload.name, "rounds": len(rounds),
              "setup_s_each": setup_s,
              "op_per_s_each": {op.kind: [o.count / o.seconds for r in rounds for o in r
                                          if o.kind == op.kind] for op in rounds[0]},
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    if tracer:
        traced_ops = sum(op.count for r in rounds[1::2] for op in r)
        per_layer = tracing.layer_metrics(tracer, traced_ops, sum(traced_s),
                                          SETUP_REPEATS, sum(setup_s))
        per_layer["trace.overhead_share"] = (
            statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
        units = tracing.metric_units()
        metrics = {k: (per_layer[k], units[k]) for k in units}
        spans = ROOT / ".perfbench_out"
        spans.mkdir(exist_ok=True)
        tracer.write(spans / f"spans-{workload.name}-{args.seed}.jsonl")
    print(json.dumps({"meta": run_metadata(args.seed), "report": report, "errors": errors}))
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
