"""One pipeline run in a fresh interpreter, driven through sdgflow's public API.

Usage: child.py JOB_JSON SPAWN_MONOTONIC

SPAWN_MONOTONIC is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide, so setup_s covers interpreter start,
`import sdgflow.cli`, and parsing, validating, auditing and digesting the
document. The result is written as JSON to the job's "result" path.
"""

import json
import sys
import time

spawn_mono = float(sys.argv[2])
job = json.loads(open(sys.argv[1], encoding="utf-8").read())

t0 = time.monotonic()
import sdgflow.cli  # noqa: E402,F401  (what every `sdgflow run` pays)
from sdgflow import engine, specs  # noqa: E402
from sdgflow.errors import NodeFailure  # noqa: E402

t_import = time.monotonic()
spec = specs.parse_spec(open(job["doc"], "rb").read())
audit = specs.data_flow_audit(spec)
digest = specs.spec_digest(spec)
t_setup = time.monotonic()

import os  # noqa: E402
import platform  # noqa: E402

result = {
    "setup_s": t_setup - spawn_mono,
    "import_s": t_import - t0,
    "parse_s": t_setup - t_import,
    "spec_digest": digest.hash,
    "audit_passed": audit.passed,
}


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process's own address space; ru_maxrss can carry
    # the parent's high-water mark across exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = []
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    for path in paths:
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for key, suffixes, restype in (
            ("config", ("get_config64_", "get_config"), ctypes.c_char_p),
            ("threads", ("get_num_threads64_", "get_num_threads"), ctypes.c_int),
        ):
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in suffixes:
                    fn = getattr(lib, prefix + suffix, None)
                    if fn is not None and key not in entry:
                        fn.restype = restype
                        value = fn()
                        entry[key] = value.decode() if isinstance(value, bytes) else value
        blas.append(entry)
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k, "default") for k in thread_vars},
    }


runners = None
tracer = None
if job["trace"]:
    import layers  # noqa: E402
    from tracer import Tracer  # noqa: E402

    tracer = Tracer()
    tracer.patch(layers.TRACED_FUNCTIONS)

    def _node_attr(args):
        return {"node": args[0].node.id}

    runners = {
        kind: tracer.span(layers.RUNNER_SPAN, fn, attrs=_node_attr)
        for kind, fn in engine.DEFAULT_RUNNERS.items()
    }

run_fn = engine.run if tracer is None else tracer.span(layers.RUN_SPAN, engine.run, root=True)
cpu0 = time.process_time()
t_run = time.perf_counter()
try:
    manifest = run_fn(
        spec,
        job["out"],
        max_parallel=job["max_parallel"],
        base_dir=job["base_dir"],
        runners=runners,
    )
    error = None
except NodeFailure as e:
    manifest = e.manifest
    error = f"node {e.node_id} failed"
run_wall = time.perf_counter() - t_run
cpu = time.process_time() - cpu0

t_verify = time.perf_counter()
report = engine.verify_manifest(job["out"])
verify_s = time.perf_counter() - t_verify

result.update(
    error=error,
    run_wall_s=run_wall,
    cpu_s=cpu,
    verify_s=verify_s,
    verify_passed=report.passed,
    verify_failures=[f"{c.name}: {c.detail}" for c in report.checks if not c.passed],
    node_records=[r.to_json_obj() for r in manifest.node_records],
    peak_rss_mb=_peak_rss_mb(),
)
if job.get("environment"):
    result["environment"] = _environment()
if tracer is not None:
    result["spans"] = tracer.spans()

with open(job["result"], "w", encoding="utf-8") as fh:
    json.dump(result, fh)
