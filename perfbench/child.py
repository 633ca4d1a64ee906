"""One benchmark child process: import exspec, run CLI commands, report.

Usage: python child.py JOB.json

The job file names the argv lists to pass to ``exspec.cli.main``, whether to
trace them, whether to run the kernel microbenchmarks, and where to write
the result. The parent starts this script with PYTHONPATH pointing at the
checkout's ``src`` and with the thread variables unset.
"""

import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


def _openblas_threads():
    """OpenBLAS's own thread count, read from numpy's bundled library."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    import exspec.rng

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    worker_count = getattr(exspec.rng, "worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "openblas_threads_effective": _openblas_threads(),
        "EXSPEC_THREADS": os.environ.get("EXSPEC_THREADS", "unset"),
        "exspec_threads_effective": worker_count() if worker_count else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def perm_sum(n: int, d: int, rng):
    """Sum of d uniform permutation matrices (the perm_sum_regular law)."""
    import numpy as np

    A = np.zeros((n, n))
    for _ in range(d):
        A[np.arange(n), rng.permutation(n)] += 1.0
    return A


def kernel_microbench(seed: int, reps: dict) -> dict:
    """Median microseconds of spectral_norm and second_singular per size,
    each on perm_sum_regular d=4 matrices drawn from the seed."""
    import statistics

    import numpy as np

    from exspec import spectra

    out = {}
    for n_text, count in reps.items():
        n = int(n_text)
        rng = np.random.default_rng([seed, n])
        mats = [perm_sum(n, 4, rng) for _ in range(count)]
        for name, fn in (("spectral_norm", spectra.spectral_norm),
                         ("second_singular", spectra.second_singular)):
            if count > 1:
                fn(mats[0])  # untimed: the first BLAS call of a size starts threads
            times = []
            for A in mats:
                t0 = time.perf_counter()
                fn(A)
                times.append(time.perf_counter() - t0)
            out[f"spectra.{name}_us.n{n}"] = 1e6 * statistics.median(times)
    return out


def main(job_path: str) -> int:
    with open(job_path) as f:
        job = json.load(f)
    result = {"calls": []}

    t0 = time.perf_counter()
    import exspec.cli

    exspec.cli.build_parser()
    result["setup_s"] = time.perf_counter() - t0

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    for argv in job["argvs"]:
        call = {"argv": argv, "rc": None, "error": None}
        captured = io.StringIO()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        t1 = time.perf_counter()
        try:
            with redirect_stdout(captured):
                call["rc"] = exspec.cli.main(argv)
        except SystemExit as e:
            call["rc"] = e.code if isinstance(e.code, int) else 2
        except Exception:
            call["error"] = traceback.format_exc()
            sys.stderr.write(call["error"])
        call["wall_s"] = time.perf_counter() - t1
        after = resource.getrusage(resource.RUSAGE_SELF)  # all threads, BLAS included
        call["cpu_s"] = after.ru_utime - usage.ru_utime + after.ru_stime - usage.ru_stime
        call["stdout_bytes"] = len(captured.getvalue().encode())
        result["calls"].append(call)

    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.metrics(sum(c["wall_s"] for c in result["calls"]))
        result["trace_excluded_s"] = tracer.excluded_s
    if job.get("kernels"):
        result["kernels"] = kernel_microbench(job["kernels"]["seed"], job["kernels"]["reps"])
    if job.get("env"):
        result["env"] = environment()

    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
