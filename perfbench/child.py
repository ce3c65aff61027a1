"""One benchmark child: import the package, run its CLI calls, report timings.

Usage: python3 child.py SPEC.json

The spec names the package's source directory, the `streamrobust` argv of
each call, whether to trace, and (traced only) the extra `verify --only`
calls whose verify self time is reported per group. The child writes its
result next to the spec as `result.json`. The monotonic clock stamp taken
right after `streamrobust.cli` is imported lets the parent compute set-up
time from the moment it spawned this process. A fixed reference loop is
timed right before and right after the calls, so the parent can express
the wall time in units of the machine's speed at that moment.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def _blas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def reference(kind: str) -> float:
    """Seconds taken by a fixed loop that does not touch the package.

    `rows` is a per-row Python loop over small numpy vectors, like the SGD
    engine; `vector` is a series of vectorised passes over 1 MB arrays, like
    the Monte Carlo checks. Those two arrays are freed on return and stay
    well below the peak memory of the workload that uses this loop.
    """
    import numpy as np

    if kind == "rows":
        x = np.linspace(0.1, 1.0, 10)
        theta = np.zeros(10)
        start = time.perf_counter()
        for _ in range(50000):
            if 1.0 - float(x @ theta) > 0.0:
                theta += 1e-4 * x
            else:
                theta -= 1e-4 * x
        return time.perf_counter() - start
    rng = np.random.default_rng(0)
    a, b = np.empty(131072), np.empty(131072)
    start = time.perf_counter()
    for _ in range(48):
        rng.standard_normal(out=a)
        np.multiply(a, 0.5, out=b)
        np.add(b, 1.0, out=b)
        np.abs(b, out=b)
        float(b.sum() + a @ b)
    return time.perf_counter() - start


def _call(cli, argv) -> int:
    """Exit code of one CLI call; an uncaught exception is logged and fails it."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def main(spec_path: str) -> int:
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import streamrobust.cli as cli

    ready = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"streamrobust imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    recorder = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, spec["huber_tau"])

    ref_before = reference(spec["reference"])
    codes = []
    start = time.perf_counter()
    for argv in spec["calls"]:
        codes.append(_call(cli, argv))
    wall = time.perf_counter() - start
    ref_s = (ref_before + reference(spec["reference"])) / 2.0

    result = {"ready": ready, "wall_s": wall, "ref_s": ref_s, "codes": codes}
    if recorder is not None:
        result["trace"] = recorder.summary()
        groups = {}
        for group, argv in spec["group_calls"].items():
            recorder.clear()
            code = _call(cli, argv)
            groups[group] = {"code": code, **recorder.summary()}
        result["groups"] = groups

    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
    }
    (spec_file.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
