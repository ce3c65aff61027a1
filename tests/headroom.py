"""Headroom of the acceptance criteria on alternative seeds.

Each acceptance criterion is judged on one pinned seed, so it passes or
fails by that draw. This script replays the criteria of
`tests/test_acceptance.py` on other seeds with the checkout's code: for each
seed k it sets the module's `SEED`, `RATE_SEED` and `BREAKDOWN_SEED` to k in
this process only, runs the test functions themselves, and reads the
statistic out of the line each one reports. It prints each criterion's
quantiles over the seeds and how many seeds fail the test's own limit.

    python3 tests/headroom.py --seeds 1000:1020 [--only 05]

pytest collects only `test_*.py`, so the suite never runs this file. A
change that redraws data or moves the engine's arithmetic reports the
parent's and its own distributions; the committed seeds stay the gate.
"""

import argparse
import inspect
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import test_acceptance  # noqa: E402  (after the checkout's src joins the path)

# criterion -> (statistic, pattern of its value and limit in the reported line)
STATISTICS = {
    1: ("l1 slope", r"slope (\S+) (in \[.*?\])"),
    2: ("err ratio 1e6 / 1e3", r"= (\S+) (in \[.*?\])"),
    3: ("worst direction ratio", r"worst direction (\S+) (<= \S+)\)"),
    4: ("worst ratio", r"worst (\S+) (<= \S+)$"),
    5: ("worst |z|", r"worst \|z\| (\S+) (< \S+),"),
    6: ("worst fd relative error", r"relative error (\S+) (<= \S+),"),
    7: ("worst relative error", r"error (\S+) (<= \S+)$"),
    8: ("worst margin", r"worst margin (\S+) (>= \S+)$"),
    9: ("worst margin", r"worst (\S+) \(.*\) (>= \S+)$"),
    10: ("worst z", r"worst z (\S+) (<= \S+)$"),
    11: ("max trajectory gap", r"gap (\S+) (<= \S+),"),
    12: ("l1 trend inversions", r"inversions (\S+) (<= \S+)$"),
}


def criteria():
    """Criterion number -> its test function, by number."""
    found = {}
    for name, fn in vars(test_acceptance).items():
        m = re.match(r"test_criterion_(\d+)_", name)
        if m:
            found[int(m.group(1))] = fn
    return dict(sorted(found.items()))


def replay(seed: int, tests: dict) -> dict:
    """Criterion -> (passed, reported detail) on one seed."""
    test_acceptance.SEED = test_acceptance.RATE_SEED = test_acceptance.BREAKDOWN_SEED = seed
    reports = {}
    test_acceptance._report = lambda num, ok, detail: reports.__setitem__(num, (ok, detail))
    fixtures = {}

    def fixture(name):
        if name not in fixtures:
            fixtures[name] = getattr(test_acceptance, name).__wrapped__()
        return fixtures[name]

    for fn in tests.values():
        fn(*(fixture(p) for p in inspect.signature(fn).parameters))
    return reports


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi)) if hi else range(int(lo), int(lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1000:1020"), help="start:stop, stop excluded")
    parser.add_argument("--only", type=int, nargs="*", help="criterion numbers, e.g. 05 12")
    args = parser.parse_args(argv)
    tests = {k: fn for k, fn in criteria().items() if not args.only or k in args.only}
    assert set(tests) <= set(STATISTICS), f"no statistic pattern for criteria {sorted(set(tests) - set(STATISTICS))}"

    values = {k: [] for k in tests}
    fails = {k: 0 for k in tests}
    limits = {}
    for seed in args.seeds:
        for k, (ok, detail) in replay(seed, tests).items():
            m = re.search(STATISTICS[k][1], detail)
            assert m, f"criterion {k:02d} reported {detail!r}"
            values[k].append(float(m.group(1)))
            limits[k] = m.group(2)
            fails[k] += not ok
        print(f"seed {seed} done", file=sys.stderr)

    n = len(args.seeds)
    print(f"# seeds {args.seeds.start}:{args.seeds.stop} ({n}); quantiles min / q25 / median / q75 / max")
    for k in tests:
        q = " / ".join(f"{v:.4g}" for v in np.quantile(values[k], [0.0, 0.25, 0.5, 0.75, 1.0]))
        print(f"criterion {k:02d}: {STATISTICS[k][0]} {q}; limit {limits[k]}; fail {fails[k]} of {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
