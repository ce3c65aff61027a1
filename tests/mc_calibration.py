"""Calibration of verify's Monte Carlo z values over many seeds.

Each `mc_loss[...]` line of a `verify` report is |z| of one Monte Carlo
estimate against its closed form, judged on one seed. A change that redraws
the Monte Carlo keeps the gate honest only if, over many seeds, z still
behaves as a standard normal. This script runs `run_suite(seed,
only="mc_loss")` for each seed with the checkout's code and prints the
number of z values, their mean z^2 (1 for a standard normal), and the counts
above 3 and above 4 next to their expected counts (0.27 % and 0.006 %).

With `--group moment_bounds` it runs that group instead, whose two lines are
each the worst z over checkpoints of a Monte Carlo moment against a proved
bound: no normal law is expected there, so it prints the quantiles of the
`moment_bounds.second` and `.fourth` z over the seeds and how many exceed 3.

    python3 tests/mc_calibration.py --seeds 6000:7500
    python3 tests/mc_calibration.py --group moment_bounds --seeds 20260816:20261016

pytest collects only `test_*.py`; the suite runs this file only in
`test_hand_run_tools.py`, on one seed of each group, to check that it still
runs and reports.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from streamrobust.verify import run_suite  # noqa: E402  (after the checkout's src joins the path)


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi)) if hi else range(int(lo), int(lo) + 1)


def moment_bounds(seeds: range) -> int:
    """Quantiles of each moment_bounds line's z over the seeds, and its count above 3."""
    zs = {}
    for seed in seeds:
        for r in run_suite(seed, only="moment_bounds"):
            zs.setdefault(r.name, []).append(r.value)
    print(f"# seeds {seeds.start}:{seeds.stop} ({len(seeds)}); quantiles min / q25 / median / q75 / max")
    for name, values in zs.items():
        q = " / ".join(f"{v:.4g}" for v in np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0]))
        print(f"{name}: z {q}; above 3: {sum(z > 3.0 for z in values)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("6000:6100"), help="start:stop, stop excluded")
    parser.add_argument("--group", choices=("mc_loss", "moment_bounds"), default="mc_loss")
    args = parser.parse_args(argv)
    if args.group == "moment_bounds":
        return moment_bounds(args.seeds)

    zs = [r.value for seed in args.seeds for r in run_suite(seed, only="mc_loss")]
    n = len(zs)
    print(f"# seeds {args.seeds.start}:{args.seeds.stop} ({len(args.seeds)}); {n} z values")
    print(f"mean z^2 {sum(z * z for z in zs) / n:.4f} (1 expected)")
    for t in (3.0, 4.0):
        tail = math.erfc(t / math.sqrt(2.0))  # P(|z| > t) for a standard normal
        print(f"|z| > {t:g}: {sum(z > t for z in zs)} (expected {n * tail:.2f}, {100.0 * tail:.3g} %)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
