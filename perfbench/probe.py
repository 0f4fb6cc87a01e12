"""One-shot probe of the baseline rows in ROADMAP Open item 1. Not gated.

Usage (from the repository root): python3 perfbench/probe.py [--seed N]

Rows: import finmeas (beside a bare interpreter), `finmeas conv` on two
d6, `finmeas laws --cases 200`, a 300-point convolve, and
convolution_power(interval(-1/2, 1/2, 1/4), 60). Then the call counts of
the 300-point convolve under cProfile: Fraction.__new__, as_point,
point_key and the isinstance calls made from dist.py, counted by
tracing.profile_metrics as in the benchmark's traced run. Timings are single runs or small medians, so they anchor a
table; they are not a gate.
"""

import argparse
import cProfile
import json
import os
import pstats
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gen  # noqa: E402
import tracing  # noqa: E402
from finmeas import Dist, Step, convolution_power, convolve, interval  # noqa: E402
from run import timed_subprocess  # noqa: E402

COUNTS = {"Fraction.__new__": "scalars.fraction_new_calls",
          "as_point": "dist.as_point_calls", "point_key": "dist.point_key_calls",
          "isinstance (from dist.py)": "dist.isinstance_calls"}


def wall(argv, runs, env):
    return statistics.median(timed_subprocess(argv, runs, env)), runs


def clock(fn, *args):
    start = perf_counter()
    fn(*args)
    return perf_counter() - start, 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=SRC)
    py = sys.executable
    d6 = os.path.join(ROOT, ".perfbench_out", "probe-d6.json")
    os.makedirs(os.path.dirname(d6), exist_ok=True)
    with open(d6, "w", encoding="utf-8") as fh:
        json.dump({"points": [{"x": str(i), "w": "1/6"} for i in range(1, 7)]}, fh)
    rng = random.Random(f"perfbench/probe/{args.seed}")
    p = Dist(gen.line_dist(rng, 300, 2))
    q = Dist(gen.line_dist(rng, 300, 3))
    comb = interval(Fraction(-1, 2), Fraction(1, 2), Step(Fraction(1, 4)))
    rows = [
        ("bare interpreter", *wall([py, "-c", "pass"], 5, env)),
        ("import finmeas", *wall([py, "-c", "import finmeas"], 5, env)),
        ("finmeas conv, two d6", *wall([py, "-m", "finmeas.cli", "conv", "--in", d6,
                                        "--in", d6], 5, env)),
        ("finmeas laws --cases 200", *wall([py, "-m", "finmeas.cli", "laws", "--cases",
                                            "200"], 1, env)),
        ("convolve, two 300-point", *clock(convolve, p, q)),
        ("convolution_power(interval(-1/2,1/2,1/4), 60)", *clock(convolution_power, comb, 60)),
    ]
    os.remove(d6)
    prof = cProfile.Profile()
    prof.enable()
    convolve(p, q)
    prof.disable()
    metrics = tracing.profile_metrics(pstats.Stats(prof))
    counts = {label: metrics[key] for label, key in COUNTS.items()}
    for name, seconds, n in rows:
        print(f"{name:48s} {seconds:10.4f} s  (n={n})")
    for name, n in counts.items():
        print(f"300-point convolve calls to {name:26s} {n:>10d}")
    print(json.dumps({"python": sys.version.split()[0], "nproc": os.cpu_count(),
                      "seed": args.seed,
                      "rows_s": {name: seconds for name, seconds, _ in rows},
                      "convolve_300_calls": counts}))


if __name__ == "__main__":
    main()
