"""finmeas benchmark: one closed-loop client, one process, four workloads.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
the separate traced run that gives the per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object. The exit
code is 1 when any output check fails and 2 when the program under test
is missing.
"""

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# p90 is reported only with at least ten samples beyond it, so the timed
# phase runs until both --seconds of request time and this many requests,
# and then on to the end of the workload's block, so that every run
# measures whole blocks of the same request mix.
MIN_SAMPLES = 112
MAX_TIMED_S = 90.0
SETUP_RUNS = 11
STARTUP_RUNS = 7
# The host's speed is not steady: on the shared 2-vCPU VM the benchmark was
# defined on, plain CPU-bound Python switched between two speeds about
# 1.6x apart, for seconds to minutes at a time, and whole runs moved by up
# to 60%. So each end-to-end time is rescaled to a reference host speed:
# every request is bracketed by calibration(), a fixed stdlib-only loop
# (each set-up probe by three on each side), and its time is multiplied by
# CAL_REFERENCE_S over the mean of those calibrations. Over 200 s of monad_mixtures this
# cut the spread of ops_per_s between 200-request windows from 11% to 1.4%
# (max/min 1.50 to 1.05). The table prints the measured values too.
CAL_REFERENCE_S = 0.0015

# Units of the printed-only rows; the declared metrics take theirs from
# BENCHMARK.json.
EXTRA_UNITS = {"error_rate": "ratio", "host_slowdown": "ratio"}
# The traced run replays this many whole blocks, the same requests on every
# run and every commit, so per-layer sums compare across commits.
TRACE_BLOCKS = {"line_calculus": 10, "monad_mixtures": 10, "law_suite": 1,
                "cli_requests": 4}

LINE_SPANS = ("line.convolve", "line.convolution_power", "line.derivative",
              "line.primitive", "line.interval", "line.moment", "dist.construct")
MONAD_SPANS = ("strength.tensor", "strength.tensor_iterated", "dist.flatten",
               "dist.pushforward", "pairing.pair", "pairing.fn_action",
               "pairing.eval_at_eta", "probability.marginals", "probability.condition",
               "probability.is_independent")
CLI_COMMANDS = ("conv", "tensor", "joint", "marginal", "pair", "cond", "moments",
                "derive", "primitive", "interval", "laws")
# The ten costliest laws at 200 cases when the benchmark was defined.
TOP_LAWS = ("leibniz_residual", "derivative_linear", "additivity", "derivative_switch",
            "integration", "convolution_monoid", "rv_sum", "derivative_convolution",
            "homothety_translation", "linearity_closure")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found next to perfbench/")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_library():
    init = os.path.join(SRC, "finmeas", "__init__.py")
    if not os.path.isfile(init):
        fail(f"no finmeas sources at {os.path.relpath(init, ROOT)}; "
             "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import finmeas
    import workloads

    if os.path.abspath(finmeas.__file__) != init:
        fail(f"imported finmeas from {finmeas.__file__}, not from this checkout")
    return workloads


def metadata(seed):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    lines = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    lines += sum(1 for _ in fh)
    return {"commit": commit, "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "seed": seed, "src_py_lines": lines}


def calibration():
    """Seconds that a fixed stdlib-only Fraction and dict loop takes now.
    It does not touch finmeas, so no change to the library moves it."""
    gc.disable()
    try:
        start = perf_counter()
        acc = {}
        for i in range(1, 200):
            acc[i % 17] = acc.get(i % 17, 0) + Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, i)
        return perf_counter() - start
    finally:
        gc.enable()


def replay(wl, tracer, indices=None, seconds=0.0, at_least=0, observe=None, calib=None,
           prof=None):
    """Closed loop over the request sequence; each output is checked after
    its request, outside the timed region.

    With `indices`, replays exactly those requests; otherwise runs until
    `seconds` of request time and `at_least` requests, stopping only at the
    end of a block. `observe(out)` sees each output, untimed. A `calib`
    list gets, per request, the mean of the calibration() just before and
    just after it. A `prof` profiler is on only while a request runs, so
    the checks stay out of it. Returns per-request (index, seconds) and the
    error messages."""
    lat, errors = [], []
    busy, i = 0.0, 0
    wall0 = perf_counter()
    before = calibration() if calib is not None else None
    while True:
        if indices is not None:
            if i >= len(indices):
                break
            idx = indices[i]
        elif (busy >= seconds and i >= at_least and i % wl.block == 0
              or perf_counter() - wall0 > MAX_TIMED_S):
            break
        else:
            idx = i
        req = wl.requests[idx % len(wl.requests)]
        tracer.request = idx
        start = perf_counter()
        if prof:
            prof.enable()
        try:
            out = tracer.call("request", wl.run, idx, req, tracer)
            err = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            if prof:
                prof.disable()
        took = perf_counter() - start
        if err is None and observe:
            observe(out)
        if err is None:
            try:
                err = wl.check(idx, req, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        lat.append((idx, took))
        busy += took
        if err:
            errors.append(f"request {idx}: {err}")
        if calib is not None:
            after = calibration()
            calib.append((before + after) / 2)
            before = after
        i += 1
    return lat, errors


def selfcheck(wl_cls, wl, seed, workdir):
    """Same seed gives byte-identical inputs, also in a fresh interpreter;
    another seed gives other ones."""
    other = wl_cls(seed + 1, workdir)
    fresh = subprocess.run([sys.executable, os.path.join(HERE, "ready.py"), wl.name,
                            str(seed), workdir], check=True, capture_output=True, text=True)
    errors = []
    if fresh.stdout.strip() != gen.digest(wl.requests):
        errors.append("generator: the same seed gave different inputs")
    if gen.digest(other.requests) == gen.digest(wl.requests):
        errors.append("generator: another seed gave the same inputs")
    extra = getattr(wl, "selfcheck", None)
    if extra and extra():
        errors.append(extra())
    return errors


def timed_subprocess(argv, runs, env=None, calib=None):
    """Wall times of `runs` runs of argv. A `calib` list gets, per run, the
    mean of three calibration() runs before it and three after it."""
    times = []
    for _ in range(runs):
        before = [calibration() for _ in range(3)] if calib is not None else None
        start = perf_counter()
        subprocess.run(argv, check=True, capture_output=True, env=env)
        times.append(perf_counter() - start)
        if calib is not None:
            calib.append(statistics.mean(before + [calibration() for _ in range(3)]))
    return times


def rescaled(times, calib):
    return [t * CAL_REFERENCE_S / c for t, c in zip(times, calib)]


def end_to_end(wl, workload, seed, seconds, declared, rows):
    cal, cal_setup = [], []
    lat, errors = replay(wl, tracing.Untraced(), seconds=seconds, at_least=MIN_SAMPLES,
                         calib=cal)
    who = resource.RUSAGE_CHILDREN if workload == "cli_requests" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    measured = [t for _, t in lat]
    times = rescaled(measured, cal)
    n = len(times)
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(1 for t in times if t > p90)
    ready = os.path.join(OUT, f"ready-{os.getpid()}")
    setups = timed_subprocess(
        [sys.executable, os.path.join(HERE, "ready.py"), workload, str(seed), ready],
        SETUP_RUNS, calib=cal_setup)
    shutil.rmtree(ready, ignore_errors=True)
    m_p90 = statistics.quantiles(measured, n=10)[8]
    rows += [
        ("setup_s", statistics.median(rescaled(setups, cal_setup)),
         f"median of {SETUP_RUNS} fresh interpreters; measured {statistics.median(setups):.4f}"),
        ("ops_per_s", n / sum(times),
         f"n={n} requests in {sum(measured):.2f} s; measured {n / sum(measured):.4f}"),
        ("latency_p50_ms", statistics.median(times) * 1e3,
         f"n={n}; measured {statistics.median(measured) * 1e3:.4f}"),
        ("latency_p90_ms", p90 * 1e3,
         f"n={n}, {beyond} beyond; measured {m_p90 * 1e3:.4f}"),
        ("peak_rss_mb", peak_mb, "largest child" if who == resource.RUSAGE_CHILDREN
         else "this process"),
        # printed, not in the JSON: it is 0 on every good run
        ("error_rate", len(errors) / n, f"{len(errors)} of {n}"),
        ("host_slowdown", statistics.mean(cal) / CAL_REFERENCE_S,
         f"mean calibration over CAL_REFERENCE_S, n={len(cal)}"),
    ]
    return n, errors


def traced(wl, workload, seed, seconds, declared, rows):
    """Per-layer metrics: untraced pass (A), spans (B), spans + cProfile (C).
    A, B and C run the same fixed requests, TRACE_BLOCKS whole blocks from
    the start; C over A is the tracing overhead. `seconds` is not used."""
    indices = list(range(TRACE_BLOCKS[workload] * wl.block))
    lat_a, errors = replay(wl, tracing.Untraced(), indices=indices)
    spans = tracing.Spans()
    points = []
    observe = (lambda out: points.append(wl.out_points(out))) if workload == "line_calculus" else None
    _, err_b = replay(wl, spans, indices=indices, observe=observe)
    if workload == "cli_requests":
        prof_dir = os.path.join(OUT, f"prof-{os.getpid()}")
        os.makedirs(prof_dir, exist_ok=True)
        paths, wall_c = [], 0.0
        for k, idx in enumerate(indices):
            path = os.path.join(prof_dir, f"{k}.prof")
            start = perf_counter()
            out = wl.run_profiled(idx, path)
            wall_c += perf_counter() - start
            err = wl.check(idx, wl.requests[idx % len(wl.requests)], out)
            if err:
                err_b.append(f"{idx}: {err}")
            paths.append(path)
        stats = tracing.load_stats(paths)
        shutil.rmtree(prof_dir, ignore_errors=True)
    else:
        prof = cProfile.Profile()
        lat_c, err_c = replay(wl, tracing.Spans(), indices=indices, prof=prof)
        err_b += err_c
        wall_c = sum(t for _, t in lat_c)
        stats = pstats.Stats(prof)
    wall_a = sum(t for _, t in lat_a)
    metrics = tracing.profile_metrics(stats)
    metrics["trace.overhead_ratio"] = wall_c / wall_a
    totals = spans.totals()
    for name in LINE_SPANS + MONAD_SPANS:
        if name in totals:
            metrics[f"{name}_s"] = totals[name]
    if workload == "line_calculus":
        metrics["line.out_points"] = sum(points)
        metrics["scalars.fraction_new_per_point"] = (
            metrics["scalars.fraction_new_calls"] / sum(points))
    if workload == "law_suite":
        law_totals = {k[len("laws."):]: v for k, v in totals.items() if k.startswith("laws.")}
        for law in TOP_LAWS:
            metrics[f"laws.{law}_s"] = law_totals.pop(law, 0.0)
        metrics["laws.other_s"] = sum(law_totals.values())
    samples = {}
    if workload == "cli_requests":
        env = wl.env
        bare = timed_subprocess([sys.executable, "-c", "pass"], STARTUP_RUNS, env)
        start = timed_subprocess([sys.executable, "-c", "import finmeas.cli"], STARTUP_RUNS, env)
        metrics["cli.bare_startup_ms"] = statistics.median(bare) * 1e3
        metrics["cli.startup_ms"] = statistics.median(start) * 1e3
        samples["cli.bare_startup_ms"] = samples["cli.startup_ms"] = STARTUP_RUNS
        by_cmd = {}
        for idx, t in lat_a:
            by_cmd.setdefault(wl.command(idx)[3], []).append(t)
        for cmd in CLI_COMMANDS:
            metrics[f"cli.{cmd}_ms"] = statistics.median(by_cmd[cmd]) * 1e3
            samples[f"cli.{cmd}_ms"] = len(by_cmd[cmd])
        metrics["jsonio.decode_s"], metrics["jsonio.encode_s"] = wl.replay_jsonio(indices)
    spans.write(os.path.join(OUT, f"trace-{workload}-{seed}.json"),
                dict(metadata(seed), workload=workload, requests=len(indices)))
    for name in declared:
        value = metrics.get(name, 0)
        note = f"n={samples.get(name, len(indices))}" if name in metrics else "not on this workload"
        rows.append((name, value, note))
    return len(indices), errors + [f"traced replay of {e}" for e in err_b]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    workloads = import_library()
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and the CLI children it waits on, so the
        # calibration runs where the measured work runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl_cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    meta = metadata(args.seed)
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in
                                    dict(workload=args.workload, trace=args.trace, **meta).items()))
    try:
        wl = wl_cls(args.seed, workdir)
        rows = []
        run = traced if args.trace else end_to_end
        attempted, errors = run(wl, args.workload, args.seed, args.seconds, declared, rows)
        errors += selfcheck(wl_cls, wl, args.seed, workdir + "-selfcheck")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-selfcheck", ignore_errors=True)
    units.update(EXTRA_UNITS)
    for name, value, note in rows:
        print(f"{name:34s} {value:>16.6g} {units[name]:12s} ({note})")
    for err in errors[:10]:
        print(f"# FAILED {err}")
    failed = sum(1 for e in errors if e.startswith("request "))
    correct = not errors
    values = {name: value for name, value, _ in rows}
    missing = [name for name in declared if name not in values]
    if missing:
        fail(f"BENCHMARK.json declares metrics this runner does not measure: {missing}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in declared}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
