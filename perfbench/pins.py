"""Regenerate pins.json: the default seed's law verdicts and CLI digests.

Usage (from the repository root): python3 perfbench/pins.py

The law verdicts are (passed, cases_run) per registered law at 200 cases.
The CLI pins are the SHA-256 of stdout and the exit code of every
cli_requests request on the default seed. A pin is written only after
the output has passed the reference check, so pins never record a wrong
answer; the law suite itself is the reference for law verdicts.
"""

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from finmeas.laws import LAWS, GenConfig, run_law  # noqa: E402
from tracing import Untraced  # noqa: E402


def main():
    # the workloads read pins.json; regenerate from a clean slate
    workloads.load_pins = lambda: {"laws": {}, "cli": []}
    cfg = GenConfig(seed=workloads.DEFAULT_SEED, cases=workloads.LAW_CASES)
    laws = {}
    for name in LAWS:
        report = run_law(name, cfg)
        if not report.passed:
            sys.exit(f"law {name} fails on the default seed; not pinning")
        laws[name] = [report.passed, report.cases_run]
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_out", "pins")
    try:
        cli = workloads.CliRequests(workloads.DEFAULT_SEED, workdir)
        cli.law_pins = laws
        pins = []
        for i, req in enumerate(cli.requests):
            out = cli.run(i, req, Untraced())
            err = cli.check(i, req, out)
            if err:
                sys.exit(f"request {i}: {err}; not pinning")
            pins.append([hashlib.sha256(out[1]).hexdigest(), out[0]])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {workloads.DEFAULT_SEED},\n"laws": {{\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in laws.items()))
        fh.write('},\n"cli": [\n')
        fh.write(",\n".join(json.dumps(pin) for pin in pins))
        fh.write("]}\n")
    print(f"pinned {len(laws)} law verdicts and {len(pins)} CLI outputs")


if __name__ == "__main__":
    main()
