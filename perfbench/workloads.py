"""The four workloads: how a request runs, and how its output is checked.

Each workload holds its generated requests, in blocks of `block` requests
whose mix is the same for every seed. `run(i, req, tracer)` does one
request's user work through `tracer.call`; `check(i, req, out)` compares
the output against `reference.py` (and, on the default seed, against
pinned digests) and returns an error string or None. Checks run between
requests, outside the timed region.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from finmeas import (BOOLEANS, RATIONALS, Dist, FiniteSpace, FunTable, Left, Right,
                     Step, TestFn, condition, convolution_power, convolve, derivative,
                     eval_at_eta, fn_action, flatten, interval, is_independent,
                     marginals, moment, pair, primitive, pushforward, run_law,
                     semantics, tensor, tensor_iterated)
from finmeas.jsonio import dist_from_json, dist_to_json, table_from_json
from finmeas.laws import LAWS, GenConfig

import gen
import reference as ref

DEFAULT_SEED = 0
LAW_CASES = 200
CLI_LAW_CASES = 20
HERE = os.path.dirname(os.path.abspath(__file__))


def load_pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def as_dict(p):
    return dict(p.items())


def plain(x):
    """A library point in the plain encoding of gen.py."""
    if isinstance(x, Left):
        return ("L", plain(x.value))
    if isinstance(x, Right):
        return ("R", plain(x.value))
    if isinstance(x, Dist):
        return ("D", tuple((plain(y), w) for y, w in x.items()))
    if isinstance(x, tuple):
        return (plain(x[0]), plain(x[1]))
    return x


def plain_dict(p):
    return {plain(x): w for x, w in p.items()}


def _point(x, sr):
    """A plain point as a library point."""
    if isinstance(x, tuple):
        if x[0] == "L":
            return Left(_point(x[1], sr))
        if x[0] == "R":
            return Right(_point(x[1], sr))
        if x[0] == "D":
            return Dist(dict(x[1]), sr)
        return (_point(x[0], sr), _point(x[1], sr))
    return x


def _first(expected, got, what):
    return None if expected == got else f"{what} differs from the reference"


class LineCalculus:
    name = "line_calculus"
    block = len(gen.LINE_BLOCK)

    def __init__(self, seed, workdir=None):
        self.requests = gen.line_requests(seed)

    def run(self, i, req, t):
        p = t.call("dist.construct", Dist, req["p"])
        q = t.call("dist.construct", Dist, req["q"])
        conv = t.call("line.convolve", convolve, p, q)
        step = Step(req["step"])
        dp = t.call("line.derivative", derivative, p, step)
        back = t.call("line.primitive", primitive, dp, step)
        moments = [t.call("line.moment", moment, conv, n) for n in range(5)]
        a, b, d = req["interval"]
        comb = t.call("line.interval", interval, a, b, Step(d))
        base = t.call("dist.construct", Dist, req["comb"])
        powered = t.call("line.convolution_power", convolution_power, base, req["k"])
        return conv, dp, back, moments, comb, powered

    def check(self, i, req, out):
        conv, dp, back, moments, comb, powered = out
        ref_conv = ref.convolve(req["p"], req["q"])
        return (_first(ref_conv, as_dict(conv), "convolve")
                or _first(ref.derivative(req["p"], req["step"]), as_dict(dp), "derivative")
                or _first(req["p"], as_dict(back), "primitive(P')")
                or _first([ref.moment(ref_conv, n) for n in range(5)], moments, "moments")
                or _first(ref.comb(*req["interval"]), as_dict(comb), "interval")
                or _first(ref.power(req["comb"], req["k"]), as_dict(powered),
                          "convolution_power"))

    @staticmethod
    def out_points(out):
        conv, dp, back, moments, comb, powered = out
        return len(conv) + len(dp) + len(back) + len(comb) + len(powered)


def _build_q(spec, sr):
    return Dist({_point(x, sr): w for x, w in spec.items()}, sr)


def _build_mixture(spec, sr):
    return Dist([(Dist(inner, sr), c) for inner, c in spec], sr)


def _build_kernel(spec):
    return {x: Dist({_point(y, RATIONALS): w for y, w in k.items()})
            for x, k in spec.items()}


def _at_eta(p):
    return eval_at_eta(semantics(p))


class MonadMixtures:
    name = "monad_mixtures"
    block = len(gen.MONAD_BLOCK)

    def __init__(self, seed, workdir=None):
        self.requests = gen.monad_requests(seed)

    def run(self, i, req, t):
        sr = BOOLEANS if req["boolean"] else RATIONALS
        p = t.call("dist.construct", Dist, req["p"], sr)
        q = t.call("dist.construct", _build_q, req["q"], sr)
        mixture = t.call("dist.construct", _build_mixture, req["mixture"], sr)
        out = {"tensor": t.call("strength.tensor", tensor, p, q),
               "tensor_iterated": t.call("strength.tensor_iterated", tensor_iterated, p, q),
               "flatten": t.call("dist.flatten", flatten, mixture)}
        left = req["left"]
        out["tagged"] = t.call(
            "dist.pushforward", pushforward,
            lambda xy: Left(xy[0]) if left[xy[0]] else Right(xy[1]), out["tensor"])
        if req["boolean"]:
            return out
        space = FiniteSpace(p.support())
        kernel = t.call("dist.construct", _build_kernel, req["kernel"])
        out["marginals"] = t.call("probability.marginals", marginals, out["tensor"])
        out["independent"] = t.call("probability.is_independent", is_independent,
                                    out["tensor"])
        out["fn_action"] = t.call("pairing.fn_action", fn_action, p,
                                  FunTable(space, req["table"]))
        out["pair"] = t.call("pairing.pair", pair, p, TestFn.dist_valued(kernel.__getitem__))
        out["eta"] = t.call("pairing.eval_at_eta", _at_eta, p)
        out["condition"] = t.call("probability.condition", condition, p,
                                  FunTable(space, req["event"]))
        return out

    def check(self, i, req, out):
        b = req["boolean"]
        prod = ref.product(req["p"], req["q"], b)
        left = req["left"]
        tagged = ref.image(lambda xy: ("L", xy[0]) if left[xy[0]] else ("R", xy[1]), prod, b)
        err = (_first(prod, plain_dict(out["tensor"]), "tensor")
               or _first(prod, plain_dict(out["tensor_iterated"]), "tensor_iterated")
               or _first(ref.mix(req["mixture"], b), plain_dict(out["flatten"]), "flatten")
               or _first(tagged, plain_dict(out["tagged"]), "pushforward"))
        if err or b:
            return err
        m1, m2 = out["marginals"]
        kernel_mix = ref.mix([(req["kernel"][x], w) for x, w in req["p"].items()])
        return (_first(ref.marginals(prod), (plain_dict(m1), plain_dict(m2)), "marginals")
                or _first(ref.is_independent(prod), out["independent"], "is_independent")
                or _first(ref.reweight(req["p"], req["table"]), as_dict(out["fn_action"]),
                          "fn_action")
                or _first(kernel_mix, plain_dict(out["pair"]), "pair")
                or _first(req["p"], as_dict(out["eta"]), "eval_at_eta")
                or _first(ref.condition(req["p"], req["event"]), as_dict(out["condition"]),
                          "condition"))


class LawSuite:
    name = "law_suite"

    def __init__(self, seed, workdir=None):
        self.seed = seed
        self.requests = gen.law_requests(seed, list(LAWS))
        self.block = len(LAWS)
        self.pins = load_pins()["laws"]

    def run(self, i, req, t):
        seed, name = req
        return t.call("laws." + name, run_law, name, GenConfig(seed=seed, cases=LAW_CASES))

    def expected_cases(self, name):
        if name in self.pins:
            return self.pins[name][1]
        return 1 if LAWS[name].deterministic else LAW_CASES

    def check(self, i, req, report):
        seed, name = req
        verdict = (report.law, report.passed, report.cases_run)
        return _first((name, True, self.expected_cases(name)), verdict, f"law {name} verdict")

    def selfcheck(self):
        if self.seed == DEFAULT_SEED and list(LAWS) != list(self.pins):
            return "the registered laws differ from the pinned law list"
        return None


CLI_NAMES = {"conv_d6": "conv", "conv_60": "conv", "primitive_unbalanced": "primitive"}


class CliRequests:
    name = "cli_requests"

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.requests = gen.cli_requests(seed, list(LAWS))
        self.block = len(gen.CLI_COMMANDS)
        pins = load_pins()
        self.law_pins = pins["laws"]
        self.pins = pins["cli"] if seed == DEFAULT_SEED else None
        src = os.path.join(os.path.dirname(HERE), "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.argvs = [self._write(i, req) for i, req in enumerate(self.requests)]

    def _payloads(self, req):
        """Files to write for one request: flag -> JSON payload."""
        files = [("--in", ref.wire_dist(p)) for p in req["inputs"]]
        if req["cmd"] == "marginal":
            files.append(("--in", ref.wire_dist(ref.product(*req["joint_of"]))))
        if req["cmd"] == "primitive":
            files.append(("--in", ref.wire_dist(
                ref.derivative(req["antiderivative"], req["step"]))))
        files.extend((flag, ref.wire_table(t)) for flag, t in req["tables"].items())
        return files

    def _write(self, i, req):
        os.makedirs(self.workdir, exist_ok=True)
        argv = [CLI_NAMES.get(req["cmd"], req["cmd"])]
        for k, (flag, payload) in enumerate(self._payloads(req)):
            path = os.path.join(self.workdir, f"r{i}_{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, separators=(",", ":")))
            argv += [flag, path]
        if "step" in req:
            # "=" keeps argparse from reading a negative step as an option
            argv.append("--step=" + ref.rational(req["step"]))
        return argv + req["args"]

    def command(self, i):
        return [sys.executable, "-m", "finmeas.cli"] + self.argvs[i % len(self.argvs)]

    def _spawn(self, argv):
        proc = subprocess.run(argv, capture_output=True, env=self.env)
        return proc.returncode, proc.stdout

    def run(self, i, req, t):
        argv = self.command(i)
        return t.call("cli." + argv[3], self._spawn, argv)

    def run_profiled(self, i, prof_path):
        argv = [sys.executable, os.path.join(HERE, "profiled_cli.py"), prof_path]
        return self._spawn(argv + self.argvs[i % len(self.argvs)])

    def expected(self, req):
        """(exit code, stdout bytes) by the reference; stdout None for laws."""
        cmd = req["cmd"]
        ins = req["inputs"]
        if cmd in ("conv_d6", "conv_60"):
            return 0, ref.stdout_bytes(ref.wire_dist(ref.convolve(*ins)))
        if cmd in ("tensor", "joint"):
            return 0, ref.stdout_bytes(ref.wire_dist(ref.product(*ins)))
        if cmd == "marginal":
            m1, m2 = ref.marginals(ref.product(*req["joint_of"]))
            return 0, ref.stdout_bytes({"left": ref.wire_dist(m1), "right": ref.wire_dist(m2)})
        if cmd == "pair":
            fn = req["tables"]["--fn"]
            value = sum((w * fn[x] for x, w in ins[0].items()), Fraction(0))
            return 0, ref.stdout_bytes({"value": ref.rational(value)})
        if cmd == "cond":
            return 0, ref.stdout_bytes(
                ref.wire_dist(ref.condition(ins[0], req["tables"]["--event"])))
        if cmd == "moments":
            p = ins[0]
            return 0, ref.stdout_bytes({
                "total": ref.rational(ref.moment(p, 0)),
                "expectation": ref.rational(ref.moment(p, 1)),
                "moments": [ref.rational(ref.moment(p, n)) for n in range(5)]})
        if cmd == "derive":
            return 0, ref.stdout_bytes(ref.wire_dist(ref.derivative(ins[0], req["step"])))
        if cmd == "primitive":
            return 0, ref.stdout_bytes(ref.wire_dist(req["antiderivative"]))
        if cmd == "primitive_unbalanced":
            return 1, b""
        if cmd == "interval":
            return 0, ref.stdout_bytes(
                ref.wire_dist(ref.comb(Fraction(0), Fraction(300), Fraction(1, 3))))
        return 0, None

    def check(self, i, req, out):
        code, stdout = out
        want_code, want = self.expected(req)
        if code != want_code:
            return f"{req['cmd']} exited {code}, expected {want_code}"
        if want is None:
            cases = 1 if self.law_pins.get(req["law"], [0, 0])[1] == 1 else CLI_LAW_CASES
            got = [(r["law"], r["passed"], r["cases_run"]) for r in json.loads(stdout)]
            err = _first([(req["law"], True, cases)], got, "laws verdict")
        else:
            err = _first(want, stdout, f"{req['cmd']} stdout")
        if err is None and self.pins:
            pin = [hashlib.sha256(stdout).hexdigest(), code]
            err = _first(self.pins[i % len(self.pins)], pin, f"request {i} pinned digest")
        return err

    def replay_jsonio(self, indices):
        """In-process decode of each request's payloads and encode of its
        expected output; returns (decode seconds, encode seconds)."""
        dec = enc = 0.0
        for i in indices:
            req = self.requests[i % len(self.requests)]
            for flag, payload in self._payloads(req):
                fn = table_from_json if flag in ("--fn", "--event") else dist_from_json
                s = perf_counter()
                fn(payload)
                dec += perf_counter() - s
            code, want = self.expected(req)
            if not want:
                continue
            obj = json.loads(want)
            dists = [obj[k] for k in ("left", "right")] if "left" in obj else (
                [obj] if "points" in obj else [])
            for d in dists:
                p = dist_from_json(d)
                s = perf_counter()
                dist_to_json(p)
                enc += perf_counter() - s
        return dec, enc


WORKLOADS = {w.name: w for w in (LineCalculus, MonadMixtures, LawSuite, CliRequests)}
