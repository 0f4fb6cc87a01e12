import hashlib
import json

import pytest

from finmeas.cli import main

D6 = json.dumps(
    {"points": [{"x": str(i), "w": "1/6"} for i in range(1, 7)]}
)


@pytest.fixture
def d6_file(tmp_path):
    path = tmp_path / "d6.json"
    path.write_text(D6)
    return str(path)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_conv_two_dice(capsys, d6_file):
    code, out, err = run_cli(capsys, ["conv", "--in", d6_file, "--in", d6_file])
    assert code == 0
    payload = json.loads(out)
    by_point = {e["x"]: e["w"] for e in payload["points"]}
    assert by_point["7"] == "1/6"
    assert by_point["2"] == "1/36"


def test_interval_golden_bytes(capsys):
    code, out, err = run_cli(capsys, ["interval", "0", "1", "--step", "1/2"])
    assert code == 0
    assert out == '{"points":[{"x":"0","w":"1/2"},{"x":"1/2","w":"1/2"}]}\n'


def test_output_is_byte_deterministic(capsys, d6_file):
    runs = [
        run_cli(capsys, ["conv", "--in", d6_file, "--in", d6_file])[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_stdin_input(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["derive", "--in", "-", "--step", "1"],
        stdin='{"points":[{"x":"0","w":"1"}]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out) == {
        "points": [{"x": "0", "w": "-1"}, {"x": "1", "w": "1"}]
    }


def test_moments_payload(capsys, d6_file):
    code, out, _ = run_cli(capsys, ["moments", "--in", d6_file, "--order", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "total": "1",
        "expectation": "7/2",
        "moments": ["1", "7/2", "91/6"],
    }


def test_pair_subcommand(capsys, tmp_path, d6_file):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({str(i): "1" if i >= 5 else "0" for i in range(1, 7)}))
    code, out, _ = run_cli(capsys, ["pair", "--in", d6_file, "--fn", str(fn)])
    assert code == 0
    assert json.loads(out) == {"value": "1/3"}


def test_cond_subcommand(capsys, tmp_path, d6_file):
    event = tmp_path / "event.json"
    event.write_text(json.dumps({str(i): "1" if i % 2 == 0 else "0" for i in range(1, 7)}))
    code, out, _ = run_cli(capsys, ["cond", "--in", d6_file, "--event", str(event)])
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == [
        {"x": "2", "w": "1/3"},
        {"x": "4", "w": "1/3"},
        {"x": "6", "w": "1/3"},
    ]


def test_cond_rejects_non_event_table(capsys, tmp_path, d6_file):
    event = tmp_path / "event.json"
    event.write_text(json.dumps({str(i): "1/2" for i in range(1, 7)}))
    code, out, err = run_cli(capsys, ["cond", "--in", d6_file, "--event", str(event)])
    assert code == 1
    assert "0/1" in err


def test_cond_null_event_exits_one(capsys, tmp_path, d6_file):
    event = tmp_path / "event.json"
    event.write_text(json.dumps({str(i): "0" for i in range(1, 7)}))
    code, _, err = run_cli(capsys, ["cond", "--in", d6_file, "--event", str(event)])
    assert code == 1
    assert "null event" in err


def test_joint_and_marginal(capsys, tmp_path):
    coin = tmp_path / "coin.json"
    coin.write_text(json.dumps({"points": [{"x": "0", "w": "1/2"}, {"x": "1", "w": "1/2"}]}))
    code, out, _ = run_cli(capsys, ["joint", "--in", str(coin), "--in", str(coin)])
    assert code == 0
    joint_path = tmp_path / "joint.json"
    joint_path.write_text(out)
    code, out, _ = run_cli(capsys, ["marginal", "--in", str(joint_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["left"] == json.loads(coin.read_text())
    assert payload["right"] == json.loads(coin.read_text())


def test_joint_of_inputs_whose_total_is_not_one_exits_one(capsys, tmp_path):
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"points": [{"x": "0", "w": "1/2"}]}))
    code, out, err = run_cli(capsys, ["joint", "--in", str(half), "--in", str(half)])
    assert (code, out) == (1, "")
    assert err == "error: joint needs total-1 inputs\n"


def test_primitive_no_solution_exits_one(capsys, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"points": [{"x": "0", "w": "-1"}, {"x": "1/3", "w": "1"}]}))
    code, _, err = run_cli(capsys, ["primitive", "--in", str(q), "--step", "1/2"])
    assert code == 1
    assert "orbit" in err


def test_primitive_round_trip(capsys, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"points": [{"x": "0", "w": "-1"}, {"x": "1", "w": "1"}]}))
    code, out, _ = run_cli(capsys, ["primitive", "--in", str(q), "--step", "1/2"])
    assert code == 0
    assert json.loads(out) == {
        "points": [{"x": "0", "w": "1/2"}, {"x": "1/2", "w": "1/2"}]
    }


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--in", "nope.json"])  # missing --step
    assert exc.value.code == 2


def test_unknown_law_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--law", "bogus"])
    assert exc.value.code == 2


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, ["conv", "--in", "a.json", "--in", "b.json"])
    assert code == 1
    assert err.startswith("error:")


def test_malformed_json_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["moments", "--in", str(bad)])
    assert code == 1


def test_rationals_with_a_trailing_newline_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": [{"x": "1\n", "w": "1/2\n"}]}))
    code, out, err = run_cli(capsys, ["moments", "--in", str(bad)])
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_laws_subcommand_all_pass(capsys):
    code, out, _ = run_cli(capsys, ["laws", "--seed", "42", "--cases", "5"])
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)
    assert len(reports) > 50


def test_laws_output_bytes_are_pinned(capsys):
    # sha256 of `finmeas laws --seed 0 --cases 20` stdout; a change that
    # keeps every law and every draw keeps these bytes
    code, out, _ = run_cli(capsys, ["laws", "--seed", "0", "--cases", "20"])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "f0f1040ef9a8159c67b360e64a7eb5c76ce2ec6aa06ab3b3737bab7344fb1e50"


def test_laws_selection(capsys):
    code, out, _ = run_cli(
        capsys, ["laws", "--seed", "1", "--cases", "5", "--law", "fubini"]
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["law"] == "fubini"


def test_failing_law_exits_one(capsys, monkeypatch):
    from finmeas import Dist, laws

    monkeypatch.setattr(laws, "tensor_iterated", lambda p, q: Dist.empty(p.semiring))
    code, out, _ = run_cli(capsys, ["laws", "--law", "fubini", "--cases", "5"])
    assert code == 1
    assert '"passed":false' in out


def test_table_output_mode(capsys, d6_file):
    code, out, _ = run_cli(capsys, ["moments", "--in", d6_file, "--table"])
    assert code == 0
    assert "expectation: 7/2" in out
    code, out, _ = run_cli(capsys, ["interval", "0", "1", "--step", "1/2", "--table"])
    assert code == 0
    assert out == "0\t1/2\n1/2\t1/2\n"


def test_cli_agrees_with_library(capsys, d6_file):
    from finmeas import convolve
    from finmeas.jsonio import dist_from_json, dist_to_json

    code, out, _ = run_cli(capsys, ["conv", "--in", d6_file, "--in", d6_file])
    d6 = dist_from_json(json.loads(D6))
    assert json.loads(out) == dist_to_json(convolve(d6, d6))


def test_nonpositive_cases_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--cases", "0"])
    assert exc.value.code == 2


def test_negative_step(capsys):
    code, out, err = run_cli(capsys, ["interval", "0", "1", "--step", "-1/2"])
    assert code == 0, err
    assert out == '{"points":[{"x":"1/2","w":"1/2"},{"x":"1","w":"1/2"}]}\n'


def test_negative_rational_positional(capsys):
    code, out, err = run_cli(capsys, ["interval", "-1/2", "1/2", "--step", "1/4"])
    assert code == 0, err
    assert [e["x"] for e in json.loads(out)["points"]] == ["-1/2", "-1/4", "0", "1/4"]


def test_negative_moment_order_is_usage_error(capsys, d6_file):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--in", d6_file, "--order", "-3"])
    assert exc.value.code == 2
    assert "--order: must be at least 0" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["moments", "--in", d6_file, "--order", "0"])
    assert code == 0
    assert json.loads(out)["moments"] == ["1"]


def test_deeply_nested_point_exits_one(capsys, tmp_path):
    point = '"1"'
    for _ in range(3000):
        point = '{"pair":[%s,"0"]}' % point
    deep = tmp_path / "deep.json"
    deep.write_text('{"points":[{"x":%s,"w":"1"}]}' % point)
    code, _, err = run_cli(capsys, ["tensor", "--in", str(deep), "--in", str(deep)])
    assert code == 1
    assert err.startswith("error:") and "nested too deeply" in err


def test_cli_import_skips_law_suite_and_dataclasses(tmp_path, d6_file):
    import os
    import subprocess
    import sys

    import finmeas

    script = (
        "import sys\n"
        "import finmeas.cli\n"
        "def loaded(names=('finmeas.laws', 'dataclasses', 'inspect')):\n"
        "    return [m for m in names if m in sys.modules]\n"
        "after_import = loaded()\n"
        f"code = finmeas.cli.main(['conv', '--in', {d6_file!r}, '--in', {d6_file!r}])\n"
        "after_conv = loaded()\n"
        "laws = finmeas.cli.main(['laws', '--law', 'fubini', '--cases', '1'])\n"
        "print(code, after_import, after_conv, laws, loaded(('dataclasses', 'inspect')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(finmeas.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [] [] 0 []"


def test_law_suite_names_resolve_on_first_access():
    import finmeas
    from finmeas import GenConfig, run_suite
    from finmeas.laws import GenConfig as suite_config, run_suite as suite_run

    assert GenConfig is suite_config and run_suite is suite_run
    assert {"GenConfig", "LawReport", "run_law", "run_suite"} <= set(dir(finmeas))
    with pytest.raises(AttributeError):
        finmeas.no_such_name


# (subcommand, positionals, option strings, required options), in the
# order `finmeas --help` lists the subcommands; -h/--help left out
CLI_SURFACE = [
    ("conv", [], ["--in", "--json", "--table"], []),
    ("tensor", [], ["--in", "--json", "--table"], []),
    ("marginal", [], ["--in", "--json", "--table"], []),
    ("joint", [], ["--in", "--json", "--table"], []),
    ("pair", [], ["--fn", "--in", "--json", "--table"], ["--fn"]),
    ("moments", [], ["--in", "--json", "--order", "--table"], []),
    ("cond", [], ["--event", "--in", "--json", "--table"], ["--event"]),
    ("derive", [], ["--in", "--json", "--step", "--table"], ["--step"]),
    ("primitive", [], ["--in", "--json", "--step", "--table"], ["--step"]),
    ("interval", ["a", "b"], ["--json", "--step", "--table"], ["--step"]),
    ("laws", [], ["--cases", "--json", "--law", "--seed", "--table"], []),
]


def test_cli_surface_is_pinned():
    import argparse

    from finmeas.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = []
    for name, subparser in sub.choices.items():
        actions = [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]
        surface.append((
            name,
            [a.dest for a in actions if not a.option_strings],
            sorted(s for a in actions for s in a.option_strings),
            sorted(s for a in actions if a.required for s in a.option_strings),
        ))
    assert surface == CLI_SURFACE
    for name, *_ in CLI_SURFACE:
        # --json and --table exclude each other on every subcommand
        argv = [name, "--json", "--table"] + (["0", "1"] if name == "interval" else [])
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


def test_table_output_keeps_one_row_per_point(capsys, tmp_path):
    joint = {"points": [
        {"x": {"pair": ["a\tb", "x"]}, "w": "1/2"},
        {"x": {"pair": ["c\n1", "x"]}, "w": "1/4"},
        {"x": {"pair": ['q"', "x"]}, "w": "1/8"},
        {"x": {"pair": ["é", "x"]}, "w": "1/8"},
    ]}
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(joint))
    code, out, err = run_cli(capsys, ["marginal", "--in", str(path), "--table"])
    assert code == 0, err
    assert out == (
        "left:\n"
        '  "a\\tb"\t1/2\n'
        '  "c\\n1"\t1/4\n'
        '  "q\\""\t1/8\n'
        "  é\t1/8\n"
        "right:\n"
        "  x\t1\n"
    )
    for line in out.splitlines():
        assert line.endswith(":") or line.count("\t") == 1


@pytest.mark.parametrize("argv, message", [
    (["conv"], "expected 2 --in argument(s), got 0"),
    (["moments", "--in", "a.json", "--in", "b.json"], "expected 1 --in argument(s), got 2"),
    (["conv", "--in", "-", "--in", "-"], "stdin ('-') may be used for at most one input"),
])
def test_wrong_in_count_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: finmeas " + argv[0])
    assert err.endswith(f"error: {message}\n")


def test_oversized_rational_exits_one(capsys, tmp_path):
    for points in ([{"x": "1" * 5000, "w": "1"}], [{"x": "0", "w": "1/" + "1" * 5000}]):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"points": points}))
        code, out, err = run_cli(capsys, ["moments", "--in", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "digits" in err


def test_oversized_output_exits_one(capsys, tmp_path):
    # each 2,200-digit weight decodes; their 4,399-digit product cannot be written
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"points": [{"x": "0", "w": "1" * 2200}]}))
    code, out, err = run_cli(capsys, ["conv", "--in", str(path), "--in", str(path)])
    assert code == 1 and out == ""
    assert err == "error: rational with too many digits to write: 4399 digits\n"
    assert "set_int_max_str_digits" not in err
