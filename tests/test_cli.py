from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import relcalc
from relcalc.cli import _build_parser, main
from relcalc.engine import SearchConfig, check_proof_data, proof_to_json, prove_equal
from relcalc.suites import SUITE_IDS
from relcalc.systems import SYSTEMS
from relcalc.terms import parse_equation


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_parse(capsys):
    rc, out, err = run(capsys, "parse", "[x (y z)]")
    assert (rc, out, err) == (0, "x y z\n", "")


def test_parse_error_is_exit_1(capsys):
    rc, out, err = run(capsys, "parse", "(x")
    assert rc == 1
    assert out == ""
    assert err.startswith("parse error:")


def test_prove_text_output(capsys):
    rc, out, err = run(capsys, "prove", "--system", "dit", "x y = y")
    assert rc == 0
    assert out.splitlines() == [
        "system: DIT",
        "goal: x y = y",
        "proved in 1 steps (0 nodes expanded)",
        "  x y",
        "  = y   [ax6 lr @0]",
    ]


def test_prove_with_hypothesis(capsys):
    rc, out, _ = run(capsys, "prove", "--system", "dit+",
                     "--hyp", "y = z", "y = y y y")
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "hyp1: y = z"
    assert lines[2] == "goal: y = y y y"
    assert lines[-1].endswith("[hyp1 rl @0]")


def test_prove_not_found(capsys):
    rc, out, err = run(capsys, "prove", "--system", "dit", "z x = z")
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [
        "no proof found within bounds",
        "nodes expanded: 4",
        "bound hit: none (reachable words exhausted)",
    ]


def test_prove_bounds_flags(capsys):
    rc, _, err = run(capsys, "prove", "--system", "dit",
                     "--max-depth", "1", "--max-nodes", "50", "x = y y y y")
    assert rc == 2
    assert "bound hit: max_depth" in err


@pytest.mark.parametrize("flag", ["--max-nodes", "--max-depth", "--max-len"])
def test_prove_bounds_below_one_are_exit_1(flag, capsys):
    rc, out, err = run(capsys, "prove", "--system", "dit", flag, "0", "x y = y")
    name = {"--max-nodes": "max_nodes", "--max-depth": "max_depth",
            "--max-len": "max_word_len"}[flag]
    assert (rc, out, err) == (1, "", f"error: {name} must be at least 1, got 0\n")


def test_prove_json_round_trip(capsys):
    rc, out, _ = run(capsys, "prove", "--system", "dits",
                     "--format", "json", "x x = x")
    assert rc == 0
    assert check_proof_data(json.loads(out)).ok


def test_prove_rejects_marks_outside_dgss(capsys):
    rc, _, err = run(capsys, "prove", "--system", "dit", "a' = a")
    assert rc == 1
    assert err.startswith("error:")


def test_check_ok_and_rejected(tmp_path, capsys):
    p = prove_equal(parse_equation("x y = y"), "dit")
    good = tmp_path / "good.json"
    good.write_text(proof_to_json(p), encoding="utf-8")
    rc, out, _ = run(capsys, "check", str(good))
    assert (rc, out) == (0, "ok\n")

    data = json.loads(proof_to_json(p))
    data["steps"][0]["rule"] = "ax7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc, out, _ = run(capsys, "check", str(bad))
    assert rc == 2
    assert out.startswith("rejected at step 0:")

    reverse = tmp_path / "reverse.json"
    reverse.write_text(json.dumps({
        "system": "DIT", "hypotheses": [], "goal": "y = x y",
        "steps": [{"rule": "ax6", "dir": "rl", "pos": 1, "result": "x y"}]}),
        encoding="utf-8")
    rc, out, _ = run(capsys, "check", str(reverse))
    assert (rc, out) == (
        2, "rejected at step 0: reverse step does not replay: ax6: no lr match at 1\n")


def test_check_boolean_position_is_exit_1(tmp_path, capsys):
    data = json.loads(proof_to_json(prove_equal(parse_equation("x = z"), "dit+",
                                                [parse_equation("x y = z y")])))
    step = next(s for s in data["steps"] if s["pos"] == 1)
    step["pos"] = True
    script = tmp_path / "bool.json"
    script.write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = run(capsys, "check", str(script))
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and "wrong shape" in err


def test_check_non_string_hypothesis_is_exit_1(tmp_path, capsys):
    data = json.loads(proof_to_json(prove_equal(parse_equation("x y = y"), "dit")))
    script = tmp_path / "hyp.json"
    script.write_text(json.dumps({**data, "hypotheses": [1]}), encoding="utf-8")
    rc, out, err = run(capsys, "check", str(script))
    assert (rc, out) == (1, "")
    assert err == "error: proof script field has the wrong shape\n"
    assert "Traceback" not in err


def test_check_unreadable_inputs(tmp_path, capsys):
    rc, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert rc == 1 and "cannot read" in err
    junk = tmp_path / "junk.json"
    junk.write_text("{not json", encoding="utf-8")
    rc, _, err = run(capsys, "check", str(junk))
    assert rc == 1 and "not valid JSON" in err
    junk.write_text("[" * 100_000, encoding="utf-8")    # past json's recursion limit
    rc, out, err = run(capsys, "check", str(junk))
    assert (rc, out) == (1, "") and err.startswith("not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_check_reads_a_script_that_is_not_utf8_as_not_json(tmp_path, capsys):
    # it reached main's catch-all as "error: 'utf-8' codec can't decode ..."
    junk = tmp_path / "junk.json"
    junk.write_bytes(b"\xff\xfe")
    rc, out, err = run(capsys, "check", str(junk))
    assert (rc, out) == (1, "")
    assert err == ("not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


def test_suite_command(capsys):
    rc, out, _ = run(capsys, "suite", "dits")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "suite dits"
    assert lines[-1] == "3/3 proved"


# Byte-exact output of the proof suites: each line carries the step and
# node counts of one search, so any change to search order shows here.
SUITE_OUTPUT = {
    "er": """\
suite er
  ok   er1: x x = y x |- x = y  [7 steps, 8 nodes]
  ok   er2: x x = z x |- x = z  [7 steps, 11 nodes]
  ok   er3: y x = z x |- y = z  [7 steps, 11 nodes]
  ok   er4: x y = y y |- x = y  [5 steps, 5 nodes]
  ok   er5: x y = z y |- x = z  [5 steps, 5 nodes]
  ok   er6: y y = z y |- y = z  [5 steps, 5 nodes]
  ok   er7: x z = y z |- x = y  [9 steps, 15 nodes]
  ok   er8: x z = z z |- x = z  [9 steps, 19 nodes]
  ok   er9: y z = z z |- y = z  [9 steps, 21 nodes]
9/9 proved
""",
    "pr01": """\
suite pr01
  ok   pr01-1: x x = x y |- x = y  [7 steps, 9 nodes]
  ok   pr01-2: x x = x z |- x = z  [7 steps, 8 nodes]
  ok   pr01-3: x y = x z |- y = z  [7 steps, 12 nodes]
  ok   pr01-4: y x = y y |- x = y  [9 steps, 15 nodes]
  ok   pr01-5: y x = y z |- x = z  [9 steps, 15 nodes]
  ok   pr01-6: y y = y z |- y = z  [9 steps, 23 nodes]
  ok   pr01-7: z x = z y |- x = y  [5 steps, 5 nodes]
  ok   pr01-8: z x = z z |- x = z  [5 steps, 5 nodes]
  ok   pr01-9: z y = z z |- y = z  [5 steps, 5 nodes]
9/9 proved
""",
    "dits": """\
suite dits
  ok   Lxzz: x z = z  [4 steps, 4 nodes]
  ok   Lxyyx: x y = y x  [3 steps, 4 nodes]
  ok   Lxxx: x x = x  [5 steps, 7 nodes]
3/3 proved
""",
    "collapse": """\
suite collapse
  ok   collapse1: x = y |- x = z  [3 steps, 3 nodes]
  ok   collapse2: x = z |- x = y  [3 steps, 3 nodes]
  ok   collapse3: y = z |- x = x x  [5 steps, 7 nodes]
  ok   collapse3-seed: y = z |- y = y y y  [3 steps, 3 nodes]
progression demo (reapplying the proved expansion at position 0):
  y
  y y y
  y y y y y
  y y y y y y y
  y y y y y y y y y
4/4 proved
""",
}


@pytest.mark.parametrize("suite_id", sorted(SUITE_OUTPUT))
def test_proof_suite_output_is_pinned(suite_id, capsys):
    assert run(capsys, "suite", suite_id) == (0, SUITE_OUTPUT[suite_id], "")


# The decider suite: 10,000 seeded instances per property.
DGSS_OUTPUT = """\
suite dgss
  ok   lm2a: random instances, seed 42  [10000/10000]
  ok   lm2b: random instances, seed 42  [10000/10000]
  ok   lm2c: random instances, seed 42  [10000/10000]
  ok   lm2d: random instances, seed 42  [10000/10000]
  ok   pr2e: random instances, seed 42  [10000/10000]
  ok   pr2f: random instances, seed 42  [10000/10000]
6/6 passed
"""


def test_dgss_suite_output_is_pinned(capsys):
    assert run(capsys, "suite", "dgss") == (0, DGSS_OUTPUT, "")


def test_models_count_and_listing(capsys):
    rc, out, _ = run(capsys, "models", "--system", "dgss",
                     "--size", "2", "--count-only")
    assert (rc, out) == (0, "2\n")
    for limit, count in (("5", "5\n"), ("13", "12\n")):  # dit has 12 models of size 3
        rc, out, _ = run(capsys, "models", "--system", "dit", "--size", "3",
                         "--count-only", "--limit", limit)
        assert (rc, out) == (0, count)

    rc, out, _ = run(capsys, "models", "--system", "dit",
                     "--size", "3", "--limit", "2")
    assert rc == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0] == "n=3\n0 1 1\n1 0 0\n1 0 0\ndesignated: x=0 y=1 z=2"


@pytest.mark.parametrize("system", ["dgs", "dgss"])
def test_models_size_6_counts_z6_and_s3(system, capsys):
    # 6!/|Aut Z6| + 6!/|Aut S3| = 720/2 + 720/6 labelled groups of order 6;
    # dgs has no inverse rule, so only the Latin rows and columns prune it
    rc, out, _ = run(capsys, "models", "--system", system, "--size", "6", "--count-only")
    assert (rc, out) == (0, "480\n")


def test_models_empty_is_success(capsys):
    rc, out, _ = run(capsys, "models", "--system", "dit", "--size", "2")
    assert (rc, out) == (0, "")


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_models_limit_below_one_is_exit_1(limit, capsys):
    rc, out, err = run(capsys, "models", "--system", "dit", "--size", "3", "--limit", limit)
    assert (rc, out) == (1, "")
    assert err == f"error: limit must be at least 1, got {limit}\n"


def test_models_size_out_of_range(capsys):
    rc, _, err = run(capsys, "models", "--system", "dit", "--size", "9")
    assert rc == 1
    assert "size must be within 1..6" in err


def test_peano_eval(capsys):
    rc, out, _ = run(capsys, "peano", "eval", "0 (1 1)")
    assert (rc, out) == (0, "1 1\n= 2\n")
    rc, out, _ = run(capsys, "peano", "eval", "0 0")
    assert (rc, out) == (0, "0\n")


def test_peano_eval_rejects_inverse_marks(capsys):
    rc, out, err = run(capsys, "peano", "eval", "1'")
    assert (rc, out) == (1, "")
    assert err.startswith("error: ")


def test_peano_verify_and_demo(capsys):
    rc, out, _ = run(capsys, "peano", "verify", "--max", "8")
    assert rc == 0
    assert out.splitlines()[0] == "numeral checks up to 8"
    rc, out, _ = run(capsys, "peano", "zero-demo")
    assert rc == 0
    assert out.splitlines()[0] == "succ(0) = 1 0"
    assert out.splitlines()[-1] == "hence 0 cannot be a numeral"


def test_peano_verify_above_the_ceiling_is_exit_1(capsys):
    rc, out, err = run(capsys, "peano", "verify", "--max", "1000")
    assert (rc, out, err) == (1, "", "error: k_max must be within 2..256, got 1000\n")


def test_peano_verify_below_the_floor_is_exit_1(capsys):
    rc, out, err = run(capsys, "peano", "verify", "--max", "1")
    assert (rc, out, err) == (1, "", "error: k_max must be within 2..256, got 1\n")


@pytest.mark.parametrize("argv", [
    [],
    ["prove"],
    ["prove", "--system", "nosuch", "x = y"],
    ["suite", "bogus"],
    ["models", "--system", "dit", "--size", "three"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("cmd", ["prove", "models"])
def test_system_choices_are_the_table_ids(cmd, capsys):
    with pytest.raises(SystemExit) as ei:
        main([cmd, "--system", "nosuch"])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "--system {" + ",".join(SYSTEMS) + "}" in err
    assert f"(choose from {', '.join(map(repr, tuple(SYSTEMS)))})" in err


@pytest.mark.parametrize("given,system,equation", [
    ("DGSS", "dgss", "a a' b = b"),
    (" DiT ", "dit", "x y = y"),
    (" DIT+ ", "dit+", "x y = y"),
])
@pytest.mark.parametrize("cmd", ["prove", "models"])
def test_system_ids_ignore_case_and_blanks(cmd, given, system, equation, capsys):
    args = [equation] if cmd == "prove" else ["--size", "3"]
    expected = run(capsys, cmd, "--system", system, *args)
    assert expected[0] == 0 and expected[1]
    assert run(capsys, cmd, "--system", given, *args) == expected


@pytest.mark.parametrize("cmd", ["prove", "models"])
def test_unknown_system_in_capitals_is_still_a_usage_error(cmd, capsys):
    with pytest.raises(SystemExit) as ei:
        main([cmd, "--system", "NOSUCH"])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'NOSUCH'" in err  # echoed as typed
    assert "--system {" + ",".join(SYSTEMS) + "}" in err
    assert f"(choose from {', '.join(map(repr, tuple(SYSTEMS)))})" in err


def test_suite_ids_ignore_case_and_blanks(capsys):
    expected = run(capsys, "suite", "er")
    assert expected[0] == 0 and expected[1]
    assert run(capsys, "suite", " ER ") == expected


def test_unknown_suite_in_capitals_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["suite", "BOGUS"])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'BOGUS'" in err  # echoed as typed
    assert "{" + ",".join(SUITE_IDS) + "}" in err
    assert f"(choose from {', '.join(map(repr, SUITE_IDS))})" in err


def test_prove_defaults_are_the_search_config():
    args = _build_parser().parse_args(["prove", "--system", "dit", "x = y"])
    config = SearchConfig()
    assert (args.max_depth, args.max_len, args.max_nodes) == \
        (config.max_depth, config.max_word_len, config.max_nodes)


def test_check_names_the_table_for_an_unknown_system(tmp_path, capsys):
    script = tmp_path / "p.json"
    script.write_text(json.dumps({"system": "nosuch", "hypotheses": [],
                                  "goal": "x y = y", "steps": []}))
    rc, out, err = run(capsys, "check", str(script))
    assert (rc, out) == (1, "")
    assert err == ("error: unknown system 'nosuch' "
                   "(expected one of DIT, DIT+, DITS, DGS, DGS+, DGSS)\n")


# Runs of the console script with the exit code and stdout lines the
# README gives for them; the second shows that the script exits with the
# code `main` returns.
CONSOLE_SCRIPT_RUNS = [
    (["peano", "eval", "0 (1 1)"], 0, ["1 1", "= 2"]),
    (["prove", "--system", "dit", "z x = z"], 2, []),
]


def _check_console_script(exe, env=None):
    for argv, code, lines in CONSOLE_SCRIPT_RUNS:
        done = subprocess.run([exe, *argv], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout.splitlines()) == (code, lines), done.stderr


def test_installed_entry_point(tmp_path):
    """The `[project.scripts]` entry of pyproject.toml works as a console script.

    The script is written to `tmp_path` in the form installers generate
    from the entry point, so the check needs no installed package; it runs
    the `relcalc` this test imported. A `relcalc` on PATH is checked too.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, qualname = scripts["relcalc"].partition(":")
    shim = tmp_path / "relcalc"
    shim.write_text(f"#!{sys.executable}\n"
                    "import sys\n"
                    f"from {module} import {qualname.split('.')[0]}\n"
                    f"sys.exit({qualname}())\n", encoding="utf-8")
    shim.chmod(0o755)
    src = Path(relcalc.__file__).resolve().parents[1]
    _check_console_script(shutil.which("relcalc", path=str(tmp_path)),
                          {**os.environ, "PYTHONPATH": str(src)})

    installed = shutil.which("relcalc")
    if installed:
        _check_console_script(installed)


# Each example line of README.md's `## CLI` block, as written there, with
# the exit code and the last stdout lines its comment states (None where
# the comment states no output).
README_CLI = {
    'relcalc parse "[x (y z)]"                  # -> x y z': (0, ["x y z"]),
    'relcalc prove --system dit "x y = y"       # one-step proof, exit 0; ids ignore case': (0, None),
    'relcalc prove --system dit+ --hyp "y = z" "y = y y y"': (0, None),
    'relcalc prove --system dit "z x = z"       # no proof: exit 2, bounds on stderr': (2, None),
    'relcalc prove --system dits --format json "x x = x" > proof.json': (0, None),
    'relcalc check proof.json                   # "ok", or the failing step': (0, ["ok"]),
    'relcalc suite er                           # 9/9 proved': (0, ["9/9 proved"]),
    'relcalc models --system dgss --size 4 --count-only   # 16': (0, ["16"]),
    'relcalc models --system dgs --size 6 --count-only    # 480: Z6 and S3, well under a second':
        (0, ["480"]),
    'relcalc models --system dit --size 3 --limit 1       # smallest model, as a table': (0, None),
    'relcalc peano eval "0 (1 1)"               # "1 1", then "= 2"; inverse marks exit 1':
        (0, ["1 1", "= 2"]),
    'relcalc peano verify --max 64              # --max is 2 to 256; above 256 exits 1': (0, None),
    'relcalc peano zero-demo': (0, None),
}


def test_readme_cli_examples_hold(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert sorted(lines) == sorted(README_CLI)
    monkeypatch.chdir(tmp_path)  # where the examples write and read proof.json
    for line in lines:
        argv = shlex.split(line, comments=True)
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        assert argv[0] == "relcalc"
        rc, out, err = run(capsys, *argv[1:])
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")
        code, stated = README_CLI[line]
        assert rc == code, (line, err)
        if stated is not None:
            got = out.splitlines()
            assert got[len(got) - len(stated):] == stated, line
