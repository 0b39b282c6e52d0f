import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lndkit.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, build_parser, main

from helpers import cli_env

DATA = Path(__file__).parent / "data"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- check-lnd -------------------------------------------------------------


def test_check_lnd_verified(capsys):
    code, out, _ = run_main(
        capsys, "check-lnd", str(DATA / "w1.json"), "canonical"
    )
    assert code == EXIT_OK
    assert "well-defined: yes" in out
    assert "VerifiedLND" in out


def test_check_lnd_json_payload(capsys):
    code, out, _ = run_main(
        capsys, "check-lnd", str(DATA / "w1.json"), "canonical", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["well_defined"] is True
    assert doc["verdict"]["status"] == "verified"


def test_check_lnd_unknown_name(capsys):
    code, _, err = run_main(
        capsys, "check-lnd", str(DATA / "w1.json"), "nope"
    )
    assert code == EXIT_INPUT
    assert err == "error: no derivation named 'nope' in the dossier\n"


def test_check_lnd_failure_exit(tmp_path, capsys):
    doc = {
        "vars": ["x"],
        "relations": [],
        "derivations": {"euler": {"x": "x"}},
    }
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(capsys, "check-lnd", str(path), "euler")
    assert code == EXIT_FAILED
    assert "NotNilpotent" in out


# ---- classify ------------------------------------------------------------


@pytest.mark.parametrize(
    "name, verdict",
    [
        ("w1.json", "A"),
        ("quadric.json", "B"),
        ("toric_plane.json", "A"),
        ("toric_quadric.json", "B"),
        ("trinomial_type1.json", "A"),
        ("trinomial_type2.json", "B"),
        ("trinomial_rigid.json", "C"),
    ],
)
def test_classify_golden_corpus(capsys, name, verdict):
    code, out, _ = run_main(
        capsys, "classify", str(DATA / name), "--json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == verdict


def test_classify_refuses_a_contradicted_rigidity_assertion(tmp_path, capsys):
    doc = json.loads((DATA / "quadric.json").read_text())
    doc["assertions"] = {"rigid": True}
    path = tmp_path / "rigid_quadric.json"
    path.write_text(json.dumps(doc))
    assert run_main(capsys, "check-lnd", str(path), "canonical")[0] == EXIT_OK
    assert run_main(capsys, "classify", str(path)) == (
        EXIT_INPUT,
        "",
        "error: rigidity is asserted, but derivation 'canonical' is a verified"
        " nonzero LND\n",
    )


def test_classify_refuses_a_rigidity_assertion_a_structural_verdict_contradicts(
    tmp_path, capsys
):
    def asserting_rigid(name):
        doc = json.loads((DATA / name).read_text())
        doc["assertions"] = {"rigid": True}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    for name, what, verdict in [
        ("toric_plane.json", "toric cone", "A"),
        ("trinomial_type2.json", "trinomial datum", "B"),
    ]:
        assert run_main(capsys, "classify", asserting_rigid(name)) == (
            EXIT_INPUT,
            "",
            f"error: rigidity is asserted, but the {what} gives verdict {verdict}\n",
        )
    code, out, _ = run_main(capsys, "classify", asserting_rigid("trinomial_rigid.json"))
    assert code == EXIT_OK
    assert out.startswith("verdict: C\n")


def test_classify_text_output(capsys):
    code, out, _ = run_main(capsys, "classify", str(DATA / "w1.json"))
    assert code == EXIT_OK
    assert out.startswith("verdict: A")


# ---- exp -------------------------------------------------------------


def test_exp_formal(capsys):
    code, out, _ = run_main(
        capsys, "exp", str(DATA / "w1.json"), "canonical", "y", "formal"
    )
    assert code == EXIT_OK
    assert out.strip() == "x*_s^2 + 2*z*_s + y"


def test_exp_rational(capsys):
    code, out, _ = run_main(
        capsys, "exp", str(DATA / "w1.json"), "canonical", "z", "1/2"
    )
    assert code == EXIT_OK
    assert out.strip() == "1/2*x + z"


# dossiers whose derivation d is not an LND verified within the default bound
NOT_VERIFIED = {
    "not nilpotent": {"vars": ["x"], "derivations": {"d": {"x": "x"}}},
    "not well-defined": {
        "vars": ["x", "y", "z"],
        "relations": ["x*y - z^2 + 1"],
        "derivations": {"d": {"x": "1", "y": "0", "z": "0"}},
    },
    "inconclusive": {"vars": ["x", "y"], "derivations": {"d": {"x": "y^70", "y": "1"}}},
}
VERIFYING = [
    ["check-lnd", "d"],
    ["classify"],
    ["exp", "d", "x", "1"],
    ["hdstar-member", "x*u"],
]


@pytest.mark.parametrize("doc", NOT_VERIFIED.values(), ids=NOT_VERIFIED)
@pytest.mark.parametrize("argv", VERIFYING, ids=lambda argv: argv[0])
def test_failed_verification_exits_1(tmp_path, capsys, doc, argv):
    path = tmp_path / "dossier.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, argv[0], str(path), *argv[1:])
    assert code == EXIT_FAILED
    if argv[0] != "check-lnd":
        assert out == "" and "failed verification" in err


def test_exp_honours_bound(tmp_path, capsys):
    # D(x) = y^70 is nilpotent of order 72, past the default bound of 64
    doc = {"vars": ["x", "y"], "derivations": {"d": {"x": "y^70", "y": "1"}}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(capsys, "check-lnd", str(path), "d", "--bound", "100")
    assert code == EXIT_OK
    assert "VerifiedLND(max_order=72)" in out
    code, out, _ = run_main(capsys, "exp", str(path), "d", "x", "1", "--bound", "100")
    assert code == EXIT_OK
    assert out.startswith("y^70 + 35*y^69")
    code, _, err = run_main(capsys, "exp", str(path), "d", "x", "1")
    assert code == EXIT_FAILED
    assert "Inconclusive(bound=64)" in err


W1 = str(DATA / "w1.json")
QUADRIC = str(DATA / "quadric.json")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "toric_plane.json", "--bound", "0"),
        ("classify", "trinomial_type1.json", "--bound", "-3"),
        ("classify", "trinomial_rigid.json", "--bound", "0"),
        ("classify", "w1.json", "--bound", "0"),
    ],
    ids=lambda argv: argv[1],
)
def test_bound_below_one_is_refused_on_every_dossier(capsys, argv):
    command, name, *rest = argv
    code, out, err = run_main(capsys, command, str(DATA / name), *rest)
    assert (code, out, err) == (EXIT_INPUT, "", "error: bound must be >= 1\n")


@pytest.mark.parametrize(
    "argv, after_dashes",
    [
        (
            ["exp", W1, "canonical", "y^3", "-1/3"],
            ["exp", W1, "canonical", "y^3", "--", "-1/3"],
        ),
        (
            ["exp", W1, "canonical", "-y", "2", "--json"],
            ["exp", W1, "canonical", "--json", "--", "-y", "2"],
        ),
        (["hdstar-member", QUADRIC, "-y"], ["hdstar-member", QUADRIC, "--", "-y"]),
        (
            ["hdstar-member", QUADRIC, "-x*u", "--json"],
            ["hdstar-member", QUADRIC, "--json", "--", "-x*u"],
        ),
    ],
)
def test_leading_minus_is_positional(capsys, argv, after_dashes):
    code, out, _ = run_main(capsys, *argv)
    assert out and run_main(capsys, *after_dashes)[:2] == (code, out)


@pytest.mark.parametrize(
    "poly, s", [("-h*y", "1"), ("-h^2 + y", "1"), ("-1/3*h", "-1/3")]
)
def test_leading_minus_before_an_option_letter_is_positional(tmp_path, capsys, poly, s):
    # -h*y starts like -h, but only "-h" itself is the help option
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"vars": ["h", "y"], "derivations": {"d": {"h": "y", "y": "0"}}}))
    argv = ["exp", str(path), "d", poly, s]
    code, out, _ = run_main(capsys, *argv)
    assert code == EXIT_OK and out
    assert run_main(capsys, *argv[:3], "--", *argv[3:])[:2] == (code, out)


# ---- decompose ------------------------------------------------------------


def test_decompose_cylinder(capsys):
    code, out, _ = run_main(
        capsys,
        "decompose",
        str(DATA / "w1_cylinder.json"),
        "mixed",
        "uweight",
        "--json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [p["degree"] for p in doc["parts"]] == [-1, 1]


def test_decompose_unknown_grading(capsys):
    code, _, err = run_main(
        capsys, "decompose", str(DATA / "w1_cylinder.json"), "mixed", "nope"
    )
    assert code == EXIT_INPUT
    assert err == "error: no grading named 'nope' in the dossier\n"


# ---- roots -------------------------------------------------------------


def test_roots_plane_box5(capsys):
    code, out, _ = run_main(
        capsys, "roots", str(DATA / "toric_plane.json"), "--box", "5", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["roots"]) == 12
    assert doc["line_factor"] == [-1, 0]


def test_roots_requires_cone(capsys):
    code, _, err = run_main(capsys, "roots", str(DATA / "w1.json"))
    assert code == EXIT_INPUT
    assert "no toric cone" in err


# ---- hdstar-member ------------------------------------------------------


def test_hdstar_member_accepts_base_element(capsys):
    code, out, _ = run_main(
        capsys, "hdstar-member", str(DATA / "quadric.json"), "y^2 + 1"
    )
    assert code == EXIT_OK
    assert out.strip() == "member"


def test_hdstar_member_rejects_u(capsys):
    code, out, _ = run_main(
        capsys, "hdstar-member", str(DATA / "quadric.json"), "u"
    )
    assert code == EXIT_FAILED
    assert out.strip() == "not a member"


def test_hdstar_member_accepts_weighted_image(capsys):
    code, out, _ = run_main(
        capsys, "hdstar-member", str(DATA / "quadric.json"), "x*u^3 + y"
    )
    assert code == EXIT_OK


# ---- error handling and determinism -----------------------------------------


OPTIONS = {
    "check-lnd": {"--order", "--bound"},
    "classify": {"--order", "--bound", "--box"},
    "exp": {"--order", "--bound"},
    "decompose": {"--order"},
    "roots": {"--box"},
    "hdstar-member": {"--order", "--bound"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_lists_only_its_options(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert listed == OPTIONS[command] | {"--help", "--json"}


def test_option_of_another_subcommand_is_a_usage_error(capsys):
    path = str(DATA / "toric_plane.json")
    expected = run_main(capsys, "roots", path, "--box", "2")
    with pytest.raises(SystemExit) as exc:
        main(["roots", path, "--bound", "3"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --bound 3" in capsys.readouterr().err
    # a usage error leaves the next call unaffected
    assert run_main(capsys, "roots", path, "--box", "2") == expected


def test_missing_file(capsys):
    code, _, err = run_main(capsys, "classify", str(DATA / "absent.json"))
    assert code == EXIT_INPUT


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_main(capsys, "classify", str(path))
    assert code == EXIT_INPUT


def test_exp_zero_denominator_is_an_input_error(capsys):
    code, _, err = run_main(
        capsys, "exp", str(DATA / "w1.json"), "canonical", "y", "1/0"
    )
    assert code == EXIT_INPUT
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "poly, message",
    [
        ("x^²", "unexpected character '²' at position 2"),
        pytest.param(
            "1" * 5000, "integer literal of 5000 digits is too long", id="5000-digits"
        ),
        pytest.param(
            "(" * 1100 + "x" + ")" * 1100,
            "parentheses nested too deeply",
            id="1100-nested-parentheses",
        ),
    ],
)
def test_exp_malformed_number_is_an_input_error(capsys, poly, message):
    code, _, err = run_main(capsys, "exp", str(DATA / "w1.json"), "canonical", poly, "1")
    assert code == EXIT_INPUT
    assert err == f"error: {message}\n"


def test_trinomial_type_null_is_an_input_error(tmp_path, capsys):
    doc = json.loads((DATA / "trinomial_type1.json").read_text())
    doc["trinomial"]["type"] = None
    path = tmp_path / "typeless.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_main(capsys, "classify", str(path))
    assert code == EXIT_INPUT
    assert err.startswith("error: ")


def test_rays_not_lists_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"toric": {"rays": [1, 2]}}))
    code, _, err = run_main(capsys, "roots", str(path))
    assert code == EXIT_INPUT
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"trinomial": {"type": 3, "l": [[1, 1], [2], [3]], "A": [[1, 1, 1], [0, 1, 2]]}},
        {"trinomial": {"type": 0, "l": [[2], [2]], "a": [0, 1]}},
    ],
    ids=["type 3", "type 0"],
)
def test_trinomial_type_other_than_1_or_2_is_an_input_error(tmp_path, capsys, doc):
    path = tmp_path / "typeless.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "classify", str(path))
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: trinomial type must be 1 or 2")


@pytest.mark.parametrize(
    "argv",
    [
        ["check-lnd", "canonical"],
        ["classify"],
        ["exp", "canonical", "y", "1/2"],
        ["decompose", "canonical", "halfspin"],
        ["roots"],
        ["hdstar-member", "x*u"],
    ],
    ids=lambda argv: argv[0],
)
def test_invalid_trinomial_datum_is_an_input_error_everywhere(tmp_path, capsys, argv):
    # everything else in the dossier is fine; the datum repeats a constant
    doc = json.loads((DATA / "w1.json").read_text())
    doc["trinomial"] = {"type": 1, "l": [[1, 1], [2]], "a": [3, 3]}
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, argv[0], str(path), *argv[1:])
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"toric": [[1, 0]]},
        {"toric": {"cone": [[1, 0]]}},
        {"toric": {"rays": None}},
        {"trinomial": {"type": 1, "l": None, "a": [0, 1]}},
        {"trinomial": {"type": 1, "l": [2, 2], "a": [0, 1]}},
        {"trinomial": {"type": 1, "l": [[2], ["2"]], "a": [0, 1]}},
        {"trinomial": {"type": 1, "l": [[2], [2]], "a": None}},
        {"trinomial": {"type": 2, "l": [[2], [2], [2]], "A": 1}},
        {"trinomial": {"type": 2, "l": [[2], [2], [2]], "A": [1, 0]}},
        [1],
        {"assertions": []},
        {"trinomial": {"type": 1, "l": [[2], [2]], "a": [None, 1]}},
        {"vars": ["x"], "gradings": {"g": None}},
        {"vars": 3},
        {"vars": "xy"},
        {"vars": ["x"], "derivations": {"d": "x"}},
        {"vars": ["x"], "relations": [1]},
        {"vars": ["x"], "relations": "x"},
        {"toric": {"rays": [[1.5, 0], [0, 1]]}},
        {"trinomial": {"type": 1, "m": 1.5, "l": [[2], [2]], "a": [0, 1]}},
        {"trinomial": {"type": 1, "m": True, "l": [[2], [2]], "a": [0, 1]}},
        {"trinomial": {"type": "1", "l": [[2], [2]], "a": [0, 1]}},
        {"relations": ["x*y - 1"]},
    ],
    ids=[
        "toric list",
        "toric without rays",
        "rays null",
        "l null",
        "l flat",
        "l block of strings",
        "a null",
        "A number",
        "A flat",
        "top-level list",
        "assertions list",
        "a entry null",
        "grading null",
        "vars number",
        "vars string",
        "derivation string",
        "relation number",
        "relations string",
        "ray float",
        "m float",
        "m bool",
        "type string",
        "relations without vars",
    ],
)
def test_malformed_dossier_shape_is_an_input_error(tmp_path, capsys, doc):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    for command in ("classify", "roots"):
        code, _, err = run_main(capsys, command, str(path))
        assert code == EXIT_INPUT
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vars": ["x", "y"], "derivations": {"d": {"x": "1"}}},
         "image map mismatch (missing ['y'], extra [])"),
        ({"vars": ["x"], "relations": ["1"]},
         "relations generate the unit ideal; algebra is zero"),
        ({"vars": ["x", "x"], "relations": ["x"]}, "duplicate variable names"),
        ({"vars": ["x", "x"]}, "duplicate variable names"),
        ({"vars": ["x", "y"], "gradings": {"g": [1]}}, "grading 'g' has wrong length"),
        ({"toric": {"rays": []}}, "a cone needs at least one ray"),
        ({"trinomial": {"l": [[2], [2]], "a": [0, 1]}},
         "trinomial type must be an integer, not None"),
        ({"trinomial": {"type": 1, "a": [0, 1]}},
         "trinomial l must be a list of lists, not None"),
        ({"trinomial": {"type": 1, "l": [[2], [2]]}}, "trinomial a must be a list, not None"),
        ({"trinomial": {"type": 2, "l": [[2], [2], [2]]}},
         "trinomial A must be a list of lists, not None"),
        ({"trinomial": {"type": 1, "l": [[2], [2]], "a": [True, False]}},
         "trinomial a must be a list of rationals, not [True, False]"),
        ({"trinomial": {"type": 1, "l": [[2], [2]], "a": ["1/0", 1]}},
         "trinomial a must be a list of rationals, not ['1/0', 1]"),
        ({"trinomial": {"type": 2, "l": [[2], [2], [2]], "A": [[True] * 3, [0, 1, 2]]}},
         "a trinomial A row must be a list of rationals, not [True, True, True]"),
        ({"vars": ["x", "y"], "derivations": {"d": {"x": "y", "y": "0"}},
          "assertions": {"invariant_line": [False, False]}},
         "invariant_line must be a list of rationals, not [False, False]"),
        ({"vars": ["x"], "assertions": {"rigid": "false"}},
         "assertions rigid must be a boolean, not 'false'"),
        ({"vars": ["x"], "assertions": {"rigid": 1}},
         "assertions rigid must be a boolean, not 1"),
        ({"vars": ["x"], "assertions": {"rigid": None}},
         "assertions rigid must be a boolean, not None"),
        ({"vars": ["x"], "derivations": False},
         "derivations must be an object of dicts, not False"),
        ({"vars": ["x"], "derivations": []},
         "derivations must be an object of dicts, not []"),
        ({"vars": ["x"], "derivations": 0},
         "derivations must be an object of dicts, not 0"),
        ({"vars": ["x"], "derivations": ""},
         "derivations must be an object of dicts, not ''"),
        ({"vars": ["x"], "derivations": None},
         "derivations must be an object of dicts, not None"),
        # the first verdict reads the assertion; w1's LND gives A without it
        ({"vars": ["x", "y", "z"], "relations": ["x*y - z^2"],
          "derivations": {"d": {"x": "0", "y": "2*z", "z": "x"}},
          "assertions": {"invariant_line": [0]}},
         "invariant_line must have one entry per variable (3), not 1"),
        ({"vars": ["x", "y", "z"], "relations": ["x*y - z^2 + 1"],
          "derivations": {"d": {"x": "0", "y": "2*z", "z": "x"}},
          "assertions": {"invariant_line": [0]}},
         "invariant_line must have one entry per variable (3), not 1"),
        # without vars nothing could check these, so nothing may keep them
        ({"gradings": {"g": [1, 2, 3]}, "toric": {"rays": [[1, 0], [0, 1]]}},
         "gradings require vars"),
        ({"toric": {"rays": [[1, 0], [0, 1]]}, "assertions": {"invariant_line": [0]}},
         "invariant_line requires vars"),
        ({"gradings": {}}, "gradings require vars"),
        ({"trinomial": {"type": 1, "l": [[1], [2]], "a": [0, 1]},
          "assertions": {"invariant_line": [0, 0, 0, 0]}},
         "invariant_line requires vars"),
    ],
    ids=[
        "derivation missing a variable",
        "unit relation",
        "duplicate vars with relations",
        "duplicate vars",
        "grading too short",
        "no rays",
        "no trinomial type",
        "no trinomial l",
        "no trinomial a",
        "no trinomial A",
        "a of booleans",
        "a with denominator 0",
        "A row of booleans",
        "invariant_line of booleans",
        "rigid string",
        "rigid number",
        "rigid null",
        "derivations false",
        "derivations empty list",
        "derivations zero",
        "derivations empty string",
        "derivations null",
        "invariant_line too short, verdict B",
        "invariant_line too short, verdict A",
        "gradings without vars",
        "invariant_line without vars",
        "empty gradings without vars",
        "invariant_line without vars, trinomial",
    ],
)
def test_bad_dossier_exits_2_naming_the_fault(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_main(capsys, "classify", str(path)) == (EXIT_INPUT, "", f"error: {message}\n")


def test_rigid_reads_only_a_json_boolean(tmp_path, capsys):
    outputs = {}
    for rigid in (True, False, "absent"):
        doc = {"vars": ["x"]}
        if rigid != "absent":
            doc["assertions"] = {"rigid": rigid}
        path = tmp_path / "rigid.json"
        path.write_text(json.dumps(doc))
        code, outputs[rigid], _ = run_main(capsys, "classify", str(path), "--json")
        assert code == EXIT_OK
    assert json.loads(outputs[True])["verdict"] == "C"
    assert outputs[False] == outputs["absent"]
    assert json.loads(outputs[False])["verdict"] == "Inconclusive"


def test_parser_is_built_once_per_process_and_not_at_import():
    assert build_parser() is build_parser()
    result = subprocess.run(
        [sys.executable, "-c",
         "import lndkit.cli as cli; print(cli.build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert result.stdout == "0\n"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site, and whatever its .pth files import, out of the check
    code = (
        "import sys, lndkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=cli_env()
    )
    assert (result.stdout, result.stderr) == ("[]\n", "")


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "lndkit", "classify", str(DATA / "w1.json"), "--json"],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert result.returncode == EXIT_OK
    assert json.loads(result.stdout)["verdict"] == "A"


def test_json_output_is_deterministic():
    corpus = [
        ("classify", str(DATA / "w1.json")),
        ("classify", str(DATA / "quadric.json")),
        ("classify", str(DATA / "trinomial_type2.json")),
        ("roots", str(DATA / "toric_quadric.json"), "--box", "4"),
        ("check-lnd", str(DATA / "w1.json"), "canonical"),
    ]
    for argv in corpus:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "lndkit", *argv, "--json"],
                capture_output=True,
                env=cli_env(),
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] and runs[0] == runs[1]


# ---- numbers and variable names ----------------------------------------------


def run_cli(*argv):
    """`python -m lndkit` in a child process; a hang fails the test after
    10 s instead of holding the suite."""
    result = subprocess.run(
        [sys.executable, "-m", "lndkit", *argv],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=10,
    )
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize(
    "parameter, out",
    [
        ("-1/3", "1/9*x + y - 2/3*z"),
        ("2^10", "1048576*x + y + 2048*z"),
        ("(1/2)^3", "1/64*x + y + 1/4*z"),
    ],
)
def test_exp_reads_its_parameter_as_parse_poly_reads_a_number(parameter, out):
    argv = ("exp", str(DATA / "w1.json"), "canonical", "y", parameter)
    assert run_cli(*argv) == (EXIT_OK, out + "\n", "")


@pytest.mark.parametrize(
    "parameter, message",
    [
        ("0.5", "unexpected character '.' at position 1"),
        ("1e5", "trailing input at token 'e5'"),
        # Fraction's grammar would compute 10^99999999 first
        ("1e99999999", "trailing input at token 'e99999999'"),
    ],
)
def test_exp_refuses_decimals_and_exponent_notation(parameter, message):
    argv = ("exp", str(DATA / "w1.json"), "canonical", "y", parameter)
    assert run_cli(*argv) == (EXIT_INPUT, "", f"error: {message}\n")


def test_a_dossier_rational_in_exponent_notation_exits_2_at_once(tmp_path):
    path = tmp_path / "tri.json"
    a = ["1e99999999", 0]
    path.write_text(json.dumps({"trinomial": {"type": 1, "l": [[1], [2]], "a": a}}))
    message = f"error: trinomial a must be a list of rationals, not {a!r}\n"
    assert run_cli("classify", str(path)) == (EXIT_INPUT, "", message)


@pytest.mark.parametrize(
    "written, plain",
    [
        ({"trinomial": {"type": 1, "l": [[2], [2], [2]], "a": ["2^10", "(1/2)^3", "-1/3"]}},
         {"trinomial": {"type": 1, "l": [[2], [2], [2]], "a": [1024, "1/8", "-1/3"]}}),
        ({"trinomial": {"type": 2, "l": [[2], [2], [2]], "A": [["1", "0", "3^2"], [0, "(1)", 1]]}},
         {"trinomial": {"type": 2, "l": [[2], [2], [2]], "A": [[1, 0, 9], [0, 1, 1]]}}),
        ({"vars": ["x", "y", "z"], "relations": ["x*y - z^2"],
          "derivations": {"d": {"x": "0", "y": "2*z", "z": "x"}},
          "assertions": {"invariant_line": ["0", "2^0 - 1", "0/5"]}},
         {"vars": ["x", "y", "z"], "relations": ["x*y - z^2"],
          "derivations": {"d": {"x": "0", "y": "2*z", "z": "x"}},
          "assertions": {"invariant_line": [0, 0, 0]}}),
    ],
    ids=["trinomial a", "trinomial A", "invariant_line"],
)
def test_dossier_strings_are_numbers_as_parse_poly_reads_them(tmp_path, capsys, written, plain):
    outputs = []
    for doc in (written, plain):
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_main(capsys, "classify", str(path), "--json")
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "doc, what",
    [
        ({"trinomial": {"type": 1, "l": [[2], [2]], "a": ["0.5", 1]}}, "trinomial a"),
        ({"trinomial": {"type": 1, "l": [[2], [2]], "a": ["1e5", 1]}}, "trinomial a"),
        ({"trinomial": {"type": 1, "l": [[2], [2]], "a": ["x", 1]}}, "trinomial a"),
        ({"trinomial": {"type": 2, "l": [[2], [2], [2]], "A": [["1.0", 0, 1], [0, 1, 1]]}},
         "a trinomial A row"),
        ({"vars": ["x"], "assertions": {"invariant_line": ["2E3"]}}, "invariant_line"),
    ],
    ids=["a decimal", "a exponent", "a variable", "A decimal", "invariant_line exponent"],
)
def test_decimal_and_exponent_strings_exit_2_naming_the_field(tmp_path, capsys, doc, what):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_main(capsys, "classify", str(path))
    assert code == EXIT_INPUT
    assert err.startswith(f"error: {what} must be a list of rationals, not ")


def test_exp_prints_coefficients_past_the_digit_limit(tmp_path):
    # (x + 10^30)^150 ends in 10^4500, past the 4300 digits str() allows
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"vars": ["x"], "derivations": {"d": {"x": "1"}}}))
    code, out, err = run_cli("exp", str(path), "d", "x^150", "10^30", "--bound", "200")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("x^150 + 150000000000000000000000000000000*x^149 + ")
    assert out.endswith(" + 1" + "0" * 4500 + "\n")


def test_classify_prints_an_invariant_point_past_the_digit_limit(tmp_path, capsys):
    doc = json.loads((DATA / "quadric.json").read_text())
    doc["assertions"]["invariant_line"] = ["10^3000*10^3000", 0, 0]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(capsys, "classify", str(path), "--json")
    assert code == EXIT_OK
    evidence = json.loads(out)["evidence"][-1]
    assert evidence["data"]["point"] == ["1" + "0" * 6000, "0", "0"]


@pytest.mark.parametrize("name", ["1x", "", "x y", "x+y", "-"])
def test_a_variable_the_parser_cannot_read_exits_2(tmp_path, capsys, name):
    path = tmp_path / "vars.json"
    path.write_text(json.dumps({"vars": ["y", name]}))
    message = f"error: variable name {name!r} is not an identifier\n"
    assert run_main(capsys, "classify", str(path)) == (EXIT_INPUT, "", message)
