import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lndkit.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, main

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
    assert "no derivation named" in err


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
