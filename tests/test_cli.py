"""Command-line interface: outputs, formats, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

import radialcenters
from radialcenters import cli, quadrature
from radialcenters.cli import _build_parser, main
from radialcenters.geometry import body_from_dict
from radialcenters.potentials import FAMILY_NAMES, Heat, Poisson, Riesz, make_spec


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}))
    return str(path)


@pytest.fixture
def equilateral_file(tmp_path):
    pts = [[math.cos(math.pi / 2 + 2 * math.pi * k / 3),
            math.sin(math.pi / 2 + 2 * math.pi * k / 3)] for k in range(3)]
    path = tmp_path / "equilateral.json"
    path.write_text(json.dumps({"vertices": pts}))
    return str(path)


@pytest.fixture
def scalene_file(tmp_path):
    path = tmp_path / "scalene.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [4, 0], [0, 3]]}))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m radialcenters.cli`` importing the package the tests import."""
    src = os.path.dirname(os.path.dirname(radialcenters.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "radialcenters.cli", *argv],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


def test_center_square(capsys, square_file):
    code, out, _ = run_cli(capsys, ["center", "--family", "riesz", "--param", "4",
                                    "--body", square_file])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["point"][0]) < 1e-8 and abs(payload["point"][1]) < 1e-8
    assert payload["uniqueness_guaranteed"] is True


def test_classify_equilateral(capsys, equilateral_file):
    code, out, _ = run_cli(capsys, ["classify", "--body", equilateral_file])
    assert code == 0
    assert json.loads(out)["classification"] == "BalancedEquilateral"


def test_balance_scalene_not_balanced(capsys, scalene_file):
    code, out, _ = run_cli(capsys, ["balance", "--body", scalene_file,
                                    "--at", "centroid"])
    assert code == 0
    payload = json.loads(out)
    assert payload["balanced"] is False
    assert payload["sup_residual"] > 1e-2


def test_potential_value_and_gradient(capsys, square_file):
    code, out, _ = run_cli(capsys, ["potential", "--family", "poisson", "--param", "1",
                                    "--at", "0,0", "--body", square_file])
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["value"] < 1
    assert abs(payload["gradient"][0]) < 1e-9


def test_locus_csv(capsys, square_file):
    code, out, _ = run_cli(capsys, ["locus", "--family", "riesz", "--range", "3:20:5",
                                    "--body", square_file, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,x,y,grad_norm"
    assert len(lines) == 6


def test_svg_output(capsys, square_file, tmp_path):
    out_path = tmp_path / "drawingardır.svg"
    code, out, _ = run_cli(capsys, ["center", "--family", "riesz", "--param", "4",
                                    "--body", square_file, "--format", "svg",
                                    "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "</svg>" in text


def test_determinism(capsys, scalene_file):
    _, out1, _ = run_cli(capsys, ["balance", "--body", scalene_file, "--at", "0.9,0.8"])
    _, out2, _ = run_cli(capsys, ["balance", "--body", scalene_file, "--at", "0.9,0.8"])
    assert out1 == out2
    _, out1, _ = run_cli(capsys, ["generate-asym"])
    _, out2, _ = run_cli(capsys, ["generate-asym"])
    assert out1 == out2


def test_generate_asym_round_trips(capsys):
    code, out, _ = run_cli(capsys, ["generate-asym"])
    assert code == 0
    body = body_from_dict(json.loads(out))
    assert body.is_convex()


def test_missing_body_file_is_domain_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["classify", "--body", str(tmp_path / "nope.json")])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


@pytest.mark.parametrize("data, key", [
    ({"type": "disk", "radius": 1}, "center"),
    ({"type": "radial_arc"}, "direction_angles"),
    # the older profile-array format is rejected, not converted
    ({"type": "radial_arc", "direction_angles": [0.0, 2.39, 3.82], "r_max": 1.04,
      "profile_r": [1.0, 1.04], "profile_a_u": [0.5, 0.0]}, "amplitude"),
    # JSON of the wrong shape: not an object, or a field of the wrong type
    ([[0, 0], [4, 0], [0, 3]], "object"),
    ("tri", "object"),
    ({"type": "disk", "center": [0, 0], "radius": None}, "malformed"),
    ({"type": "radial_arc", "direction_angles": 5, "r_max": 1.04, "amplitude": 0.5},
     "malformed"),
    # arrays of the wrong shape or contents, which numpy rejects
    ({"type": "disk", "center": [0], "radius": 1}, "malformed"),
    ({"vertices": [[0, 0], [1]]}, "malformed"),
    ({"vertices": "abc"}, "malformed"),
    ({"type": "disk", "center": [0, 0], "radius": "x"}, "malformed"),
    # a constructor's own message passes through
    ({"vertices": [[0, 0], [1, 0], [2, 0]]}, "counterclockwise"),
])
def test_malformed_body_json_is_domain_error(capsys, tmp_path, data, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in (["balance"], ["center", "--family", "riesz", "--param", "1.5"]):
        code, out, err = run_cli(capsys, [*command, "--body", str(bad)])
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "InvalidBody"
        assert key in payload["message"]


def test_infinite_tolerance_is_domain_error(capsys, scalene_file):
    code, out, err = run_cli(capsys, ["center", "--family", "riesz", "--param", "1.5",
                                      "--tol", "inf", "--body", scalene_file])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_invalid_body_is_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 0], [1, 1]]}))
    code, _, err = run_cli(capsys, ["classify", "--body", str(bad)])
    assert code == 1
    assert json.loads(err)["error"] == "InvalidBody"


@pytest.mark.parametrize("body", [{"type": "disk", "center": [0, 0], "radius": 1},
                                  {"vertices": [[0, 0], [4, 0], [0, 3]]}],
                         ids=["disk", "tri345"])
def test_overflowing_potential_is_domain_error(capsys, tmp_path, body):
    # Riesz(40) at distance 1e10 is about 1e380, beyond the double range
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body))
    with pytest.warns(RuntimeWarning):
        code, out, err = run_cli(capsys, ["potential", "--family", "riesz", "--param", "40",
                                          "--at", "1e10,0", "--body", str(path)])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("command", [["center"], ["potential", "--at", "0.1,0.2"]],
                         ids=["center", "potential"])
@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("param", ["nan", "inf"])
def test_non_finite_parameter_is_domain_error(capsys, square_file, command, family, param):
    code, out, err = run_cli(capsys, [*command, "--family", family, f"--param={param}",
                                      "--body", square_file])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_family_names_are_read_from_the_family_table():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("potential", "center", "locus"):
        family = next(a for a in sub.choices[command]._actions if a.dest == "family")
        assert tuple(family.choices) == FAMILY_NAMES
    classes = {"riesz": Riesz, "poisson": Poisson, "heat": Heat}
    assert FAMILY_NAMES == tuple(classes)
    for name, cls in classes.items():
        assert make_spec(name, 0.5) == cls(0.5)
    with pytest.raises(ValueError):
        make_spec("gauss", 0.5)


def test_bad_arguments_exit_two():
    assert run_module("bogus-command").returncode == 2
    assert run_module("center", "--family", "riesz").returncode == 2


def test_bad_range_is_config_error(capsys, square_file):
    code, _, err = run_cli(capsys, ["locus", "--family", "riesz", "--range", "oops",
                                    "--body", square_file])
    assert code == 1
    assert "range" in json.loads(err)["message"]


def test_help_lists_subcommands():
    proc = run_module("--help")
    assert proc.returncode == 0
    for cmd in ("potential", "center", "locus", "balance", "classify",
                "generate-asym", "limits", "concavity-check"):
        assert cmd in proc.stdout


def test_concavity_check(capsys, scalene_file):
    code, out, _ = run_cli(capsys, ["concavity-check", "--body", scalene_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) >= 6


def test_concavity_check_on_the_disk_is_closed_form(capsys, tmp_path, monkeypatch):
    # the unit-disk battery took 11,660 GK15 panels on quadrature
    calls = 0
    panel = quadrature._gk15_panel

    def counted(*args):
        nonlocal calls
        calls += 1
        return panel(*args)

    monkeypatch.setattr(quadrature, "_gk15_panel", counted)
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({"type": "disk", "center": [0, 0], "radius": 1}))
    code, out, _ = run_cli(capsys, ["concavity-check", "--body", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True and len(payload["checks"]) == 8
    assert calls == 0


@pytest.mark.parametrize("argv", [
    ["balance", "--at", "0.3,0.1", "--n-radii", "32"],
    ["locus", "--family", "heat", "--range", "0.1:1:3"],
])
def test_csv_cells_are_plain_numbers(capsys, square_file, argv):
    code, out, _ = run_cli(capsys, argv + ["--body", square_file, "--format", "csv"])
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        for cell in cells:
            float(cell)


def test_only_the_format_asked_for_is_rendered(capsys, monkeypatch, square_file):
    def refuse(*args, **kwargs):
        raise AssertionError("an SVG was rendered")

    for name in ("render_body", "render_locus", "render_balance_spectrum"):
        monkeypatch.setattr(cli.svgmod, name, refuse)
    locus = ["locus", "--family", "heat", "--range", "0.2:1:3"]
    for argv in (["balance"], ["balance", "--format", "csv"], locus, locus + ["--format", "csv"],
                 ["center", "--family", "riesz", "--param", "4"]):
        code, out, _ = run_cli(capsys, argv + ["--body", square_file])
        assert code == 0 and out, argv
    code, out, _ = run_cli(capsys, ["generate-asym"])
    assert code == 0 and json.loads(out)["type"] == "radial_arc"
    code, out, err = run_cli(capsys, ["classify", "--format", "csv", "--body", square_file])
    assert (code, out) == (1, "") and "has no CSV form" in json.loads(err)["message"]


def test_one_parser_serves_every_call_alike(capsys, monkeypatch, square_file):
    # one process runs the commands in turn; each must answer as in a fresh
    # process, so no option of one call may stay for the next
    builds = []

    def counted():
        builds.append(1)
        return _build_parser()

    monkeypatch.setattr(cli, "_build_parser", counted)
    potential = ["potential", "--family", "riesz", "--param", "0", "--at", "0.9,0.95"]
    commands = [
        potential + ["--tol", "1e-8"],
        ["center", "--family", "poisson", "--param", "1"],
        ["locus", "--family", "heat", "--range", "0.2:1:3", "--format", "csv"],
        ["center", "--family", "gauss", "--param", "1"],
        ["balance", "--at", "0.3,0.1", "--n-radii", "32"],
        potential,
    ]
    answers = []
    for argv in commands:
        argv = argv + ["--body", square_file]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_module(*argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout,
                                                      fresh.stderr), argv
        answers.append((code, captured.out))
    assert [code for code, _ in answers] == [0, 0, 0, 2, 0, 0]
    assert len(builds) <= 1         # built once per process
    # the tolerance moves this value, so a kept --tol would show
    assert json.loads(answers[0][1])["value"] != json.loads(answers[-1][1])["value"]
