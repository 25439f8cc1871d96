"""Configuration parsing and the command-line surface."""

import dataclasses
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from cxpt.cli import OPERATION_COVERAGE, _emit, run
from cxpt.clifford import Ball
from cxpt.config import DOCUMENTED_KEYS, Config, load_config
from cxpt.errors import ConfigParseError
from cxpt.fields import gaussian, parse_field_spec
from cxpt.geometry import ComplexPoint
from cxpt.numerics import FDScheme, Quadrature, sphere_rule
from cxpt.potential import regularized_jump, regularized_potential
from cxpt.source import descent_check, moments, singular_action
from cxpt.wave import CauchyData, solve_cauchy

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    schema = json.loads((SCHEMA_DIR / name).read_text())
    complex_schema = json.loads((SCHEMA_DIR / "complex.schema.json").read_text())

    def inline(node):
        if isinstance(node, dict):
            if node.get("$ref") == "complex.schema.json":
                return {k: v for k, v in complex_schema.items()
                        if not k.startswith("$")}
            return {k: inline(v) for k, v in node.items()}
        if isinstance(node, list):
            return [inline(v) for v in node]
        return node

    return inline(schema)


def write(tmp_path, text):
    path = tmp_path / "cxpt.conf"
    path.write_text(text)
    return str(path)


def test_empty_config_gives_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg == Config()


def test_config_overrides(tmp_path):
    cfg = load_config(write(tmp_path,
                            "quadrature.panel.order = 24\nquadrature.circle.order = 96\n"))
    assert cfg.panel_order == 24
    assert cfg.circle_order == 96
    assert cfg.interval_order == Config().interval_order


def test_config_comments_and_blanks(tmp_path):
    cfg = load_config(write(tmp_path, "# comment\n\nquadrature.panel.order = 8\n"))
    assert cfg.panel_order == 8


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigParseError, match="unknown key"):
        load_config(write(tmp_path, "quadrature.banana = 7\n"))
    with pytest.raises(ConfigParseError, match=":1:"):
        load_config(write(tmp_path, "not a key value line\n"))
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "quadrature.sphere.order = 3\n"))
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "default.a = -1\n"))


@pytest.mark.parametrize("line", [
    "fd.step = 1e-4",
    "fd.order = 4",
    "fd.richardson = true",
    "quadrature.radial.order = 16",
    "tolerance.classify = 1e-12",
    "output.format = json",
])
def test_config_deleted_keys_rejected(tmp_path, line):
    """Keys that never reached a computation are gone, not silently accepted."""
    with pytest.raises(ConfigParseError, match="unknown key"):
        load_config(write(tmp_path, line + "\n"))


def test_readme_config_block_matches_code():
    """The README's key list and defaults are exactly DOCUMENTED_KEYS and Config()."""
    readme = (SCHEMA_DIR.parent.parent / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```", 2)[1]
    documented = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            documented[key.strip()] = value.strip()
    assert set(documented) == set(DOCUMENTED_KEYS)
    defaults = Config()
    for key, text in documented.items():
        attr, parse = DOCUMENTED_KEYS[key]
        assert parse(text) == getattr(defaults, attr), key


def test_readme_config_constants_exist():
    """Every module constant the README's Configuration section names exists there."""
    readme = (SCHEMA_DIR.parent.parent / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    section = section.split("module constants", 1)[1]
    named, pending = [], []
    for token in re.findall(r"`([^`]+)`", section):
        if re.fullmatch(r"[A-Z][A-Z0-9_]*", token):
            pending.append(token)
        elif re.fullmatch(r"cxpt\.\w+", token) and pending:
            named += [(token, name) for name in pending]
            pending = []
    assert not pending, pending
    assert named
    for module, name in named:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


#: Per Quadrature field: its config line and a subcommand whose output depends on it.
QUADRATURE_PROBES = {
    "interval_order": ("quadrature.interval.order = 4",
                       ["source-action", "--n", "3", "--field", "plane_wave:2,1,0"]),
    "panel_order": ("quadrature.panel.order = 4",
                    ["source-action", "--n", "3", "--field", "plane_wave:2,1,0", "--eps", "0.1"]),
    "circle_order": ("quadrature.circle.order = 6",
                     ["source-action", "--n", "3", "--field", "plane_wave:2,1,0"]),
    "sphere_order": ("quadrature.sphere.order = 6",
                     ["source-action", "--n", "4", "--field", "plane_wave:2,1,0,0"]),
}


def test_cli_sets_every_quadrature_field(tmp_path, capsys):
    """Each Quadrature field is set by its config key and changes the CLI's output."""
    assert set(QUADRATURE_PROBES) == {f.name for f in dataclasses.fields(Quadrature)}
    for name, (line, argv) in QUADRATURE_PROBES.items():
        path = write(tmp_path, line + "\n")
        quadrature = load_config(path).quadrature()
        default = getattr(Quadrature(), name)
        assert getattr(quadrature, name) != default, name
        assert dataclasses.replace(quadrature, **{name: default}) == Quadrature(), name
        _, default_out, _ = run_cli(capsys, argv)
        code, out, _ = run_cli(capsys, ["--config", path] + argv)
        assert code == 0 and out != default_out, name


def test_config_quadrature_defaults_are_the_library_defaults():
    """Config() builds Quadrature(), and sphere_rule's default orders are Quadrature()'s."""
    assert Config().quadrature() == Quadrature()
    expected = {1: (64,), 2: (24, 48), 3: (14, 14, 28), 4: (10, 10, 10, 20)}
    for dim in range(1, 5):
        orders = Quadrature().sphere_orders(dim)
        assert orders == expected[dim]
        default, explicit = sphere_rule(dim), sphere_rule(dim, orders)
        assert np.array_equal(default.nodes, explicit.nodes)
        assert np.array_equal(default.weights, explicit.weights)


def test_cli_matches_the_library_at_default_config(capsys):
    """The CLI prints exactly the in-process library values for n = 3..6."""
    for n in range(3, 7):
        y = np.zeros(n)
        y[-1] = Config().default_a
        field = parse_field_spec("gaussian:1.0").to_field(n)
        _, out, _ = run_cli(capsys, ["source-action", "--n", str(n), "--field", "gaussian:1.0"])
        payload = json.loads(out)
        assert complex(payload["value_re"], payload["value_im"]) == singular_action(field, y, n)
        _, out, _ = run_cli(capsys, ["moments", "--n", str(n)])
        payload = json.loads(out)
        q_val, p_vec = moments(n, y)
        assert complex(payload["Q"]["re"], payload["Q"]["im"]) == q_val
        assert [complex(c["re"], c["im"]) for c in payload["P"]] == list(p_vec)
    spec = "plane_wave:1,0,0,0,0"
    _, out, _ = run_cli(capsys, ["wave", "--n", "5", "--v", spec, "--w", "constant:0",
                                 "--x", "0,0,0,0,0", "--t", "0.5", "--lattice-half", "0"])
    row = out.strip().splitlines()[1].split(",")
    data = CauchyData(parse_field_spec(spec).to_field(5),
                      parse_field_spec("constant:0").to_field(5), 5)
    assert complex(float(row[-2]), float(row[-1])) == solve_cauchy(data, np.zeros(5), 0.5)


def test_config_env(tmp_path, monkeypatch):
    path = write(tmp_path, "default.a = 2.5\n")
    monkeypatch.setenv("CXPT_CONFIG", path)
    from cxpt.config import config_from_env

    assert config_from_env().default_a == 2.5


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_gamma(capsys):
    code, out, _ = run_cli(capsys, ["gamma", "--n", "3", "--x", "2,0,0", "--y", "0,0,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == pytest.approx(np.sqrt(3.0))
    assert payload["q"] == 0.0
    assert payload["class"] == "Regular"


def test_cli_moments(capsys):
    code, out, _ = run_cli(capsys, ["moments", "--n", "3", "--y", "0,0,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["Q"]["re"] == pytest.approx(1.0, abs=1e-9)
    assert payload["P"][2]["im"] == pytest.approx(-1.0, abs=1e-9)


def test_cli_source_action_parts(capsys):
    code, out, _ = run_cli(capsys, ["source-action", "--n", "3", "--y", "0,0,1",
                                    "--field", "gaussian:1.0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(-0.07615901382553684, abs=1e-8)
    assert set(payload["parts"]) == {"rim", "single_layer", "double_layer"}
    total = sum(payload["parts"][k]["re"] for k in payload["parts"])
    assert total == pytest.approx(payload["value_re"], abs=1e-14)


def test_cli_regularized_action(capsys):
    code, out, _ = run_cli(capsys, ["source-action", "--n", "3", "--y", "0,0,1",
                                    "--field", "constant:1", "--eps", "0.01"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(1.0, abs=1e-6)
    assert abs(payload["value_re"] - 1.0) <= payload["err_estimate"] <= 1e-10


@pytest.mark.parametrize("argv, message", [
    (["--eps", "nan"], "eps must be positive and finite"),
    (["--eps", "inf"], "eps must be positive and finite"),
    (["--y", "nan,0,1"], "axis vector y must be finite"),
    (["--y", "0,inf,1", "--eps", "0.1"], "axis vector y must be finite"),
])
def test_cli_source_action_rejects_nonfinite_input(capsys, argv, message):
    code, out, err = run_cli(capsys, ["source-action", "--n", "3", "--field", "gaussian:1"]
                             + argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["gamma", "--n", "3", "--x", "nan,0,0", "--y", "0,0,1"],
    ["gamma", "--n", "3", "--x", "0.5,0,0", "--y", "0,-inf,1"],
    ["descent-check", "--field", "gaussian:1.5", "--window", "nan"],
    ["potential", "--n", "3", "--x", "0.2,0,0", "--y", "0,0,1", "--kind", "regularized",
     "--eps", "nan"],
    ["clifford", "bp-check", "--radius", "nan"],
    ["clifford", "ebp-check", "--x", "0.3,inf,0"],
    ["clifford", "maxwell-demo", "--t", "inf"],
    ["wave", "--n", "3", "--v", "plane_wave:1,0,0", "--w", "constant:0", "--x", "0,0,0",
     "--t", "nan"],
    ["wave-verify", "--n", "3", "--v", "plane_wave:1,0,0", "--w", "constant:0",
     "--x", "0.2,0,0.1", "--t=-inf"],
])
def test_cli_rejects_nonfinite_numbers(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "must be" in err and "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_default_a_must_be_finite(tmp_path, capsys, value):
    path = write(tmp_path, f"default.a = {value}\n")
    with pytest.raises(ConfigParseError, match="positive and finite"):
        load_config(path)
    code, out, err = run_cli(capsys, ["--config", path, "gamma", "--n", "3", "--x", "0.5,0,0"])
    assert code == 1
    assert out == ""
    assert "positive and finite" in err


@pytest.mark.parametrize("build", [
    lambda v: regularized_potential(ComplexPoint([0.2, 0, 0], [0, 0, 1.0]), 3, v),
    lambda v: regularized_jump(ComplexPoint([0.2, 0, 0], [0, 0, 1.0]), 3, v),
    lambda v: Ball(np.zeros(3), v),
    lambda v: descent_check(gaussian(1.5), [0.0, 0.0, 1.0], window=v),
    lambda v: FDScheme(h=v),
], ids=["regularized_potential", "regularized_jump", "Ball", "descent_check", "FDScheme"])
def test_library_rejects_nan_sizes(build):
    """Each guard of the form 'size <= 0' also refuses NaN, which compares false."""
    with pytest.raises(ValueError):
        build(float("nan"))


def test_emit_refuses_nonfinite_json(capsys):
    with pytest.raises(ValueError):
        _emit({"value": float("nan")})
    assert capsys.readouterr().out == ""


def test_cli_wave_csv(capsys):
    code, out, _ = run_cli(capsys, ["wave", "--n", "3", "--v", "plane_wave:1,0,0",
                                    "--w", "constant:0", "--x", "0,0,0",
                                    "--t", "0.5", "--lattice-half", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,t,re_u,im_u"
    row = lines[1].split(",")
    assert float(row[4]) == pytest.approx(np.cos(0.5), abs=1e-9)


def test_cli_wave_verify(capsys):
    code, out, _ = run_cli(capsys, ["wave-verify", "--n", "3",
                                    "--v", "plane_wave:1,0,0", "--w", "constant:0",
                                    "--x", "0.2,0,0.1", "--t", "0.4", "--half", "1"])
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-3


@pytest.mark.parametrize("extra", [["--step", "0"], ["--step", "-0.05"], ["--half", "0"]])
def test_cli_wave_verify_rejects_bad_lattice(capsys, extra):
    code, out, err = run_cli(capsys, ["wave-verify", "--n", "3",
                                      "--v", "plane_wave:1,0,0", "--w", "constant:0",
                                      "--x", "0.2,0,0.1", "--t", "0.4", *extra])
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("extra", [["--lattice-half", "1", "--step", "0"],
                                   ["--lattice-half", "-1"]])
def test_cli_wave_rejects_bad_lattice(capsys, extra):
    code, out, err = run_cli(capsys, ["wave", "--n", "3", "--v", "plane_wave:1,0,0",
                                      "--w", "constant:0", "--x", "0,0,0", "--t", "0.5",
                                      *extra])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_cli_import_leaves_scipy_unloaded():
    """numpy is the only runtime dependency: commands that build S^2, S^3 and S^4
    rules, the wave solver and the Clifford layer load no scipy module."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH"))
                                          if p))
    env.pop("CXPT_CONFIG", None)
    commands = [
        ["source-action", "--n", "4", "--field", "gaussian:1.0", "--eps", "1e-2"],
        ["wave", "--n", "5", "--v", "plane_wave:1,0,0,0,0", "--w", "constant:0",
         "--x", "0,0,0,0,0", "--t", "0.5", "--lattice-half", "0"],
        ["clifford", "ebp-check"],
        ["verify", "--suite", "7"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from cxpt.cli import run\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_descent(capsys):
    code, out, _ = run_cli(capsys, ["descent-check", "--y", "0,0,1",
                                    "--field", "gaussian:1.5"])
    assert code == 0
    assert json.loads(out)["abs_diff"] <= 1e-9


def test_cli_clifford_bp(capsys):
    code, out, _ = run_cli(capsys, ["clifford", "bp-check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["interior_error"] <= 1e-6
    assert payload["exterior_leakage"] <= 1e-6


def test_cli_clifford_reads_the_sphere_order(tmp_path, capsys):
    """quadrature.sphere.order reaches every clifford mode, which keeps criterion 11's bounds."""
    path = write(tmp_path, "quadrature.sphere.order = 16\n")
    bounds = {"bp-check": ("interior_error", "exterior_leakage"),
              "ebp-check": ("abs_diff",), "maxwell-demo": ("continuity_residual",)}
    for mode, keys in bounds.items():
        _, default_out, _ = run_cli(capsys, ["clifford", mode])
        code, out, _ = run_cli(capsys, ["--config", path, "clifford", mode])
        assert code == 0 and out != default_out, mode
        payload = json.loads(out)
        for key in keys:
            assert payload[key] <= 1e-4, (mode, key)


def test_cli_verify_subset(capsys):
    code, out, err = run_cli(capsys, ["verify", "--suite", "1,12"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [entry["criterion"] for entry in lines] == [1, 12]
    assert all(entry["passed"] for entry in lines)
    assert "PASS" in err


def test_cli_verify_ignores_the_config_quadrature(tmp_path, capsys):
    """``verify`` runs at the default rules, at which its thresholds are calibrated."""
    conf = write(tmp_path, "quadrature.sphere.order = 12\n")
    details = []
    for prefix in ([], ["--config", conf]):
        code, out, _ = run_cli(capsys, [*prefix, "verify", "--suite", "9"])
        assert code == 0
        details.append(json.loads(out)["details"])
    assert details[0] == details[1]


def test_cli_validation_errors(capsys):
    code, _, err = run_cli(capsys, ["gamma", "--n", "3", "--x", "1,0", "--y", "0,0,1"])
    assert code == 1
    assert "error" in err
    code, _, _ = run_cli(capsys, ["unknown-subcommand"])
    assert code == 1
    code, _, err = run_cli(capsys, ["verify", "--suite", "99"])
    assert code == 1


def test_cli_config_flag(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("quadrature.sphere.order = 3\n")
    code, _, err = run_cli(capsys, ["--config", str(bad), "gamma", "--n", "3",
                                    "--x", "2,0,0", "--y", "0,0,1"])
    assert code == 1
    assert "order must be >=" in err


def test_cli_deterministic_output(capsys):
    argv = ["source-action", "--n", "3", "--y", "0,0,1", "--field", "gaussian:1.0"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_cli_default_axis_from_config(tmp_path, capsys):
    # --y omitted: the axis defaults to default.a * e_n
    path = write(tmp_path, "default.a = 0.5\n")
    code, out, _ = run_cli(capsys, ["--config", path, "moments", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["P"][2]["im"] == pytest.approx(-0.5, abs=1e-9)
    code, out, _ = run_cli(capsys, ["gamma", "--n", "3", "--x", "2,0,0"])
    assert json.loads(out)["p"] == pytest.approx(np.sqrt(3.0))


def test_cli_outputs_match_schemas(capsys):
    import jsonschema

    cases = [
        (["gamma", "--n", "3", "--x", "2,0,0", "--y", "0,0,1"], "gamma.schema.json"),
        (["potential", "--n", "3", "--x", "0,0,1", "--y", "0,0,1"],
         "potential.schema.json"),
        (["source-action", "--n", "3", "--y", "0,0,1", "--field", "constant:1"],
         "source-action.schema.json"),
        (["source-action", "--n", "3", "--y", "0,0,1", "--field", "gaussian:1", "--eps",
          "0.1"], "source-action.schema.json"),
        (["moments", "--n", "4", "--y", "0,0,0,1"], "moments.schema.json"),
        (["descent-check", "--y", "0,0,1", "--field", "constant:1"],
         "descent-check.schema.json"),
        (["wave-verify", "--n", "3", "--v", "constant:0", "--w", "constant:1",
          "--x", "0,0,0", "--t", "0.3", "--half", "1"], "wave-verify.schema.json"),
        (["clifford", "bp-check"], "clifford.schema.json"),
        (["verify", "--suite", "12"], "verify.schema.json"),
    ]
    for argv, schema_name in cases:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        schema = load_schema(schema_name)
        for line in out.strip().splitlines():
            jsonschema.validate(json.loads(line), schema)


def test_cli_verify_numerical_failure_exit_code(capsys, monkeypatch):
    from cxpt import acceptance as acc
    from cxpt.acceptance import CriterionResult

    def failing():
        return CriterionResult(12, "forced failure", False, {})

    monkeypatch.setitem(acc.CRITERIA, 12, failing)
    code, _, err = run_cli(capsys, ["verify", "--suite", "12"])
    assert code == 2
    assert "FAILED" in err


def test_operation_coverage_table():
    # every operation appears exactly once, i.e. has a single owning subcommand
    assert len(set(OPERATION_COVERAGE)) == len(OPERATION_COVERAGE)
    subcommands = {"gamma", "potential", "source-action", "moments", "descent-check",
                   "wave", "wave-verify", "clifford", "verify"}
    assert set(OPERATION_COVERAGE.values()) <= subcommands
    import cxpt

    for op in OPERATION_COVERAGE:
        if op in ("run", "load_config"):
            continue
        assert hasattr(cxpt, op), f"operation {op} is not exported"
