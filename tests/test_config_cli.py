"""Configuration parsing and the command-line surface."""

import importlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from cxpt.cli import _emit, run
from cxpt.clifford import Ball
from cxpt.config import DOCUMENTED_KEYS, Config, load_config
from cxpt.errors import ConfigParseError
from cxpt.fields import gaussian, parse_field_spec
from cxpt.geometry import ComplexPoint
from cxpt.numerics import FDScheme
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
    cfg = load_config(write(tmp_path, "default.a = 2\n"))
    assert cfg.default_a == 2.0
    assert cfg == Config(default_a=2.0)


def test_config_comments_and_blanks(tmp_path):
    cfg = load_config(write(tmp_path, "# comment\n\ndefault.a = 8\n"))
    assert cfg.default_a == 8.0


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigParseError, match="unknown key"):
        load_config(write(tmp_path, "quadrature.banana = 7\n"))
    with pytest.raises(ConfigParseError, match=":1:"):
        load_config(write(tmp_path, "not a key value line\n"))
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "default.a = 1e151\n"))
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "default.a = -1\n"))


@pytest.mark.parametrize("line", [
    "fd.step = 1e-4",
    "fd.order = 4",
    "fd.richardson = true",
    "quadrature.radial.order = 16",
    "tolerance.classify = 1e-12",
    "output.format = json",
    "quadrature.panel.order = 16",
    "quadrature.circle.order = 64",
    "quadrature.sphere.order = 24",
    "quadrature.interval.order = 16",
])
def test_config_deleted_keys_rejected(tmp_path, capsys, line):
    """Keys that never reached a computation, and the quadrature orders that are now
    module constants, are gone, not silently accepted: a file that sets one is
    refused at load, naming the line and the key, and the CLI exits 1 with that
    message."""
    key = line.partition("=")[0].strip()
    path = write(tmp_path, "default.a = 2\n" + line + "\n")
    with pytest.raises(ConfigParseError, match=f":2: unknown key '{re.escape(key)}'"):
        load_config(path)
    code, out, err = run_cli(capsys, ["--config", path, "gamma", "--n", "3", "--x", "2,0,0"])
    assert code == 1 and out == ""
    assert f":2: unknown key '{key}'" in err


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


def readme_cli_examples():
    """(argv, expected stdout or None) for each ``cxpt`` line of the README's
    ``## CLI examples`` block, ``\\`` continuations joined; the expected stdout is
    the next line's comment when that comment is complete JSON."""
    readme = (SCHEMA_DIR.parent.parent / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    examples = []
    for line, following in zip(lines, lines[1:] + [""]):
        if not line.startswith("cxpt "):
            continue
        expected = None
        if following.startswith("#"):
            comment = following[1:].strip()
            try:
                json.loads(comment)
                expected = comment + "\n"
            except ValueError:
                pass
        examples.append((shlex.split(line)[1:], expected))
    return examples


def test_readme_cli_examples_run(capsys, monkeypatch):
    """Every CLI example of the README exits 0, and prints what its comment shows."""
    monkeypatch.delenv("CXPT_CONFIG", raising=False)
    examples = readme_cli_examples()
    assert len(examples) == 11
    assert sum(expected is not None for _, expected in examples) == 1
    for argv, expected in examples:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        if expected is not None:
            assert out == expected, argv


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


def test_cli_zero_regularized_action(capsys):
    """x_1 x_2 about y = (0.6, 0, 0, 0.8) has zero means on every sphere of the
    spheroid: the panel sums are rounding noise, and the action stops at the
    floor of the field's scale there instead of raising ConvergenceError."""
    code, out, err = run_cli(capsys, ["source-action", "--n", "4", "--y=0.6,0,0,0.8",
                                      "--field=polynomial:1,1,0,0=1.0", "--eps", "0.1"])
    assert code == 0, err
    payload = json.loads(out)
    assert abs(complex(payload["value_re"], payload["value_im"])) <= 1e-14


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


WAVE = ["wave", "--n", "3", "--w", "constant:0", "--x", "0,0,0", "--t", "0.5",
        "--lattice-half", "0", "--v"]


@pytest.mark.parametrize("argv", [
    ["source-action", "--n", "3", "--y", "0,0,1", "--field", "gaussian:0"],
    WAVE + ["gaussian:1e-200"],
    ["source-action", "--n", "3", "--field", "coordinate:1.5"],
    ["source-action", "--n", "3", "--field", "gaussian:-1"],
    ["source-action", "--n", "3", "--field", "gaussian:1,2"],
    ["source-action", "--n", "3", "--field", "constant:1,2"],
    ["source-action", "--n", "3", "--field", "polynomial:0,0,-1=1"],
    WAVE + ["gaussian:nan"],
    WAVE + ["plane_wave:nan,0,0"],
    WAVE + ["constant:nan"],
    WAVE + ["polynomial:0,0,0=nan"],
])
def test_cli_rejects_bad_field_specs(capsys, argv):
    """A field spec whose parameters do not fit its family exits 1 before any output,
    with an error naming the spec."""
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: field spec ")


@pytest.mark.parametrize("argv, name", [
    (["gamma", "--n", "3", "--x", "1e300,0,0", "--y", "0,0,1"], "--x"),
    (["gamma", "--n", "3", "--x", "0,0,0", "--y", "0,0,-2e150"], "axis vector y"),
    (["clifford", "bp-check", "--exterior", "1e151,0,0"], "--exterior"),
])
def test_cli_rejects_coordinates_whose_squares_overflow(capsys, argv, name):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"{name} entries must be at most 1e+150" in err


def test_config_default_a_is_bounded(tmp_path, capsys):
    path = write(tmp_path, "default.a = 1e151\n")
    code, out, err = run_cli(capsys, ["--config", path, "gamma", "--n", "3", "--x", "0.5,0,0"])
    assert code == 1
    assert out == ""
    assert "must be at most 1e+150" in err


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


def _wave_argv(n, v, w, x, t, m, step):
    return ["wave", "--n", str(n), "--v", v, "--w", w, "--x", ",".join(map(str, x)),
            "--t", str(t), "--lattice-half", str(m), "--step", str(step)]


def _per_point_rows(n, v, w, x, t, m, step):
    """(x, t text, u) of each lattice row as one ``solve_cauchy`` per point gives
    them, in the CLI's order: x in C order of the offsets, t fastest."""
    data = CauchyData(parse_field_spec(v).to_field(n), parse_field_spec(w).to_field(n), n)
    offsets, rows = range(-m, m + 1), []
    for axis_off in np.ndindex(*((2 * m + 1,) * n)):
        xx = np.asarray(x, dtype=float) + np.asarray(
            [offsets[i] for i in axis_off], dtype=float) * step
        for jt in offsets:
            tt = t + jt * step
            rows.append(([f"{c:.17g}" for c in xx] + [f"{tt:.17g}"], solve_cauchy(data, xx, tt)))
    return rows


@pytest.mark.parametrize("n, v, w, x, tol", [
    (2, "plane_wave:1,0.5", "gaussian:1.0", (0.1, 0.2), 1e-14),
    (3, "plane_wave:1,0,0", "plane_wave:1,0,0", (0, 0, 0), 1e-14),
    (3, "gaussian:1.0", "coordinate:1", (0.1, -0.2, 0.3), 1e-14),
    (5, "plane_wave:1,0,0,0,0", "constant:0", (0, 0, 0, 0, 0), 1e-11),
], ids=["n2", "n3-plane-wave", "n3-gaussian", "n5"])
def test_cli_wave_lattice_matches_per_point_solves(capsys, n, v, w, x, tol):
    """A lattice is one batch on one rule: its rows keep their x and t text and stay
    within rounding of a solve per point (the n = 5 stencils' floor at n = 5)."""
    code, out, _ = run_cli(capsys, _wave_argv(n, v, w, x, 0.5, 1, 0.1))
    assert code == 0
    lines = out.splitlines()[1:]
    want = _per_point_rows(n, v, w, x, 0.5, 1, 0.1)
    assert len(lines) == len(want) == 3 ** (n + 1)
    for line, (text, u) in zip(lines, want):
        cells = line.split(",")
        assert cells[:-2] == text
        assert abs(complex(float(cells[-2]), float(cells[-1])) - u) <= tol


@pytest.mark.parametrize("n, v", [(2, "plane_wave:1,0.5"), (3, "gaussian:1.0"),
                                  (5, "plane_wave:1,0,0,0,0")])
def test_cli_wave_single_point_keeps_its_bytes(capsys, n, v):
    x = (0.1,) * n
    code, out, _ = run_cli(capsys, _wave_argv(n, v, "constant:0.5", x, 0.7, 0, 0.1))
    assert code == 0
    [(text, u)] = _per_point_rows(n, v, "constant:0.5", x, 0.7, 0, 0.1)
    assert out.splitlines()[1] == ",".join(text + [f"{np.real(u):.17g}", f"{np.imag(u):.17g}"])


def test_cli_wave_solves_in_blocks(capsys, monkeypatch):
    """A lattice of 17^3 = 4,913 points is solved in blocks of at most MAX_POINTS."""
    from cxpt import wave
    from cxpt.numerics import MAX_POINTS

    blocks = []

    def solve(data, xs, ts):
        blocks.append(len(ts))
        return np.zeros(len(ts), dtype=complex)

    monkeypatch.setattr(wave, "_solve_lattice", solve)
    code, out, _ = run_cli(capsys, _wave_argv(2, "plane_wave:1,0", "constant:0", (0, 0),
                                               0.0, 8, 0.25))
    assert code == 0
    assert blocks == [MAX_POINTS, 17**3 - MAX_POINTS]
    lines = out.splitlines()
    assert len(lines) == 1 + 17**3
    assert lines[1].startswith("-2,-2,-2,") and lines[-1].startswith("2,2,2,")
    # the row after the first block: 4,096 = (14 * 17 + 2) * 17 + 16, so offsets (6, -6, 8)
    assert lines[1 + MAX_POINTS].startswith("1.5,-1.5,2,")


@pytest.mark.parametrize("t, m, message", [("0", 2, "x must be finite"),
                                          ("1e308", 1, "t must be finite")])
def test_cli_wave_refuses_an_overflowing_lattice(capsys, t, m, message):
    """Lattice points past the float range are refused as solve_cauchy refuses them,
    before any row is printed (a batch would print inf and nan rows)."""
    code, out, err = run_cli(capsys, _wave_argv(3, "plane_wave:1,0,0", "constant:0",
                                                (0, 0, 0), t, m, 1e308))
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)


def test_cli_ebp_check_near_the_boundary(capsys):
    """A point within the ball's boundary-rule spacing of the sphere, its branch disk
    well inside, is regular (it was refused as 'z is not regular')."""
    code, out, err = run_cli(capsys, ["clifford", "ebp-check", "--x", "0.9,0,0",
                                      "--y", "0,0,0.05"])
    assert (code, err) == (0, "")
    assert json.loads(out)["abs_diff"] <= 1e-12


def test_cli_wave_verify(capsys):
    code, out, _ = run_cli(capsys, ["wave-verify", "--n", "3",
                                    "--v", "plane_wave:1,0,0", "--w", "constant:0",
                                    "--x", "0.2,0,0.1", "--t", "0.4", "--half", "1"])
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-3


@pytest.mark.parametrize("extra", [["--step", "0"], ["--step", "-0.05"], ["--half", "0"],
                                   ["--step", "1e-160"], ["--step", "1e155"]])
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


def test_cli_import_leaves_numpy_polynomial_unloaded():
    """The singular and regularized actions keep their Chebyshev series as
    coefficient arrays: importing the CLI and running its source actions at
    n = 3 to 6 loads no ``numpy.polynomial`` module."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH"))
                                          if p))
    env.pop("CXPT_CONFIG", None)
    commands = [["source-action", "--n", str(n), "--field", "gaussian:1.0"] for n in (3, 4, 5, 6)]
    commands.append(["source-action", "--n", "4", "--field", "gaussian:1.0", "--eps", "1e-2"])
    probe = (
        "import contextlib, io, sys\n"
        "import cxpt.cli\n"
        "loaded = 'numpy.polynomial' in sys.modules\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cxpt.cli.run(argv) == 0, argv\n"
        "print(loaded, sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False []"


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


@pytest.mark.parametrize("argv, flag", [
    (["bp-check", "--x", "2,0,0"], "--x must lie inside"),
    (["bp-check", "--exterior", "0.1,0,0"], "--exterior must lie outside"),
    (["ebp-check", "--x", "1.5,0,0"], "--x and --y must put the branch disk"),
    (["ebp-check", "--radius", "0.1"], "--radius 0.1"),
])
def test_cli_clifford_refuses_points_on_the_wrong_side(capsys, argv, flag):
    """bp-check needs --x inside the ball and --exterior outside it, and ebp-check
    the branch disk x + E0(y) inside it; otherwise the error they printed had no
    meaning (interior_error 2.02, exterior_leakage 0.316, abs_diff 1.53 and 0.48)."""
    code, out, err = run_cli(capsys, ["clifford"] + argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and flag in err


def test_cli_verify_subset(capsys):
    code, out, err = run_cli(capsys, ["verify", "--suite", "1,12"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [entry["criterion"] for entry in lines] == [1, 12]
    assert all(entry["passed"] for entry in lines)
    assert "PASS" in err


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
    bad.write_text("default.a = 0\n")
    code, _, err = run_cli(capsys, ["--config", str(bad), "gamma", "--n", "3",
                                    "--x", "2,0,0", "--y", "0,0,1"])
    assert code == 1
    assert "default.a: must be positive" in err


def test_sphere_order_below_5_is_refused_where_it_is_set(tmp_path, capsys):
    """No sphere order is settable, 4 or any other: a config file that sets
    quadrature.sphere.order is refused at load, naming the line and the key, before
    any subcommand runs (exit 1)."""
    for order in (4, 24):
        path = write(tmp_path, f"# sphere rules\nquadrature.sphere.order = {order}\n")
        with pytest.raises(ConfigParseError, match=":2: unknown key 'quadrature.sphere.order'"):
            load_config(path)
        code, out, err = run_cli(capsys, ["--config", path, "source-action", "--n", "6",
                                          "--field", "polynomial:0,0,0,0,0,0=1"])
        assert code == 1 and out == ""
        assert ":2: unknown key 'quadrature.sphere.order'" in err


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
        (["clifford", "ebp-check"], "clifford.schema.json"),
        (["clifford", "maxwell-demo"], "clifford.schema.json"),
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


def test_spec_operations_are_exported():
    import cxpt

    for op in ("integrate_interval", "mean_on_sphere", "derivative", "complex_distance",
               "classify_point", "to_oblate", "from_oblate", "jacobian_volume", "grad_pq",
               "newtonian", "holomorphic_potential", "regularized_potential", "lambda_coeff",
               "regularized_action", "singular_action_r3", "singular_action_r4",
               "singular_action_even", "singular_action_odd", "moments", "centroid",
               "descent_check", "solve_cauchy", "extend", "wave_residual", "mv_mul",
               "dirac_apply", "cauchy_kernel", "regular_point", "borel_pompeiu",
               "extended_borel_pompeiu", "maxwell_extend"):
        assert hasattr(cxpt, op), f"operation {op} is not exported"
