import ctypes
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kickedtop import cli, dynamics, floquet, spectral, spin
from kickedtop.cli import build_parser, main, parse_kappa, parse_range
from kickedtop.errors import NumericalError
from kickedtop.floquet import KickParams, floquet_operator

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_output(path):
    """Header comments, column names, and float-parsed rows of a CSV."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: kickedtop.")
    assert lines[1].startswith("# config: ")
    config = json.loads(lines[1][len("# config: "):])
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return config, header, rows


def test_parse_kappa():
    assert parse_kappa("2.5") == 2.5
    assert parse_kappa("pi:16.4") == pytest.approx(16.4 * math.pi)


def test_parse_range():
    assert parse_range("0:60") == (0.0, 60.0)
    lo, hi = parse_range("pi:13:pi:20")
    assert lo == pytest.approx(13 * math.pi)
    assert hi == pytest.approx(20 * math.pi)
    lo, hi = parse_range("1:pi:2")
    assert (lo, hi) == (1.0, pytest.approx(2 * math.pi))
    with pytest.raises(ValueError):
        parse_range("1:2:3")
    with pytest.raises(ValueError):
        parse_range("5:1")


def test_spectrum_row_and_column_counts(tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--two-j", 10, "--kxky", "0:8", "--steps", 5,
                   "--ratio", 1.5, "--out", out) == 0
    config, header, rows = read_output(out)
    assert config["two_j"] == 10
    assert header[0] == "kxky"
    assert len(header) == 1 + 22
    assert len(rows) == 5


def test_spectrum_single_zero_row(tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--two-j", 4, "--kxky", "0:0", "--steps", 1,
                   "--out", out) == 0
    _, _, rows = read_output(out)
    assert len(rows) == 1
    eps = np.array(rows[0][1:], dtype=float)
    assert np.abs(eps).max() < 1e-12


@pytest.mark.parametrize("two_j", [40, 41])
def test_levels_at_exactly_zero_print_unsigned(tmp_path, two_j):
    # every level of the kxky = 0 row is exactly 0, in both sectors
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--two-j", two_j, "--kxky", "0:60", "--steps", 2,
                   "--ratio", 1, "--out", out) == 0
    _, _, rows = read_output(out)
    assert rows[0] == ["0"] * (2 * two_j + 3)


def test_empty_range_is_config_error(tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--two-j", 4, "--kxky", "5:1", "--steps", 3,
                   "--out", out) == 2
    assert not out.exists()


def test_bad_two_j_is_config_error(tmp_path):
    assert run_cli("stages", "--two-j", 0) == 2


def test_unwritable_out_fails_before_any_operator_is_built(tmp_path, capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "floquet_operator",
                        lambda *args: builds.append(1) or floquet_operator(*args))
    out = tmp_path / "missing" / "curve.csv"
    assert run_cli("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 3,
                   "--out", out) == 2
    assert str(out) in capsys.readouterr().err
    assert builds == []
    assert run_cli("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 3,
                   "--out", tmp_path / "curve.csv") == 0
    assert len(builds) == 3


@pytest.mark.parametrize("argv, named", [
    (("dynamics", "--two-j", 10, "--ky", "pi:2", "--nx", "1", "--z0", 1.5), ("z0", "1.5")),
    (("dynamics", "--two-j", 10, "--ky", "0", "--nx", "1"), ("kappa_y",)),
    (("dynamics", "--two-j", 10, "--ky", "pi:2", "--nx", "1,0"), ("n_x",)),
    (("dynamics", "--two-j", 10, "--ky", "pi:2", "--nx", "1", "--n-max", 0), ("n_max",)),
    (("dynamics", "--two-j", 10, "--ky", "pi:2", "--nx", "1", "--variant", "sym1",
      "--delta", 0.5), ("delta",)),
    (("entropy", "--two-j", 10, "--kxky", "1:4", "--steps", 2, "--delta", 0.5),
     ("variant 'sym1'", "delta=0.5")),
    (("dynamics", "--two-j", 10, "--ky", "pi:2", "--nx", "2.5"), ("--nx", "'2.5'")),
    (("rcurve", "--two-j", 1, "--kxky", "1:4", "--steps", 2), ("two_j",)),
    (("rgrid", "--two-j", 1, "--kx", "1:2", "--ky", "1:2", "--steps", 1), ("two_j",)),
], ids=["dynamics-z0", "dynamics-ky", "dynamics-nx", "dynamics-n-max",
        "dynamics-variant-delta", "entropy-variant-delta", "dynamics-nx-float",
        "rcurve-two-j-1", "rgrid-two-j-1"])
def test_config_error_builds_nothing_and_keeps_an_existing_out(tmp_path, capsys,
                                                               monkeypatch, argv, named):
    builds = []
    for module in (cli, dynamics):
        monkeypatch.setattr(module, "floquet_operator",
                            lambda *args: builds.append(1) or floquet_operator(*args))
    out = tmp_path / "results.csv"
    out.write_text("earlier results\n")
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(text in err for text in named)      # the message names the input
    assert builds == []
    assert out.read_text() == "earlier results\n"
    args = build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(ValueError):
        args.func(args)     # the command rejects its options before it returns a job


_DELTA_COMMANDS = {
    "spectrum": ("--kxky", "1:4", "--steps", 2),
    "rgrid": ("--kx", "1:2", "--ky", "1:2", "--steps", 2),
    "rcurve": ("--kxky", "1:4", "--steps", 2),
    "entropy": ("--kxky", "1:4", "--steps", 2),
    "dynamics": ("--ky", "pi:2", "--nx", "1"),
    "symcheck": ("--kx", "1", "--ky", "1"),
}


@pytest.mark.parametrize("argv, option, text", [
    (("rgrid", "--kx=-1:1", "--ky", "1:2", "--steps", 2), "--kx", "'-1:1'"),
    (("rgrid", "--kx", "1:2", "--ky=-1:1", "--steps", 2), "--ky", "'-1:1'"),
    (("symcheck", "--kx=-1", "--ky", "1"), "--kx", "'-1'"),
    (("symcheck", "--kx", "1", "--ky=-1"), "--ky", "'-1'"),
    (("entropy", "--kxky=-1:1", "--steps", 2), "--kxky", "'-1:1'"),
    (("dynamics", "--ky=-1", "--nx", "1"), "--ky", "'-1'"),
    (("rgrid", "--kx", "1:2", "--ky", "1:2", "--steps", 2, "--delta", "inf"), "--delta", "'inf'"),
] + [((name, *rest, "--delta", "-1"), "--delta", "'-1'")
     for name, rest in _DELTA_COMMANDS.items()],
    ids=["rgrid-kx", "rgrid-ky", "symcheck-kx", "symcheck-ky", "entropy-kxky", "dynamics-ky",
         "rgrid-delta-inf"] + [f"{name}-delta" for name in _DELTA_COMMANDS])
def test_negative_option_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, option, text):
    builds = []
    for module in (cli, dynamics):
        monkeypatch.setattr(module, "floquet_operator",
                            lambda *args: builds.append(1) or floquet_operator(*args))
    out = tmp_path / "results.csv"
    out.write_text("earlier results\n")
    try:
        code = run_cli(argv[0], "--two-j", 10, *argv[1:], "--out", out)
    except SystemExit as exc:      # --delta is checked by argparse, which exits
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert option in err and text in err
    assert builds == []
    assert out.read_text() == "earlier results\n"


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
@pytest.mark.parametrize("error", [NumericalError("forced failure"), KeyboardInterrupt()],
                         ids=["numerical", "interrupt"])
def test_failed_run_keeps_an_existing_out_and_removes_a_new_one(tmp_path, capsys,
                                                                monkeypatch, existing, error):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "sector_eigenphases", fail)
    out = tmp_path / "results.csv"
    if existing:
        out.write_text("earlier results\n")
    argv = ("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 2, "--out", out)
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv)
    else:
        assert run_cli(*argv) == 3
    assert out.exists() == existing
    if existing:
        assert out.read_text() == "earlier results\n"


def test_successful_run_replaces_an_existing_out(tmp_path):
    out = tmp_path / "results.csv"
    out.write_text("earlier results\n" * 10_000)
    assert run_cli("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 2, "--out", out) == 0
    assert "earlier" not in out.read_text()
    assert len(read_output(out)[2]) == 2


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_is_config_error(tmp_path, workers):
    out = tmp_path / "curve.csv"
    assert run_cli("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 2,
                   "--workers", workers, "--out", out) == 2
    assert not out.exists()


def test_tol_bound_is_an_rcurve_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--two-j", 4, "--kxky", "1:2", "--steps", 2, "--tol-bound", 0.1)
    assert exc.value.code == 2
    assert "--tol-bound" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [0, -1, "nan", "inf"])
def test_non_positive_tol_bound_is_config_error(tmp_path, tol):
    out = tmp_path / "curve.csv"
    assert run_cli("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 2,
                   "--tol-bound", tol, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (("rcurve", "--two-j", 10, "--kxky", "nan:4", "--steps", 2), "kxky"),
    (("symcheck", "--two-j", 10, "--kx", 1.0, "--ky", "inf"), "kappa_y"),
    (("rgrid", "--two-j", 10, "--kx", "1:2", "--ky", "1:2", "--steps", 2,
      "--delta", "inf"), "delta"),
])
def test_non_finite_kick_parameter_is_config_error(tmp_path, capsys, argv, field):
    out = tmp_path / "out.csv"
    try:
        code = run_cli(*argv, "--out", out)
    except SystemExit as exc:      # --delta is checked by argparse, which exits
        code = exc.code
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name, text", [
    (("dynamics", "--two-j", 10, "--ky", "nan", "--nx", "1", "--n-max", 5), "kappa_y", "'nan'"),
    (("rcurve", "--two-j", 10, "--kxky", "1:inf", "--steps", 3), "kxky", "'inf'"),
    (("rgrid", "--two-j", 10, "--kx", "1:pi:inf", "--ky", "1:2", "--steps", 2),
     "kappa_x", "'pi:inf'"),
    (("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 2, "--ratio", "nan"), "--ratio", "nan"),
    (("spectrum", "--two-j", 10, "--kxky", "1:4", "--steps", 2, "--ratio", "inf"), "--ratio",
     "inf"),
])
def test_non_finite_option_text_is_config_error(tmp_path, capsys, recwarn, argv, name, text):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be") and text in err
    assert "Warning" not in err and len(recwarn) == 0
    assert not out.exists()


@pytest.mark.parametrize("argv, text", [
    (("spectrum", "--two-j", 4, "--kxky=-4:-1", "--steps", 2), "'-4:-1'"),
    (("rcurve", "--two-j", 4, "--kxky=-1:1", "--steps", 3), "'-1:1'"),
])
def test_negative_kick_product_is_config_error(tmp_path, capsys, argv, text):
    # no real kick strengths have a negative product: refused where --kxky is
    # parsed, before any operator is built, not by math.sqrt
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kxky must be") and text in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("spectrum", "--two-j", 10, "--kxky", "1:4", "--steps", 2, "--ratio", "1e-320"),
    ("rcurve", "--two-j", 10, "--kxky", "1e308:1.7e308", "--steps", 2, "--ratio", "1e-5"),
])
def test_overflowing_ratio_names_ratio_and_kxky(tmp_path, capsys, recwarn, argv):
    # product / ratio overflows: the inputs are to blame, not the derived kappa_x
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kxky") and "--ratio" in err and "kappa_x" not in err
    assert len(recwarn) == 0
    assert not out.exists()


def test_readme_commands_parse_and_removed_options_are_rejected(capsys):
    block = re.search(r"## Command line\n.*?```\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("kickedtop ")]
    assert len(commands) == 8
    for argv in commands:
        build_parser().parse_args(argv)
    removed = [["stages", "--two-j", "4", "--workers", "2"],
               ["stages", "--two-j", "4", "--delta", "1"],
               ["stages", "--two-j", "4", "--variant", "sym1"],
               ["symcheck", "--two-j", "4", "--kx", "1", "--ky", "1", "--workers", "2"]]
    removed += [[*argv, "--variant", "sym1"] for argv in commands
                if argv[0] in ("spectrum", "rgrid", "rcurve")]
    for argv in removed:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err


def test_readme_library_example_runs():
    block = re.search(r"## Library example\n+```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    result = subprocess.run([sys.executable, "-c", block], cwd=ROOT, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("\n") >= 2


@pytest.mark.parametrize("argv", [
    ("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 2),
    ("stages", "--two-j", 10),
], ids=["rcurve", "stages"])
def test_unwritable_out_is_config_error(capsys, argv):
    path = "/nonexistent/dir/x.csv"
    assert run_cli(*argv, "--out", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


@pytest.mark.parametrize("argv, target, where", [
    (("rcurve", "--two-j", 10, "--kxky", "1:4", "--steps", 2),
     (cli, "sector_eigenphases"), "at kxky 1: "),
    (("rgrid", "--two-j", 10, "--kx", "1:2", "--ky", "3:3", "--steps", 1),
     (cli, "sector_eigenphases"), "at kx 1, ky 3: "),
    (("dynamics", "--two-j", 10, "--ky", "pi:2", "--nx", "2", "--n-max", 5),
     (dynamics, "stroboscopic_series"), "at n_x 2: "),
], ids=["rcurve", "rgrid", "dynamics"])
def test_numerical_failure_names_the_point(tmp_path, capsys, monkeypatch, argv, target, where):
    def fail(*args, **kwargs):
        raise NumericalError("forced failure")

    monkeypatch.setattr(*target, fail)
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out) == 3
    assert capsys.readouterr().err == f"numerical failure: {where}forced failure\n"
    assert not out.exists()


@pytest.mark.parametrize("two_j", [12, 13])
def test_delta_zero_commands_take_the_stored_fold(tmp_path, monkeypatch, two_j):
    # floquet_operator stores the fold of every delta = 0 core, and the
    # solver and the real evolution take it as it is: once the per-two_j
    # data are cached, no fold is read from a core, and no sweep falls back
    # to a complex solve or evolution
    floquet_operator(KickParams(1.0, 1.0), two_j)
    calls = []
    for module, name in ((floquet, "chiral_fold"), (spectral, "sector_eigenpairs"),
                         (dynamics, "_batched_moments")):
        monkeypatch.setattr(module, name, lambda *a, call=getattr(module, name), name=name:
                            calls.append(name) or call(*a))
    for argv in (("rcurve", "--kxky", "1:300", "--steps", 3),
                 ("spectrum", "--kxky", "1:300", "--steps", 3),
                 ("entropy", "--kxky", "10:300", "--steps", 2, "--grid", 6),
                 ("dynamics", "--ky", "pi:2", "--nx", "1,2", "--n-max", 5)):
        assert run_cli(*argv, "--two-j", two_j, "--out", tmp_path / f"{argv[0]}.csv") == 0
    assert calls == []


@pytest.mark.parametrize("two_j", [12, 13])
def test_delta_builds_solve_no_tridiagonal_eigenproblem(tmp_path, monkeypatch, two_j):
    # a delta kick is the cached eigenbasis turned pair by pair, so once the
    # cached eigensystem is built a delta sweep solves no eigenproblem
    floquet_operator(KickParams(1.0, 1.0), two_j)
    calls = []
    monkeypatch.setattr(spin, "_tridiagonal_eigh",
                        lambda *a, solve=spin._tridiagonal_eigh: calls.append(1) or solve(*a))
    floquet_operator(KickParams(1.9, 17.0, delta=0.7), two_j)
    assert run_cli("rcurve", "--kxky", "1:300", "--steps", 3, "--delta", 0.7,
                   "--two-j", two_j, "--out", tmp_path / "rcurve.csv") == 0
    assert calls == []
    # the patch sees the solve of the cached eigensystem: the count is not vacuous
    spin.jx_eigensystem.__wrapped__(two_j)
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("--two-j", 40, "--ky", "pi:8", "--z0", 0, "--nx", "13"),
    ("--two-j", 10, "--ky", "1e-300", "--nx", "1"),
], ids=["z0-0", "ky-1e-300"])
def test_dynamics_at_equator_and_tiny_ky(tmp_path, argv):
    out = tmp_path / "dyn.csv"
    assert run_cli("dynamics", *argv, "--n-max", 10, "--out", out) == 0
    assert len(read_output(out)[2]) == 11


def test_dynamics_rejects_z0_outside_the_sphere(tmp_path, capsys):
    out = tmp_path / "dyn.csv"
    assert run_cli("dynamics", "--two-j", 10, "--ky", "pi:2", "--z0", 1.5,
                   "--nx", "1", "--n-max", 5, "--out", out) == 2
    assert "z0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("two_j, delta, twins", [(20, 0.0, True), (21, 0.0, False),
                                                 (20, 0.7, False), (21, 0.7, False)])
def test_rgrid_sector_columns_equal_only_for_twins(tmp_path, two_j, delta, twins):
    # even 2j: the -1 sector is the conjugate mirror of the +1 sector, with the
    # levels -eps, so r_plus = r_minus; without delta (twins) the chiral
    # symmetry makes -eps the same levels and the columns equal exactly, with
    # delta up to rounding
    out = tmp_path / "rgrid.csv"
    assert run_cli("rgrid", "--two-j", two_j, "--delta", delta, "--kx", "1.9:6",
                   "--ky", "2:17", "--steps", 3, "--out", out) == 0
    _, header, rows = read_output(out)
    plus = [row[header.index("r_plus")] for row in rows]
    minus = [row[header.index("r_minus")] for row in rows]
    assert len(rows) == 9
    if twins:
        assert plus == minus
    elif two_j % 2 == 0:
        assert all(abs(float(p) - float(m)) <= 1e-12 for p, m in zip(plus, minus))
    else:
        assert all(abs(float(p) - float(m)) > 1e-3 for p, m in zip(plus, minus))


def test_rgrid_symmetric_under_kick_exchange(tmp_path):
    out = tmp_path / "rgrid.csv"
    assert run_cli("rgrid", "--two-j", 40, "--kx", "1:6", "--ky", "1:6",
                   "--steps", 4, "--out", out) == 0
    _, header, rows = read_output(out)
    assert header == ["kx", "ky", "r_mean", "r_plus", "r_minus", "stage"]
    assert len(rows) == 16
    table = {(row[0], row[1]): float(row[2]) for row in rows}
    for (kx, ky), r_mean in table.items():
        assert abs(table[(ky, kx)] - r_mean) <= 1e-6


def test_rcurve_counts_bound_states(tmp_path):
    out = tmp_path / "rcurve.csv"
    assert run_cli("rcurve", "--two-j", 40, "--kxky", "0.25:4", "--steps", 4,
                   "--tol-bound", 0.1, "--out", out) == 0
    config, header, rows = read_output(out)
    assert header == ["kxky", "value", "stage", "n_bound"]
    assert config["tol_bound"] == 0.1
    # deep topological points keep at least the two polar states
    assert all(int(row[3]) >= 2 for row in rows)
    assert all(row[2] == "topological" for row in rows)


@pytest.mark.parametrize("two_j", [4, 400])
def test_rcurve_at_huge_kicks(tmp_path, two_j):
    # kx near 1e150 multiplies every rounding residue of the eigenvalues of Jx;
    # the unpaired middle level of even 2j is exactly 0, so the core stays
    # unitary and the point solves
    out = tmp_path / "rcurve.csv"
    assert run_cli("rcurve", "--two-j", two_j, "--kxky", "1e300:1e300", "--steps", 1,
                   "--out", out) == 0
    assert len(read_output(out)[2]) == 1


def test_entropy_columns_and_baseline(tmp_path):
    out = tmp_path / "s2.csv"
    assert run_cli("entropy", "--two-j", 20, "--kxky", "2:30", "--steps", 3,
                   "--ratio", 1.7, "--grid", 12, "--out", out) == 0
    config, header, rows = read_output(out)
    assert header == ["kxky", "value", "stage", "baseline"]
    assert config["variant"] == "sym1"
    dim = 42
    for row in rows:
        assert 0.0 <= float(row[1]) <= 1.0
        assert float(row[3]) == pytest.approx(math.log((dim + 2) / 3) / math.log(dim))


def test_entropy_rejects_zero_product(tmp_path):
    out = tmp_path / "s2.csv"
    assert run_cli("entropy", "--two-j", 10, "--kxky", "0:10", "--steps", 3,
                   "--out", out) == 2
    assert not out.exists()


def test_dynamics_long_format(tmp_path):
    out = tmp_path / "dyn.csv"
    assert run_cli("dynamics", "--two-j", 20, "--ky", "pi:2", "--z0", 0.5,
                   "--nx", "1,2", "--n-max", 20, "--out", out) == 0
    _, header, rows = read_output(out)
    assert header == ["n", "kx", "jz_mean_over_j", "jz_std_over_j"]
    assert len(rows) == 2 * 21
    kx_values = sorted({row[1] for row in rows})
    assert len(kx_values) == 2
    assert np.abs(np.array([float(r[2]) for r in rows])).max() <= 1.0 + 1e-9


def test_symcheck_report(tmp_path):
    out = tmp_path / "sym.json"
    assert run_cli("symcheck", "--two-j", 11, "--kx", 1.3, "--ky", 2.1,
                   "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "kickedtop.symcheck.v1"
    assert doc["config"]["variant"] == "sym1"
    residuals = doc["report"]["residuals"]
    assert all(v <= 1e-10 for v in residuals.values())
    assert doc["report"]["parity_offblock"] <= 1e-12
    # 2j odd: the second time reversal squares to +1
    assert doc["report"]["squared_signs"]["time_reversal_2"] == 1


def test_symcheck_broken_chirality(tmp_path):
    out = tmp_path / "sym.json"
    assert run_cli("symcheck", "--two-j", 10, "--kx", 1.0, "--ky", 2.0,
                   "--delta", 1.6, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["variant"] == "plain"
    assert doc["report"]["residuals"]["chiral"] > 1e-6
    assert doc["report"]["residuals"]["parity"] <= 1e-10
    assert doc["report"]["squared_signs"]["time_reversal_2"] == -1


def test_stages_table(tmp_path, capsys):
    assert run_cli("stages", "--two-j", 1000) == 0
    text = capsys.readouterr().out
    assert "786.1836" in text
    assert "1572.3671" in text
    assert "3144.7342" in text

    out = tmp_path / "stages.csv"
    assert run_cli("stages", "--two-j", 1000, "--out", out) == 0
    _, header, rows = read_output(out)
    assert header == ["border", "kxky_exact", "kxky_approx"]
    approx = [float(r[2]) for r in rows]
    assert approx == pytest.approx([math.pi * 250, math.pi * 500, math.pi * 1000])


def test_rgrid_point_matches_rcurve_point(tmp_path):
    # same code path: a grid cell and a product-scan point at the same
    # (kx, ky) must produce the identical statistic
    grid_out = tmp_path / "grid.csv"
    curve_out = tmp_path / "curve.csv"
    assert run_cli("rgrid", "--two-j", 24, "--kx", "2:2", "--ky", "3:3",
                   "--steps", 1, "--out", grid_out) == 0
    assert run_cli("rcurve", "--two-j", 24, "--kxky", "6:6", "--steps", 1,
                   "--ratio", 1.5, "--out", curve_out) == 0
    _, _, grid_rows = read_output(grid_out)
    _, _, curve_rows = read_output(curve_out)
    assert abs(float(grid_rows[0][2]) - float(curve_rows[0][1])) <= 1e-12


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "a.csv"
    argv = ["rcurve", "--two-j", 30, "--kxky", "1:40", "--steps", 6, "--ratio", 1.3,
            "--out", out]
    assert run_cli(*argv) == 0
    first = out.read_bytes()
    assert run_cli(*argv) == 0
    assert out.read_bytes() == first


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path):
    assert build_parser() is build_parser()
    runs = [("rcurve", "--kxky", "1:40", "--steps", 2, "--delta", 0.7),
            ("rcurve", "--kxky", "1:40", "--steps", 2),
            ("dynamics", "--ky", "pi:2", "--nx", "1", "--n-max", 3)]
    configs = []
    for i, argv in enumerate(runs):
        argv = [str(a) for a in argv + ("--two-j", 10, "--out", tmp_path / f"{i}.csv")]
        assert main(argv) == 0
        configs.append(read_output(tmp_path / f"{i}.csv")[0])
        # the config of a parser built for this call alone
        fresh = vars(build_parser.__wrapped__().parse_args(argv))
        assert configs[-1] == {key: value for key, value in fresh.items() if key != "func"}
    assert [config["delta"] for config in configs] == [0.7, 0.0, 0.0]
    assert "kxky" not in configs[2] and "nx" not in configs[1]


def test_worker_count_does_not_change_records(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    argv = ["rgrid", "--two-j", 30, "--kx", "1:5", "--ky", "1:5", "--steps", 3]
    assert run_cli(*argv, "--workers", 1, "--out", a) == 0
    assert run_cli(*argv, "--workers", 2, "--out", b) == 0
    ca, ha, ra = read_output(a)
    cb, hb, rb = read_output(b)
    assert ha == hb
    assert ca["workers"] == 1 and cb["workers"] == 2
    for row_a, row_b in zip(ra, rb):
        assert row_a[:2] == row_b[:2] and row_a[5] == row_b[5]
        for x, y in zip(row_a[2:5], row_b[2:5]):
            assert abs(float(x) - float(y)) <= 1e-12


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _faults_per_point(argv: list, env: dict) -> float:
    """Page faults per point of the second of two identical sweeps (argv,
    whose --steps comes last) in one fresh process, run with env added to
    the environment."""
    script = ("import contextlib, io, resource\n"
              "from kickedtop.cli import main\n"
              "def faults():\n"
              "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              f"        assert main({argv!r}) == 0\n"
              "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
              "faults()\n"
              "print(faults())\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True,
                         env={**os.environ, **env, "PYTHONPATH": str(ROOT / "src")}).stdout
    return int(out) / int(argv[-1])


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_sweep_points_take_no_page_faults():
    # main keeps freed heap instead of handing it back to the kernel, so the
    # second of two identical sweeps in one process maps no fresh pages;
    # without that, a point at two_j 200 takes about 1300 page faults
    argv = ["entropy", "--two-j", "200", "--kxky", "10:2600", "--ratio", "1.7", "--grid", "8",
            "--steps", "5"]
    assert _faults_per_point(argv, {}) < 50


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_sweep_points_take_no_page_faults_from_a_low_mmap_threshold():
    # the process starts with glibc's mmap threshold at 128 KiB, below the
    # blocks of a point at two_j 400; main sets the threshold itself, so no
    # block is mapped afresh (with M_TOP_PAD alone a point took about 26
    # page faults here)
    argv = ["rcurve", "--two-j", "400", "--kxky", "10:4000", "--ratio", "1.7", "--steps", "3"]
    assert _faults_per_point(argv, {"MALLOC_MMAP_THRESHOLD_": "131072"}) < 5


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [lambda name: SimpleNamespace(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_main_runs_where_the_heap_cannot_be_padded(tmp_path, monkeypatch, libc):
    out = tmp_path / "s2.csv"
    argv = ["entropy", "--two-j", 12, "--kxky", "10:300", "--steps", 2, "--grid", 6,
            "--out", out]
    assert run_cli(*argv) == 0
    padded = out.read_bytes()
    monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=libc, c_int=ctypes.c_int))
    cli._pad_heap.cache_clear()
    try:
        assert run_cli(*argv) == 0
    finally:
        cli._pad_heap.cache_clear()
    assert out.read_bytes() == padded
