"""Command-line front end: config parsing, the four subcommands, output
formats, and exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import diracosc
from diracosc import analytic, cli, dirac_solver, susy_reduction
from diracosc.cli import (
    RunConfig,
    load_config,
    main,
    parse_config_text,
)
from diracosc.errors import ConfigError, ConvergenceError
from diracosc.model import PhysicalParams, Superpotential, reduced_index


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    """(preamble lines without '# ', header columns, rows as dicts of str)."""
    preamble, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("# "):
            preamble.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return preamble, header, rows


# ---------------------------------------------------------------- config


def test_parse_config_text_types_and_comments():
    text = """
    # full-line comment
    model.family = tan     # trailing comment
    model.kappa = 0.5
    grid.n = 1200
    solver.tolerance = 1e-7
    output.path = out.csv
    """
    parsed = parse_config_text(text)
    assert parsed == {
        "model.family": "tan",
        "model.kappa": 0.5,
        "grid.n": 1200,
        "solver.tolerance": 1e-7,
        "output.path": "out.csv",
    }
    assert isinstance(parsed["grid.n"], int)
    assert isinstance(parsed["model.kappa"], float)


def test_parse_config_text_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("model.frequency = 2\n")


def test_parse_config_text_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("model.kappa = 0\njust words\n")


def test_parse_config_text_rejects_bad_number():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("grid.n = many\n")


def test_load_config_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.kappa = 0.3\nsolver.levels = 7\n")
    cfg = load_config(str(path), {"model.kappa": 0.6})
    assert cfg.kappa == 0.6
    assert cfg.levels == 7
    # untouched keys keep their defaults
    assert cfg.family == "linear" and cfg.n == 4000


def test_load_config_rejects_unknown_override():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, {"model.omega": "1"})


def test_load_config_validates_ranges():
    with pytest.raises(ConfigError, match="levels"):
        load_config(None, {"solver.levels": "0"})
    with pytest.raises(ConfigError, match="route"):
        load_config(None, {"solver.route": "magic"})
    with pytest.raises(ConfigError, match="table_path"):
        load_config(None, {"model.family": "tabulated"})


def test_defaults():
    cfg = RunConfig()
    assert (cfg.family, cfg.route, cfg.format) == ("linear", "all", "csv")
    assert (cfg.n, cfg.levels) == (4000, 5)
    assert cfg.tolerance == 1e-6 and cfg.kappa == 0.0


# ---------------------------------------------------------------- spectrum


def test_spectrum_analytic_closed_form_table():
    code, out, err = run_cli([
        "spectrum", "--solver.route", "analytic", "--solver.levels", "3",
    ])
    assert code == 0 and err == ""
    preamble, header, rows = parse_csv(out)
    assert preamble == []
    assert header == ["route", "branch", "sigma", "n", "n_sigma", "E",
                      "epsilon", "converged", "err_est"]
    assert all(r["route"] == "analytic" for r in rows)
    assert all(r["converged"] == "true" for r in rows)
    # |E| = {1, sqrt3 x2, sqrt5 x2} from the two level labels; the unpaired
    # level 1 = +E0 is on the positive branch only
    expect = [1.0, math.sqrt(3), math.sqrt(3), math.sqrt(5), math.sqrt(5)]
    for sign, want in (("+", expect), ("-", expect[1:])):
        mags = sorted(abs(float(r["E"])) for r in rows if r["branch"] == sign)
        np.testing.assert_allclose(mags, want, rtol=1e-12)


def test_spectrum_route_all_cross_checks():
    code, out, err = run_cli([
        "spectrum", "--model.kappa", "0.6", "--grid.n", "1200",
    ])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[-1] == "xcheck"
    assert {r["route"] for r in rows} == {"analytic", "susy", "dirac"}
    # measured max cross-route discrepancy 6.5e-7 at this grid
    assert max(float(r["xcheck"]) for r in rows) <= 1e-5


def test_spectrum_row_order_is_a_function_of_the_labels(monkeypatch):
    # a 1e-13 move of the lattice's energies, opposite on the two branches,
    # must not reorder the rows, which run by kappa, n_sigma, the positive
    # branch first, sigma, then route
    real = dirac_solver.converge_box_full

    def order(argv, shift):
        def moved(params, levels, tol=1e-6, grid=None):
            res = real(params, levels, tol, grid)
            records = tuple(dataclasses.replace(r, E=r.E * (1.0 + r.branch * shift))
                            for r in res.records)
            return dataclasses.replace(res, records=records)

        monkeypatch.setattr(dirac_solver, "converge_box_full", moved)
        code, out, _ = run_cli(argv)
        assert code == 0
        return [(float(r.get("kappa", 0.0)), int(r["n_sigma"]), r["branch"] != "+",
                 int(r["sigma"]), r["route"]) for r in parse_csv(out)[2]]

    for argv, routes in [
        (["spectrum", "--model.kappa", "0.6", "--grid.n", "600"], {"analytic", "susy", "dirac"}),
        # at kappa 0 the (-, 1) and (+, 1) levels have one |E| to the last bits
        (["sweep-kappa", "--kappas=0", "--grid.n", "1000", "--solver.levels", "3"], {"dirac"}),
    ]:
        plain = order(argv, 0.0)
        assert order(argv, 1e-13) == order(argv, -1e-13) == plain
        assert plain == sorted(plain)
        assert {r[4] for r in plain} == routes


def test_spectrum_routes_hold_the_same_levels():
    # tan kappa 0.8 has alpha = 3: n_sigma 3 and 4 lie past it on every route
    code, out, _ = run_cli([
        "spectrum", "--model.family", "tan", "--model.kappa", "0.8",
        "--grid.n", "1000", "--solver.levels", "5",
    ])
    assert code == 0
    keys = {}
    for r in parse_csv(out)[2]:
        keys.setdefault(r["route"], set()).add((r["branch"], int(r["n_sigma"])))
    want = {("+", k) for k in range(5)} | {("-", k) for k in range(1, 5)}
    assert keys == {"analytic": want, "susy": want, "dirac": want}


def test_spectrum_critical_field_exit_3():
    code, out, err = run_cli([
        "spectrum", "--solver.route", "analytic", "--model.kappa", "1.0",
    ])
    assert code == 3
    assert out == ""
    assert "critical field" in err


def test_spectrum_config_file_unknown_key_exit_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("model.frequency = 2\n")
    code, out, err = run_cli(["spectrum", "--config", str(path)])
    assert code == 2 and "config error" in err


def test_spectrum_bad_flag_value_exit_2():
    code, out, err = run_cli(["spectrum", "--grid.n", "many"])
    assert code == 2 and "config error" in err


def test_spectrum_infinite_tolerance_exit_2():
    # at tolerance inf every subcritical dirac level was flagged converged
    # after one round, however far it moved, and the command exited 0
    code, out, err = run_cli([
        "spectrum", "--model.family", "linear", "--model.kappa", "0.3", "--grid.n", "200",
        "--solver.levels", "2", "--solver.tolerance", "inf",
    ])
    assert code == 2 and out == ""
    assert "config error" in err and "solver.tolerance" in err


def test_spectrum_tan_box_inside_the_domain_exit_2():
    # walls at +-1.0 cut the tan levels into states of the box, which both
    # solver routes flagged converged while xcheck read 4.7e-2
    code, out, err = run_cli([
        "spectrum", "--model.family", "tan", "--model.kappa", "0.3",
        "--grid.box_half_width", "1.0", "--grid.n", "300", "--solver.levels", "3",
    ])
    assert code == 2 and out == ""
    assert "config error" in err and "pi/2" in err


def test_spectrum_dimension_cap_exit_4():
    code, out, err = run_cli([
        "spectrum", "--solver.route", "dirac", "--grid.n", "40000",
        "--model.kappa", "0.6", "--solver.levels", "3",
    ])
    assert code == 4
    assert "convergence failure" in err


def test_spectrum_half_spacing_grid_over_cap_exit_4():
    # 2N+1 = 40001 fits the dimension cap, its h/2 grid does not
    code, out, err = run_cli([
        "spectrum", "--solver.route", "dirac", "--model.family", "tan",
        "--grid.n", "20000", "--solver.levels", "1",
    ])
    assert code == 4
    assert "h/2 grid" in err


def test_spectrum_output_file_keeps_stdout_empty(tmp_path):
    path = tmp_path / "levels.csv"
    code, out, err = run_cli([
        "spectrum", "--solver.route", "analytic", "--solver.levels", "2",
        "--output", str(path),
    ])
    assert code == 0
    assert out == "" and err == ""
    assert path.read_text().startswith("route,branch,")


def test_output_flags_take_either_spelling(tmp_path):
    base = ["spectrum", "--solver.route", "analytic", "--solver.levels", "2"]
    short, full = tmp_path / "short.json", tmp_path / "full.json"
    assert run_cli(base + ["--format", "json", "--output", str(short)]) == (0, "", "")
    assert run_cli(base + ["--output.format", "json", "--output.path", str(full)]) == (0, "", "")
    assert short.read_bytes() == full.read_bytes()
    assert isinstance(json.loads(full.read_text()), list)
    # a setting given twice takes the last value, whichever the spelling
    code, out, _ = run_cli(base + ["--format", "csv", "--output.format", "json"])
    assert code == 0 and isinstance(json.loads(out), list)
    code, out, _ = run_cli(base + ["--output.format", "json", "--format", "csv"])
    assert code == 0 and out.startswith("route,branch,")
    for flag in ("--format", "--output.format"):
        code, out, err = run_cli(base + [flag, "xml"])
        assert code == 2 and out == ""
        assert "config error" in err and "output.format" in err


def test_spectrum_json_mirrors_csv_fields():
    code, out, err = run_cli([
        "spectrum", "--solver.route", "analytic", "--solver.levels", "2",
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) > 0
    for row in payload:
        assert set(row) == {"route", "branch", "sigma", "n", "n_sigma", "E",
                            "epsilon", "converged", "err_est"}
        assert row["branch"] in ("+", "-")
        assert row["converged"] is True
        assert isinstance(row["E"], float)


def test_spectrum_golden_determinism(tmp_path):
    argv = ["spectrum", "--model.kappa", "0.6", "--grid.n", "1200"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(argv + ["--output", str(f1)])[0] == 0
    assert run_cli(argv + ["--output", str(f2)])[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


# ---------------------------------------------------------------- tabulated


def write_table(tmp_path, three_cols=True):
    path = tmp_path / "w.txt"
    xs = np.linspace(-12.0, 12.0, 1601)
    lines = []
    for x in xs:
        lines.append(f"{x:.12g} {x:.12g} 1.0" if three_cols else f"{x:.12g} {x:.12g}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_spectrum_tabulated_round_trip(tmp_path):
    table = write_table(tmp_path)
    code, out, err = run_cli([
        "spectrum", "--model.family", "tabulated", "--model.table_path",
        str(table), "--solver.route", "dirac", "--grid.n", "800",
        "--solver.levels", "2",
    ])
    assert code == 0
    _, _, rows = parse_csv(out)
    # the tabulated W=x problem is the exactly solvable linear one, labelled
    # as the certified families are: E = +-sqrt(1 + 2 n_sigma), n_sigma 0
    # and 1, n_sigma 0 (E = +1) on the positive branch only
    keys = sorted((r["branch"], int(r["n_sigma"])) for r in rows)
    assert keys == [("+", 0), ("+", 1), ("+", 1), ("-", 1), ("-", 1)]
    for r in rows:
        law = math.sqrt(1 + 2 * int(r["n_sigma"]))
        assert float(r["E"]) == pytest.approx(law if r["branch"] == "+" else -law, abs=1e-6)
    assert all(r["converged"] == "true" for r in rows)


def test_tabulated_requires_table_path():
    code, _, err = run_cli(["spectrum", "--model.family", "tabulated"])
    assert code == 2 and "table_path" in err


def test_tabulated_rejects_two_columns(tmp_path):
    table = write_table(tmp_path, three_cols=False)
    code, _, err = run_cli([
        "spectrum", "--model.family", "tabulated", "--model.table_path",
        str(table), "--solver.route", "dirac",
    ])
    assert code == 2 and "3 columns" in err


# ---------------------------------------------------------------- sweep


def test_sweep_ground_level_law():
    code, out, err = run_cli([
        "sweep-kappa", "--kappas", "0 0.3 0.6 0.9",
        "--solver.levels", "1", "--grid.n", "1200",
    ])
    assert code == 0 and err == ""
    _, header, rows = parse_csv(out)
    assert header == ["kappa", "route", "branch", "sigma", "n", "n_sigma",
                      "E", "epsilon", "converged", "err_est", "pr"]
    kappas = [float(r["kappa"]) for r in rows]
    assert kappas == sorted(kappas)
    assert all(r["route"] == "dirac" for r in rows)
    assert all(float(r["pr"]) > 0.0 for r in rows if r["pr"])
    # E^2 of the lowest level closes as 1 - kappa^2
    for kappa in (0.0, 0.3, 0.6, 0.9):
        es = [abs(float(r["E"])) for r in rows if float(r["kappa"]) == kappa]
        assert min(es) ** 2 == pytest.approx(1.0 - kappa**2, rel=1e-5)


def test_sweep_supercritical_rows_marked_unbound():
    code, out, err = run_cli([
        "sweep-kappa", "--kappas", "1.2", "--grid.n", "400",
        "--solver.levels", "2",
    ])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) >= 2
    assert all(r["converged"] == "false" for r in rows)


def test_sweep_empty_list_exit_2():
    code, _, err = run_cli(["sweep-kappa", "--kappas", " "])
    assert code == 2 and "config error" in err


def test_sweep_out_of_range_kappa_exit_2():
    code, _, err = run_cli(["sweep-kappa", "--kappas", "0 1.6"])
    assert code == 2 and "outside" in err


# ---------------------------------------------------------------- verify


VERIFY_CHECKS = [
    "three-route agreement",
    "lattice resolution",
    "degeneracy pairing",
    "branch symmetry",
    "potential identity",
    "closed-form level residual",
]


def check_lines(out):
    lines = [ln for ln in out.strip().splitlines()]
    names = [ln.split(":")[0].split(" ", 1)[1] for ln in lines]
    assert names == VERIFY_CHECKS
    return lines


def test_verify_linear_defaults_pass():
    code, out, err = run_cli(["verify", "--model.kappa", "0.6"])
    assert code == 0
    assert all(ln.startswith("PASS ") for ln in check_lines(out))


def test_verify_tan_defaults_pass():
    code, out, err = run_cli([
        "verify", "--model.family", "tan", "--model.kappa", "0.5",
    ])
    assert code == 0
    assert all(ln.startswith("PASS ") for ln in check_lines(out))


def test_verify_coarse_grid_fails_loudly():
    args = ["--model.kappa", "0.6", "--grid.n", "32"]
    code, out, err = run_cli(["verify"] + args)
    assert code == 1
    lines = check_lines(out)
    # the susy route's under-resolution must be reported, not hidden
    assert any(ln.startswith("FAIL three-route agreement") for ln in lines)
    # the lattice's energies come from a ladder refined to the tolerance,
    # whatever grid its states are sampled on, so its levels are resolved
    assert any(ln.startswith("PASS lattice resolution") for ln in lines)
    code, out, _ = run_cli(["spectrum", "--solver.route", "dirac"] + args)
    assert code == 0
    params = PhysicalParams(mass=1.0, kappa=0.6, superpotential=Superpotential.linear(1.0))
    rows = parse_csv(out)[2]
    # n_sigma 0-4 at the default 5 levels: one label view at n_sigma 0, and
    # two on each branch above it
    assert len(rows) == 17
    for row in rows:
        branch = 1 if row["branch"] == "+" else -1
        exact = analytic.level_energies(params, int(row["n_sigma"]))[0 if branch > 0 else 1]
        assert row["converged"] == "true"
        assert abs(float(row["E"]) - exact) <= 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("change", ["gain", "loss"])
def test_verify_fails_when_a_route_gains_or_loses_a_level(monkeypatch, change):
    full_spectrum = analytic.full_spectrum

    def altered(params, max_n):
        records = full_spectrum(params, max_n)
        if change == "loss":
            return [r for r in records if (r.branch, r.n_sigma) != (1, 2)]
        ground = next(r for r in records if r.n_sigma == 0)
        return records + [dataclasses.replace(ground, branch=-1, E=-ground.E)]

    monkeypatch.setattr(analytic, "full_spectrum", altered)
    code, out, _ = run_cli(["verify", "--model.kappa", "0.6"])
    assert code == 1
    line = check_lines(out)[0]
    lone = "(-1, 0)" if change == "gain" else "(1, 2)"
    assert line.startswith("FAIL three-route agreement") and lone in line


def test_verify_fails_when_the_susy_route_drops_a_level_past_alpha(monkeypatch):
    # tan kappa 0.8: alpha = 3, so n_sigma 4 lies past it; the lattice and
    # the closed form hold it, and a susy route without it must fail
    susy_records = cli._susy_records

    def dropping(params, grid, max_n):
        return [r for r in susy_records(params, grid, max_n) if r.n_sigma != 4]

    monkeypatch.setattr(cli, "_susy_records", dropping)
    code, out, _ = run_cli([
        "verify", "--model.family", "tan", "--model.kappa", "0.8",
        "--grid.n", "1000", "--solver.levels", "5",
    ])
    assert code == 1
    line = check_lines(out)[0]
    assert line.startswith("FAIL three-route agreement")
    assert "(-1, 4)" in line and "(1, 4)" in line


@pytest.mark.parametrize("argv", [
    ["--model.kappa", "0.6"],
    ["--model.family", "tan", "--model.kappa", "0.8", "--grid.n", "1000",
     "--solver.levels", "5"],
])
def test_verify_judges_the_levels_it_compares(monkeypatch, argv):
    # the lattice run holds n_sigma 0-4 on both branches, the levels the
    # other routes hold and no more, and the count is of (branch, n_sigma)
    # levels, not of their label views
    converge = dirac_solver.converge_box_full
    held = []

    def spy(params, levels, tol=1e-6, grid=None):
        result = converge(params, levels, tol, grid)
        held.append({(r.branch, r.n_sigma) for r in result.records})
        return result

    monkeypatch.setattr(dirac_solver, "converge_box_full", spy)
    code, out, _ = run_cli(["verify", *argv])
    assert code == 0
    assert held == [{(1, 0)} | {(b, k) for b in (1, -1) for k in range(1, 5)}]
    assert check_lines(out)[1] == (
        "PASS lattice resolution: all 9 lattice levels stationary under refinement")


def test_verify_judges_every_requested_level():
    code, out, _ = run_cli([
        "verify", "--model.kappa", "0.4", "--grid.n", "500", "--solver.levels", "6",
    ])
    assert code == 0
    assert check_lines(out)[1] == (
        "PASS lattice resolution: all 11 lattice levels stationary under refinement")


def test_cross_check_compares_every_susy_label(monkeypatch):
    # move the larger-|E| susy label of n_sigma 2 by 2e-4 relative: both the
    # spectrum's xcheck and verify's agreement must see it, though its
    # partner label agrees with the other routes
    solve = susy_reduction.solve_nonlinear_level

    def shifted(params, sigma, n, grid=None):
        records = solve(params, sigma, n, grid)
        if reduced_index(sigma, n) == 2:
            partner = solve(params, -sigma, n + sigma, grid)[0]
            if (abs(records[0].E), sigma) > (abs(partner.E), -sigma):
                records = tuple(dataclasses.replace(r, E=r.E * (1.0 + 2e-4)) for r in records)
        return records

    monkeypatch.setattr(susy_reduction, "solve_nonlinear_level", shifted)
    argv = ["--model.kappa", "0.6", "--grid.n", "1000", "--solver.levels", "3"]
    code, out, _ = run_cli(["spectrum", *argv])
    assert code == 0
    xcheck = {(r["branch"], int(r["n_sigma"])): float(r["xcheck"]) for r in parse_csv(out)[2]}
    # a 2e-4 move of E reads 2e-4 / (1 + 2e-4) on the scale max(|E|, 1)
    assert xcheck[("+", 2)] >= 2e-4 / (1.0 + 2e-4) - 1e-7
    assert xcheck[("-", 2)] >= 2e-4 / (1.0 + 2e-4) - 1e-7
    assert max(v for (b, k), v in xcheck.items() if k != 2) <= 1e-5
    code, out, _ = run_cli(["verify", *argv])
    assert code == 1
    assert check_lines(out)[0].startswith("FAIL three-route agreement")


def test_verify_pairing_fails_on_split_susy_partners(monkeypatch):
    solve = susy_reduction.solve_nonlinear_level

    def shifted(params, sigma, n, grid=None):
        records = solve(params, sigma, n, grid)
        if sigma == 1:
            records = tuple(dataclasses.replace(r, E=r.E * (1.0 + 1e-4)) for r in records)
        return records

    monkeypatch.setattr(susy_reduction, "solve_nonlinear_level", shifted)
    code, out, _ = run_cli(["verify", "--model.kappa", "0.6"])
    assert code == 1
    assert check_lines(out)[2].startswith("FAIL degeneracy pairing")


def test_verify_branch_symmetry_checks_the_lattice(monkeypatch):
    # the susy minus record mirrors the plus one and the analytic route is
    # exact, so a broken susy minus branch is the agreement check's to catch
    solve = susy_reduction.solve_nonlinear_level

    def skewed(params, sigma, n, grid=None):
        plus, minus = solve(params, sigma, n, grid)
        return plus, dataclasses.replace(minus, E=minus.E * (1.0 + 1e-4))

    monkeypatch.setattr(susy_reduction, "solve_nonlinear_level", skewed)
    code, out, _ = run_cli(["verify", "--model.kappa", "0.6"])
    line = check_lines(out)[3]
    assert line.startswith("PASS branch symmetry: lattice ")


def test_verify_tabulated_rejected(tmp_path):
    table = write_table(tmp_path)
    code, _, err = run_cli([
        "verify", "--model.family", "tabulated", "--model.table_path", str(table),
    ])
    assert code == 2 and "certified family" in err


# ---------------------------------------------------------------- wavefunction


def test_wavefunction_ground_densities_and_overlap():
    code, out, err = run_cli([
        "wavefunction", "--sigma", "-1", "--n", "0", "--solver.levels", "8",
    ])
    assert code == 0
    preamble, header, rows = parse_csv(out)
    assert header == ["x", "psi1_sq_dirac", "psi2_sq_dirac", "cum_dirac",
                      "psi1_sq_susy", "psi2_sq_susy", "cum_susy"]
    assert preamble[0].startswith("level sigma=-1 n=0 branch=+1 E=")
    assert float(preamble[0].split("E=")[1]) == pytest.approx(1.0, rel=1e-6)
    overlap = float(preamble[1].split("=")[1])
    assert overlap >= 0.999
    # cumulative norms close at 1 on both routes
    assert float(rows[-1]["cum_dirac"]) == pytest.approx(1.0, abs=1e-8)
    assert float(rows[-1]["cum_susy"]) == pytest.approx(1.0, abs=1e-8)
    assert all(float(r["psi1_sq_dirac"]) >= 0.0 for r in rows)


def test_wavefunction_json_payload():
    code, out, err = run_cli([
        "wavefunction", "--sigma", "-1", "--n", "0", "--solver.levels", "8",
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"info", "records"}
    assert any(line.startswith("overlap = ") for line in payload["info"])
    assert set(payload["records"][0]) == {
        "x", "psi1_sq_dirac", "psi2_sq_dirac", "cum_dirac",
        "psi1_sq_susy", "psi2_sq_susy", "cum_susy",
    }


@pytest.mark.parametrize("family", ["linear", "tan"])
@pytest.mark.parametrize("kappa", ["0", "0.4"])
def test_wavefunction_massless_zero_mode(family, kappa):
    # the massless ground level sits at E = 0, where the reconstruction
    # annihilates it; the reduced route builds its state directly
    code, out, err = run_cli([
        "wavefunction", "--model.family", family, "--model.kappa", kappa,
        "--model.mass", "0", "--solver.levels", "2", "--grid.n", "500",
        "--sigma", "-1", "--n", "0",
    ])
    assert code == 0, err
    preamble, _, rows = parse_csv(out)
    assert preamble[0] == "level sigma=-1 n=0 branch=+1 E=0"
    assert float(preamble[1].split("=")[1]) >= 0.999
    assert float(rows[-1]["cum_susy"]) == pytest.approx(1.0, abs=1e-8)


def test_wavefunction_tan_level_past_alpha():
    # tan kappa 0.8: n_sigma 4 lies past alpha = 3 and is a bound level on
    # both routes
    code, out, err = run_cli([
        "wavefunction", "--model.family", "tan", "--model.kappa", "0.8",
        "--grid.n", "1000", "--solver.levels", "5", "--sigma", "-1", "--n", "4",
    ])
    assert code == 0, err
    preamble, _, _ = parse_csv(out)
    assert float(preamble[1].split("=")[1]) >= 0.999


@pytest.mark.parametrize("family,kappa,n", [("linear", "0.4", "1000"), ("tan", "0.5", "500")])
def test_wavefunction_reuses_the_spectrum_run(family, kappa, n):
    # the top level a spectrum lists is served from that spectrum's lattice
    # run, so its wavefunction prints the spectrum's energy and solves nothing
    base = ["--model.family", family, "--model.kappa", kappa, "--grid.n", n,
            "--solver.levels", "3"]
    code, out, _ = run_cli(["spectrum", *base])
    assert code == 0
    row, = [r for r in parse_csv(out)[2] if (r["route"], r["branch"], r["sigma"], r["n"])
            == ("dirac", "+", "-1", "2")]
    misses = dirac_solver._converge_cached.cache_info().misses
    code, out, err = run_cli(["wavefunction", *base, "--sigma", "-1", "--n", "2"])
    assert code == 0, err
    assert dirac_solver._converge_cached.cache_info().misses == misses
    assert parse_csv(out)[0][0] == f"level sigma=-1 n=2 branch=+1 E={row['E']}"


def test_wavefunction_unbound_exit_5():
    code, _, err = run_cli([
        "wavefunction", "--model.kappa", "1.2", "--grid.n", "200",
        "--solver.levels", "2", "--sigma", "-1", "--n", "0",
    ])
    assert code == 5 and "level not found" in err


def test_wavefunction_negative_n_exit_2():
    code, _, err = run_cli(["wavefunction", "--sigma", "-1", "--n", "-1"])
    assert code == 2 and "config error" in err


# ---------------------------------------------------------------- process


def test_module_entry_point_subprocess():
    # the child does not inherit pytest's import path: hand it the package's
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracosc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "diracosc", "spectrum",
         "--solver.route", "analytic", "--solver.levels", "2"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("route,branch,")


# ---------------------------------------------------------------- emission


def reference_fmt(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.15g}"
    return str(x)


def reference_json_num(x):
    return None if math.isnan(x) else float(f"{x:.15g}")


def reference_text(columns, fmt, preamble=()):
    """Row-wise serialization, one cell at a time: a dict per row that
    lacks the keys of its empty cells, floats taken out of arrays one by one."""
    header = list(columns)
    rows = []
    for i in range(len(columns[header[0]])):
        row = {}
        for col, values in columns.items():
            v = float(values[i]) if isinstance(values, np.ndarray) else values[i]
            if v is not None:
                row[col] = v
        rows.append(row)
    if fmt == "csv":
        buf = io.StringIO()
        for line in preamble:
            buf.write(f"# {line}\n")
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(reference_fmt(row.get(col)) for col in header) + "\n")
        return buf.getvalue()
    payload = [{col: reference_json_num(v) if isinstance((v := row.get(col)), float) else v
                for col in header} for row in rows]
    if preamble:
        payload = {"info": list(preamble), "records": payload}
    return json.dumps(payload, indent=1) + "\n"


@pytest.fixture
def emitted(monkeypatch):
    """The (columns, format, preamble) of every _emit call."""
    calls = []
    emit = cli._emit

    def spy(columns, cfg, preamble=()):
        calls.append((columns, cfg.format, list(preamble)))
        return emit(columns, cfg, preamble)

    monkeypatch.setattr(cli, "_emit", spy)
    return calls


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_special_floats_match_cellwise_text(fmt, capsys):
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0, 1e300]
    columns = {
        "array": np.array(special),
        "mixed": [None, True, False, 3, "s", math.nan, -2.5],
    }
    cli._emit(columns, RunConfig(format=fmt), preamble=["note"])
    assert capsys.readouterr().out == reference_text(columns, fmt, ["note"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wavefunction_columns_emit_like_rows(fmt, emitted):
    code, out, _ = run_cli(["wavefunction", "--sigma", "-1", "--n", "0",
                            "--solver.levels", "8", "--format", fmt])
    assert code == 0
    columns, got_fmt, preamble = emitted[-1]
    assert got_fmt == fmt and len(preamble) == 2
    assert all(isinstance(v, np.ndarray) and v.dtype.kind == "f" for v in columns.values())
    assert out == reference_text(columns, fmt, preamble)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_columns_emit_like_rows(fmt, emitted):
    code, out, _ = run_cli(["spectrum", "--model.kappa", "0.6", "--grid.n", "1200",
                            "--format", fmt])
    assert code == 0
    columns, _, _ = emitted[-1]
    kinds = {type(v) for col in columns.values() for v in col}
    assert {str, int, bool, float} <= kinds
    assert out == reference_text(columns, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_columns_with_empty_cells_emit_like_rows(fmt, emitted, monkeypatch):
    converge = dirac_solver.converge_box_full

    def failing_at_03(params, levels, tol=1e-6, grid=None):
        if params.kappa == 0.3:
            raise ConvergenceError("no convergence at kappa 0.3")
        return converge(params, levels, tol, grid)

    monkeypatch.setattr(dirac_solver, "converge_box_full", failing_at_03)
    code, out, err = run_cli(["sweep-kappa", "--kappas", "0.2 0.3 1.2", "--grid.n", "400",
                              "--solver.levels", "2", "--format", fmt])
    assert code == 0 and "kappa=0.3 failed" in err
    columns, _, _ = emitted[-1]
    failed = columns["kappa"].index(0.3)
    assert columns["E"][failed] is None and columns["converged"][failed] is False
    assert False in [c for k, c in zip(columns["kappa"], columns["converged"]) if k == 1.2]
    assert out == reference_text(columns, fmt)


# ---------------------------------------------------------------- parser


def test_parser_is_built_once_and_keeps_no_flags():
    assert cli._parser() is cli._parser()
    base = ["spectrum", "--solver.route", "analytic", "--solver.levels", "2"]
    code, out, _ = run_cli(base + ["--format", "json"])
    assert code == 0 and isinstance(json.loads(out), list)
    code, out, _ = run_cli(base)
    assert code == 0 and out.startswith("route,branch,")

    wave = ["wavefunction", "--sigma", "-1", "--n", "1", "--solver.levels", "8"]
    code, out, _ = run_cli(wave + ["--branch", "-1"])
    assert code == 0
    assert parse_csv(out)[0][0].startswith("level sigma=-1 n=1 branch=-1 ")
    code, out, _ = run_cli(wave)
    assert code == 0
    assert parse_csv(out)[0][0].startswith("level sigma=-1 n=1 branch=+1 ")
