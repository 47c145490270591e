"""Command-line front end: config parsing, route orchestration,
cross-validation, coupling sweeps, and CSV/JSON emission.

Config files are flat UTF-8 text, one `section.key = value` per line, with
`#` comments. Exactly these keys exist (unknown keys are config errors):

    model.family          linear | tan | tabulated
    model.w1              slope of the linear superpotential
    model.alpha0          strength of the trigonometric superpotential
    model.kappa           electric coupling
    model.mass            fermion mass
    model.table_path      3-column text file (x, W, W') for tabulated W
    grid.n                interior lattice points
    grid.box_half_width   half-width L of the solver box (tan: pi/2 only)
    solver.route          analytic | dirac | susy | all
    solver.levels         number of reduced levels (n_sigma <= levels-1)
    solver.tolerance      convergence tolerance for the lattice route
    output.format         csv | json
    output.path           output file (stdout when unset)

Command-line flags named after the keys (`--model.kappa 0.6`) override file
values. Numbers are serialized with 15 significant digits and all row orders
are deterministic, so identical configs give byte-identical output.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 critical or
unbound field on a closed-form route, 4 convergence failure, 5 level not
found.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, dirac_solver, susy_reduction
from .errors import (
    ConfigError,
    ConvergenceError,
    CriticalFieldError,
    DegenerateStateError,
    DiracOscError,
    DomainError,
    IndexOutOfRangeError,
)
from .model import (
    ROUTES,
    Family,
    Grid,
    PhysicalParams,
    SpectrumRecord,
    Superpotential,
    level_labels,
    localization_of,
    reduced_index,
    require_subcritical,
    require_whole_domain,
)

__all__ = [
    "RunConfig",
    "parse_config_text",
    "load_config",
    "cmd_spectrum",
    "cmd_sweep_kappa",
    "cmd_verify",
    "cmd_wavefunction",
    "main",
]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_CRITICAL_FIELD = 3
EXIT_CONVERGENCE = 4
EXIT_LEVEL_NOT_FOUND = 5

_STR_KEYS = {"model.family", "model.table_path", "solver.route", "output.format", "output.path"}
_FLOAT_KEYS = {"model.w1", "model.alpha0", "model.kappa", "model.mass",
               "grid.box_half_width", "solver.tolerance"}
_INT_KEYS = {"grid.n", "solver.levels"}
ALL_KEYS = _STR_KEYS | _FLOAT_KEYS | _INT_KEYS


@dataclass(frozen=True)
class RunConfig:
    family: str = "linear"
    w1: float = 1.0
    alpha0: float = 5.0
    kappa: float = 0.0
    mass: float = 1.0
    table_path: str | None = None
    n: int = 4000
    box_half_width: float | None = None
    route: str = "all"
    levels: int = 5
    tolerance: float = 1e-6
    format: str = "csv"
    path: str | None = None


def _coerce(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def parse_config_text(text: str) -> dict:
    """`section.key = value` lines -> validated {key: typed value} mapping."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `section.key = value`")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def _validated(cfg: RunConfig) -> RunConfig:
    if cfg.family not in ("linear", "tan", "tabulated"):
        raise ConfigError(f"model.family must be linear|tan|tabulated, got {cfg.family!r}")
    if cfg.route not in ("analytic", "dirac", "susy", "all"):
        raise ConfigError(f"solver.route must be analytic|dirac|susy|all, got {cfg.route!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv|json, got {cfg.format!r}")
    if cfg.levels < 1:
        raise ConfigError("solver.levels must be >= 1")
    if cfg.n < 3:
        raise ConfigError("grid.n must be >= 3")
    if not 0.0 < cfg.tolerance < math.inf:
        raise ConfigError("solver.tolerance must be positive and finite")
    if cfg.family == "tabulated" and not cfg.table_path:
        raise ConfigError("model.table_path is required for the tabulated family")
    if not math.isfinite(cfg.kappa):
        raise ConfigError("model.kappa must be finite")
    if cfg.mass < 0.0:
        raise ConfigError("model.mass must be >= 0")
    return cfg


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge file values (if any) and CLI overrides into a RunConfig."""
    merged: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                merged.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in ALL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, str(value))
    # the RunConfig field of `section.key` is `key`
    cfg = RunConfig(**{k.split(".", 1)[1]: v for k, v in merged.items()})
    return _validated(cfg)


def _load_table(path: str) -> Superpotential:
    """3-column whitespace text (x, W, W') -> tabulated superpotential."""
    try:
        data = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed superpotential table {path}: {exc}") from exc
    if data.shape[1] != 3:
        raise ConfigError(
            f"superpotential table {path} must have 3 columns (x, W, W'), "
            f"got {data.shape[1]}"
        )
    return Superpotential.tabulated(data[:, 0], data[:, 1], data[:, 2])


def _build_problem(cfg: RunConfig) -> tuple[PhysicalParams, Grid]:
    if cfg.family == "linear":
        sp = Superpotential.linear(cfg.w1)
    elif cfg.family == "tan":
        sp = Superpotential.tangent(cfg.alpha0)
    else:
        sp = _load_table(cfg.table_path)
    params = PhysicalParams(superpotential=sp, kappa=cfg.kappa, mass=cfg.mass)
    if cfg.box_half_width is None:
        return params, dirac_solver.default_grid(params, n=cfg.n)
    grid = Grid(cfg.box_half_width, cfg.n)
    require_whole_domain(sp, grid)
    return params, grid


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


# The .15g text of a finite float within these bounds, or of zero, is already
# the repr of the value it rounds to, less the ".0" of an integral value: 15
# significant digits identify a normal double, and .15g writes an exponent
# from 1e15 on, where repr does not
_PLAIN_FLOATS = (1e-300, 9.99999999999999e14)


def _json_float(x: float, text: str) -> str:
    """The JSON token of float x from its .15g text: what json.dumps writes
    for float(text), with NaN as null."""
    lo, hi = _PLAIN_FLOATS
    if lo <= abs(x) < hi or x == 0.0:
        return text if "." in text or "e" in text else text + ".0"
    return "null" if math.isnan(x) else json.dumps(float(text))


def _record_row(rec: SpectrumRecord) -> dict:
    return {
        "route": rec.route,
        "branch": "+" if rec.branch > 0 else "-",
        "sigma": rec.sigma,
        "n": rec.n,
        "n_sigma": rec.n_sigma,
        "E": rec.E,
        "epsilon": rec.epsilon,
        "converged": rec.converged,
        "err_est": rec.err_est,
    }


def _cells(column, csv: bool) -> list[str]:
    """One column's serialized cells: CSV text, or JSON tokens. A float array
    is formatted in one pass (the same text as _fmt per cell); other columns
    cell by cell."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        values = column.tolist()
        text = [f"{v:.15g}" for v in values]
        return text if csv else list(map(_json_float, values, text))
    if csv:
        return [_fmt(v) for v in column]
    return [_json_float(v, f"{v:.15g}") if isinstance(v, float)
            else "null" if v is None else json.dumps(v) for v in column]


def _json_text(header: list[str], cells: list[list[str]], preamble) -> str:
    """json.dumps(payload, indent=1) of the rows, written from the columns'
    JSON tokens; the payload is the list of row objects, or with a preamble
    {"info": preamble, "records": rows}."""
    pad = "  " if preamble else " "
    # one str.format template per row object, braces in the keys escaped
    row = ",\n".join(f"{pad} {json.dumps(key)}: ".replace("{", "{{").replace("}", "}}")
                     + "{}" for key in header)
    rows = list(map(row.format, *cells)) if cells else []
    records = (f"[\n{pad}{{\n" + f"\n{pad}}},\n{pad}{{\n".join(rows)
               + f"\n{pad}}}\n{pad[1:]}]") if rows else "[]"
    if not preamble:
        return records
    info = ",\n".join(f"  {json.dumps(line)}" for line in preamble)
    return f'{{\n "info": [\n{info}\n ],\n "records": {records}\n}}'


def _emit(columns: dict, cfg: RunConfig, preamble: list[str] = ()):
    """Serialize named, equally long columns to CSV or JSON; write to
    output.path or stdout."""
    header = list(columns)
    csv = cfg.format == "csv"
    cells = [_cells(col, csv) for col in columns.values()]
    if csv:
        lines = [f"# {line}" for line in preamble]
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in zip(*cells))
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(header, cells, preamble) + "\n"
    _write(text, cfg)


def _write(text: str, cfg: RunConfig) -> None:
    """Write a command's output to output.path or stdout."""
    if cfg.path:
        with open(cfg.path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _row_columns(rows: list[dict], header: list[str]) -> dict:
    """Row dicts as named columns; a key a row lacks is an empty cell."""
    return {col: [row.get(col) for row in rows] for col in header}


SPECTRUM_HEADER = ["route", "branch", "sigma", "n", "n_sigma", "E", "epsilon",
                   "converged", "err_est"]


def _susy_records(params, grid, max_n):
    require_subcritical(params.kappa)
    records = []
    for k in range(max_n + 1):
        # the positive branch holds every level, under each of its labels
        for sigma, n in level_labels(1, k):
            plus, minus = susy_reduction.solve_nonlinear_level(params, sigma, n, grid)
            # the negative root at n_sigma 0 is -E0, whose state is annihilated
            records.extend(r for r in (plus, minus) if level_labels(r.branch, k))
    return records


def _route_records(cfg: RunConfig, params, grid, routes) -> list[SpectrumRecord]:
    """Every label's record on each of `routes` for n_sigma 0 .. levels-1."""
    max_n = cfg.levels - 1
    records = []
    if "analytic" in routes:
        records += analytic.full_spectrum(params, max_n)
    if "susy" in routes:
        records += _susy_records(params, grid, max_n)
    if "dirac" in routes:
        records += dirac_solver.converge_box_full(params, cfg.levels, cfg.tolerance, grid).records
    return records


def _by_level(records) -> dict:
    """(branch, n_sigma) -> route -> the energies of the level's labels."""
    levels: dict = {}
    for rec in records:
        levels.setdefault((rec.branch, rec.n_sigma), {}).setdefault(rec.route, []).append(rec.E)
    return levels


def _discrepancy(by_route: dict) -> float:
    """The worst relative difference between any two labels of two different
    routes of one level."""
    return max((abs(a - b) / max(abs(a), abs(b), 1.0)
                for ea, eb in itertools.combinations(by_route.values(), 2)
                for a in ea for b in eb), default=0.0)


def _label_order(row: dict) -> tuple:
    """One route's row order, by labels alone so that no move of the energies
    reorders rows: n_sigma, the positive branch first, sigma."""
    return row["n_sigma"], row["branch"] != "+", row["sigma"]


def cmd_spectrum(cfg: RunConfig) -> int:
    """Run the selected route(s) and emit the spectrum table. route=all adds
    the column xcheck, each level's _discrepancy. Rows are ordered by
    their labels alone: n_sigma, the positive branch first, sigma, then
    route, so that no difference between the routes' energies reorders
    them."""
    params, grid = _build_problem(cfg)
    records = _route_records(cfg, params, grid, ROUTES if cfg.route == "all" else (cfg.route,))
    rows = [_record_row(r) for r in records]
    header = list(SPECTRUM_HEADER)
    if cfg.route == "all":
        levels = _by_level(records)
        for rec, row in zip(records, rows):
            row["xcheck"] = _discrepancy(levels[rec.branch, rec.n_sigma])
        header.append("xcheck")
    rows.sort(key=lambda r: (*_label_order(r), r["route"]))
    _emit(_row_columns(rows, header), cfg)
    return EXIT_OK


SWEEP_HEADER = ["kappa"] + SPECTRUM_HEADER + ["pr"]


def cmd_sweep_kappa(cfg: RunConfig, kappa_list: list[float]) -> int:
    """One lattice-route row per (kappa, level view): energies, convergence
    flags (the unbound marker beyond the critical coupling), and the
    participation ratio of each level's state on the run's base grid. Rows
    are ordered by kappa ascending, then by their labels: n_sigma, the
    positive branch first, sigma."""
    if not kappa_list:
        raise ConfigError("sweep needs at least one kappa value")
    for k in kappa_list:
        if not -1.5 <= k <= 1.5:
            raise ConfigError(f"sweep kappa {k} outside [-1.5, 1.5]")
    rows: list[dict] = []
    for kappa in sorted(kappa_list):
        point_cfg = replace(cfg, kappa=kappa)
        try:
            params, grid = _build_problem(point_cfg)
            result = dirac_solver.converge_box_full(params, cfg.levels, cfg.tolerance, grid)
            states = result.states
        except DiracOscError as exc:
            print(f"sweep point kappa={kappa:g} failed: {exc}", file=sys.stderr)
            rows.append({"kappa": kappa, "route": "dirac", "converged": False})
            continue
        g = result.base_grid
        point = [{"kappa": kappa, **_record_row(rec),
                  "pr": localization_of(state.psi1, state.psi2, g.x, g.h)[0]}
                 for rec, state in zip(result.records, states)]
        rows.extend(sorted(point, key=_label_order))
    _emit(_row_columns(rows, SWEEP_HEADER), cfg)
    return EXIT_OK


def _verify_checks(cfg: RunConfig):
    """(name, passed, detail) triples for the internal consistency audit."""
    params, grid = _build_problem(cfg)
    if params.superpotential.family is Family.TABULATED:
        raise ConfigError("verify needs a certified family (linear or tan)")
    records = _route_records(cfg, params, grid, ROUTES)
    levels = _by_level(records)
    checks = []

    worst = max(map(_discrepancy, levels.values()))
    # every route must hold the same levels within the requested range
    lone = sorted(key for key, by_route in levels.items() if len(by_route) < len(ROUTES))
    checks.append(("three-route agreement", worst <= 1e-4 and not lone,
                   f"max cross-route discrepancy {worst:.3e} (limit 1e-04)"
                   + (f"; levels (branch, n_sigma) not on every route: {lone}" if lone else "")))

    dirac = [r for r in records if r.route == "dirac"]
    lattice = {key: by_route["dirac"] for key, by_route in levels.items() if "dirac" in by_route}
    bad = sorted({(r.branch, r.n_sigma) for r in dirac if not r.converged})
    drift = max((r.err_est for r in dirac if r.err_est is not None), default=0.0)
    checks.append((
        "lattice resolution", not bad,
        f"levels (branch, n_sigma) = {bad} still drift under refinement, "
        f"max inter-round shift {drift:.3e}" if bad
        else f"all {len(lattice)} lattice levels stationary under refinement",
    ))

    # on the susy route the labels (sigma=-1, n=k) and (sigma=+1, n=k-1) of a
    # level are independent partner solves; on the other two they are one number
    details = []
    for branch in (1, -1):
        subset = [r for r in records if r.route == "susy" and r.branch == branch]
        pairs, _ = analytic.degenerate_pairs(subset)
        paired = {p[0].n_sigma for p in pairs}
        expect = {r.n_sigma for r in subset if r.sigma == 1}
        if paired != expect:
            details.append(f"susy branch {branch:+d}: paired {sorted(paired)}"
                           f" expected {sorted(expect)}")
    checks.append(("degeneracy pairing", not details, "; ".join(details)
                   or f"susy partner levels agree to {analytic.DEGENERACY_RTOL:.0e} relative"))

    # only the lattice can break it: the analytic route is exact, and the
    # susy minus record is the mirror of the plus one
    worst = max((abs(e + mirror) / max(abs(e), 1.0) for (branch, k), es in lattice.items()
                 if branch == 1 for e in es for mirror in lattice.get((-1, k), ())),
                default=0.0)
    checks.append(("branch symmetry", worst <= 1e-5,
                   f"lattice max |E+ + E-| deviation {worst:.3e} (limit 1e-05); "
                   "the analytic and susy routes are symmetric by construction"))

    x = grid.x
    worst = 0.0
    for e_probe in (0.0, 0.5, 1.0, max(params.mass, 1.0) * 1.5):
        weff = susy_reduction.effective_superpotential(
            params.superpotential, params.kappa, e_probe)
        shift = (params.kappa * e_probe) ** 2 / (1.0 - params.kappa**2)
        for sigma in (-1, 1):
            w, wp = weff.values(x)
            v13 = w**2 + sigma * wp
            v12 = susy_reduction.squared_form_potential(
                params.superpotential, params.kappa, e_probe, sigma, x)
            scale = np.maximum(1.0, np.maximum(np.abs(v12), np.abs(v13)))
            worst = max(worst, float(np.max(np.abs(v13 - v12 - shift) / scale)))
    checks.append(("potential identity", worst <= 1e-10,
                   f"max pointwise deviation {worst:.3e} (limit 1e-10)"))

    worst = 0.0
    omk = 1.0 - params.kappa**2
    sp = params.superpotential
    for rec in (r for r in records if r.route == "analytic"):
        if sp.family is Family.TANGENT:
            alpha = sp.alpha0 * math.sqrt(omk)
            beta = params.kappa * rec.E / math.sqrt(omk)
            law = analytic.tan_epsilon(alpha, beta, rec.n_sigma)
        else:
            law = analytic.linear_epsilon(sp.w1, params.kappa, rec.n_sigma)
        worst = max(worst, abs(law - rec.epsilon) / max(abs(rec.epsilon), 1.0))
    checks.append(("closed-form level residual", worst <= 1e-12,
                   f"max level-law residual {worst:.3e} (limit 1e-12)"))
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    """Cross-route and internal-identity audit; PASS/FAIL line per check,
    exit 0 iff all pass."""
    checks = _verify_checks(cfg)
    _write("".join(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n"
                   for name, passed, detail in checks), cfg)
    return EXIT_OK if all(c[1] for c in checks) else EXIT_VERIFY_FAIL


def cmd_wavefunction(cfg: RunConfig, sigma: int, n: int, branch: int = 1) -> int:
    """Emit per-point probability densities of one level from both the
    lattice eigenvector and the reconstructed reduced-route state, plus their
    overlap. Exits 5 when the requested level is not a bound state, and when
    the box cuts its lattice state: more than solver.tolerance of its weight
    lies in the outer 5% of a linear or tabulated box."""
    if sigma not in (-1, 1):
        raise ConfigError("sigma must be -1 or +1")
    if n < 0:
        raise ConfigError("n must be >= 0")
    if branch not in (-1, 1):
        raise ConfigError("branch must be -1 or +1")
    params, grid = _build_problem(cfg)
    n_sigma = reduced_index(sigma, n)
    # the spectrum's run holds every level it lists
    result = dirac_solver.converge_box_full(
        params, max(cfg.levels, n_sigma + 1), cfg.tolerance, grid)
    match = next((i for i, rec in enumerate(result.records)
                  if (rec.sigma, rec.n, rec.branch) == (sigma, n, branch)), None)
    if match is None:
        raise IndexOutOfRangeError(
            f"no lattice level with sigma={sigma}, n={n}, branch={branch:+d}"
        )
    rec = result.records[match]
    if not rec.converged:
        raise ConvergenceError(
            f"level (sigma={sigma}, n={n}, branch={branch:+d}) is not a "
            "converged bound state"
        )
    g = result.base_grid
    dstate = result.states[match]
    cut = dirac_solver.edge_share(params, g, dstate)
    if cut > cfg.tolerance:
        raise ConvergenceError(
            f"the box cuts level (sigma={sigma}, n={n}, branch={branch:+d}): its "
            f"state holds {cut:.2g} of its weight in the outer 5% of the box, more "
            f"than solver.tolerance {cfg.tolerance:g}"
        )
    _, sstate = susy_reduction.susy_state(params, sigma, n, g, branch)
    overlap = float(abs(g.h * np.sum(
        np.conj(sstate.psi1) * dstate.psi1
        + np.conj(sstate.psi2) * dstate.psi2)))
    # densities through libm pow, as a float64 scalar's `** 2` rounds them;
    # an array's `** 2` squares, which differs in the last bit at a few
    # points per thousand and would change the printed digits
    d1, d2 = np.float_power(np.abs(dstate.psi1), 2), np.float_power(np.abs(dstate.psi2), 2)
    s1, s2 = np.float_power(np.abs(sstate.psi1), 2), np.float_power(np.abs(sstate.psi2), 2)
    columns = {
        "x": g.x,
        "psi1_sq_dirac": d1,
        "psi2_sq_dirac": d2,
        "cum_dirac": np.cumsum(d1 + d2) * g.h,
        "psi1_sq_susy": s1,
        "psi2_sq_susy": s2,
        "cum_susy": np.cumsum(s1 + s2) * g.h,
    }
    preamble = [
        f"level sigma={sigma} n={n} branch={branch:+d} E={_fmt(rec.E)}",
        f"overlap = {_fmt(overlap)}",
    ]
    _emit(columns, cfg, preamble=preamble)
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="config file (section.key = value lines)")
    for key in sorted(ALL_KEYS - {"output.path", "output.format"}):
        p.add_argument(f"--{key}", dest=key, metavar="V", help=argparse.SUPPRESS)
    p.add_argument("--output.path", "--output", dest="output.path", metavar="PATH",
                   help="output file (default stdout)")
    p.add_argument("--output.format", "--format", dest="output.format", metavar="csv|json",
                   help="output format (default csv)")


def _config_from_args(args) -> RunConfig:
    return load_config(args.config, {key: getattr(args, key, None) for key in ALL_KEYS})


def _parse_kappas(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad --kappas list: {raw!r}") from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused: parse_args
    fills a fresh namespace on every call, so no call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="diracosc",
        description="Spectra of the (1+1)D Dirac oscillator in a "
                    "superpotential-shaped electric field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="level table from the selected route(s)")
    _add_config_flags(p_spec)

    p_sweep = sub.add_parser("sweep-kappa", help="lattice spectrum vs coupling")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--kappas", required=True,
                         help="comma- or space-separated coupling values")

    p_verify = sub.add_parser("verify", help="cross-route consistency audit")
    _add_config_flags(p_verify)

    p_wave = sub.add_parser("wavefunction", help="per-point densities of one level")
    _add_config_flags(p_wave)
    p_wave.add_argument("--sigma", type=int, required=True, choices=(-1, 1))
    p_wave.add_argument("--n", type=int, required=True)
    p_wave.add_argument("--branch", type=int, default=1, choices=(-1, 1))
    return parser


# (exit code, stderr prefix) per package error; any other package error is a
# failed numerical run (see main)
_EXITS = {
    ConfigError: (EXIT_CONFIG, "config error"),
    DomainError: (EXIT_CONFIG, "config error"),
    IndexOutOfRangeError: (EXIT_LEVEL_NOT_FOUND, "level not found"),
    DegenerateStateError: (EXIT_LEVEL_NOT_FOUND, "level not found"),
    CriticalFieldError: (EXIT_CRITICAL_FIELD, "critical field"),
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    wavefunction = args.command == "wavefunction"
    try:
        cfg = _config_from_args(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "sweep-kappa":
            return cmd_sweep_kappa(cfg, _parse_kappas(args.kappas))
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_wavefunction(cfg, sigma=args.sigma, n=args.n, branch=args.branch)
    except DiracOscError as exc:
        code, prefix = next((v for kind, v in _EXITS.items() if isinstance(exc, kind)),
                            (EXIT_CONVERGENCE, "convergence failure"))
        if wavefunction and code > EXIT_CONFIG:
            # past its config, any failure of one level's run means no such level
            code, prefix = EXIT_LEVEL_NOT_FOUND, "level not found"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
