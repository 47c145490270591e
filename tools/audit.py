"""Correctness scoreboard of the three routes against the closed form.

Run `verify` and each route (analytic, dirac, susy) in process, on the
package under SRC, over a fixed configuration list, and print what is wrong:

    python3 tools/audit.py [SRC] [--json OUT.json]

The list is 72 certified configurations, each with its `verify` exit code:
- linear kappa 0, 0.3, -0.6, 0.9, 0.95, 0.97, 0.99 and -0.99, mass 1 and 0,
  grid.n 1000 and 2000, 5 levels;
- tan alpha0 1, 1.5, 2.5 and 5, kappa 0, 0.5, -0.8, 0.9 and 0.95, grid.n 500
  and 1000, 4 levels;
then three W = x tables on (-2.5, 2.5), (-4, 4) and (-8, 8), kappa 0, mass 1,
grid.n 1000, 5 levels, checked against the linear closed form; `verify`
refuses tables, so they are counted on their own.

Per route it prints the runs that raise, the records flagged converged that
are off the closed form by more than tol * max(1, |E|) ("false converged"),
and the converged records whose `err_est` is below their true error; then
the failing `verify` configurations and the counts. The list may only grow:
a configuration that is dropped or re-parameterized hides what it measured.
A run takes about 11 s on one core of a 2-core Xeon; it exits 0 unless the
program itself fails with a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROUTES = ("analytic", "dirac", "susy")
TABLE_BOXES = (2.5, 4.0, 8.0)


def configurations():
    """(name, argv flags) of the 72 certified configurations."""
    out = []
    for kappa in ("0", "0.3", "-0.6", "0.9", "0.95", "0.97", "0.99", "-0.99"):
        for mass in ("1", "0"):
            for n in ("1000", "2000"):
                out.append(["--model.family", "linear", "--model.kappa", kappa,
                            "--model.mass", mass, "--grid.n", n, "--solver.levels", "5"])
    for alpha0 in ("1", "1.5", "2.5", "5"):
        for kappa in ("0", "0.5", "-0.8", "0.9", "0.95"):
            for n in ("500", "1000"):
                out.append(["--model.family", "tan", "--model.alpha0", alpha0,
                            "--model.kappa", kappa, "--grid.n", n, "--solver.levels", "4"])
    return [(" ".join(flags[1::2]), flags) for flags in out]


def table_configurations(directory, boxes=TABLE_BOXES):
    """(name, argv flags) of the W = x tables on (-L, L) for L in `boxes`,
    written into `directory`."""
    out = []
    for half in boxes:
        path = os.path.join(directory, f"w_equals_x_{half:g}.txt")
        xs = np.linspace(-half, half, 1001)
        np.savetxt(path, np.column_stack([xs, xs, np.ones_like(xs)]))
        out.append((f"table W=x on (-{half:g}, {half:g}) 0 1 1000 5",
                    ["--model.family", "tabulated", "--model.table_path", path,
                     "--grid.n", "1000", "--solver.levels", "5"]))
    return out


def _reference(params):
    """The closed form of a certified family; a table is W = x."""
    from diracosc import analytic
    from diracosc.model import Family, PhysicalParams, Superpotential

    if params.superpotential.family is Family.TABULATED:
        params = PhysicalParams(mass=params.mass, kappa=params.kappa,
                                superpotential=Superpotential.linear(1.0))
    return lambda n_sigma: analytic.level_energies(params, n_sigma)


def audit_one(cli, name, flags, run_verify=True):
    """{"name", "verify", "failing", "routes"} of one configuration: the
    `verify` exit code and its failing checks, and per route either the
    error it raised or its converged records with their true errors."""
    entry = {"name": name, "verify": None, "failing": [], "routes": {}}
    if run_verify:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            entry["verify"] = cli.main(["verify", *flags])
        entry["failing"] = [line.split(":")[0][5:] for line in stdout.getvalue().splitlines()
                            if line.startswith("FAIL ")] + stderr.getvalue().splitlines()
    cfg = cli._config_from_args(cli._parser().parse_args(["spectrum", *flags]))
    params, grid = cli._build_problem(cfg)
    exact = _reference(params)
    for route in ROUTES:
        if route == "analytic" and not run_verify:
            continue
        try:
            records = cli._route_records(cfg, params, grid, (route,))
        except cli.DiracOscError as exc:
            entry["routes"][route] = {"raised": f"{type(exc).__name__}: {exc}", "records": []}
            continue
        rows = []
        for r in records:
            if not r.converged:
                continue
            ep, em = exact(r.n_sigma)
            ref = ep if r.branch > 0 else em
            rows.append({"label": [r.branch, r.sigma, r.n], "E": r.E, "exact": ref,
                         "error": abs(r.E - ref), "err_est": r.err_est,
                         "limit": cfg.tolerance * max(1.0, abs(ref))})
        entry["routes"][route] = {"raised": None, "records": rows}
    return entry


def summarize(entries):
    """{"configurations", "failing", "exit4", "routes": {route: counts}}."""
    verified = [e for e in entries if e["verify"] is not None]
    out = {"configurations": len(entries),
           "failing": sum(e["verify"] != 0 for e in verified),
           "exit4": sum(e["verify"] == 4 for e in verified), "routes": {}}
    for route in ROUTES:
        runs = [e["routes"][route] for e in entries if route in e["routes"]]
        records = [r for run in runs for r in run["records"]]
        out["routes"][route] = {
            "converged": len(records),
            "false_converged": sum(r["error"] > r["limit"] for r in records),
            "err_est_below_error": sum(r["err_est"] is not None and r["err_est"] < r["error"]
                                       for r in records),
            "raised": sum(run["raised"] is not None for run in runs),
        }
    return out


def run(src, configs=None, table_boxes=TABLE_BOXES):
    """{"certified": [entries], "tables": [entries]} on the package under
    src, over `configs` (default all 72) and the tables of `table_boxes`."""
    sys.path.insert(0, os.path.abspath(src))
    from diracosc import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"diracosc was imported from {cli.__file__}, not from {src}")
    certified = [audit_one(cli, name, flags)
                 for name, flags in (configurations() if configs is None else configs)]
    with tempfile.TemporaryDirectory() as tmp:
        tables = [audit_one(cli, name, flags, run_verify=False)
                  for name, flags in table_configurations(tmp, table_boxes)]
    return {"certified": certified, "tables": tables}


def print_set(title, entries):
    """Print one set's failures and counts; return its summarize()."""
    summary = summarize(entries)
    print(f"== {title}")
    for route in ROUTES:
        for e in entries:
            run = e["routes"].get(route)
            if run is None:
                continue
            if run["raised"]:
                print(f"{route} raises: {e['name']}: {run['raised']}")
            for r in run["records"]:
                marks = [m for m, bad in (("false converged", r["error"] > r["limit"]),
                                          ("err_est below error", r["err_est"] is not None
                                           and r["err_est"] < r["error"])) if bad]
                if marks:
                    print(f"{route} {', '.join(marks)}: {e['name']} label {tuple(r['label'])} "
                          f"E {r['E']:.12g} error {r['error']:.3g} err_est {r['err_est']:.3g}")
    for e in entries:
        if e["verify"]:
            print(f"verify exit {e['verify']}: {e['name']}: {'; '.join(e['failing'])}")
    if any(e["verify"] is not None for e in entries):
        print(f"{title}: {summary['failing']} of {summary['configurations']} configurations "
              f"fail verify, {summary['exit4']} with exit 4")
    for route, c in summary["routes"].items():
        print(f"{title} {route}: {c['converged']} converged, {c['false_converged']} false "
              f"converged, {c['err_est_below_error']} with err_est below the error, "
              f"{c['raised']} runs raise")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default="src", help="the package's source directory")
    parser.add_argument("--json", metavar="OUT", help="also write the entries and counts as JSON")
    args = parser.parse_args(argv)
    result = run(args.src)
    counts = {name: print_set(name, entries) for name, entries in result.items()}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"counts": counts, **result}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
