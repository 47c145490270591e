"""Identity check of the `diracosc` command line between two source trees.

Run the identity set in process against one tree's `src` directory and
write {argv: [exit code, stdout, stderr]} as JSON:

    python3 tools/identity.py SRC OUT.json

Compare two such files, command by command:

    python3 tools/identity.py --compare A.json B.json [--rtol 1e-12]

Each command is reported as
- identical: the same exit code and the same stdout and stderr bytes;
- within: the same exit code, lines, table header, row labels and
  non-numeric text, and every number within rtol of its partner;
- beyond: the same structure, but some number moved by more than rtol;
- structural: anything else (an exit code, a label, a flag or a row differs).

A number's difference is |a - b| / max(1, |a|, |b|), reported per column as
the worst over the command: the CSV or JSON column of a table, or for a text
line (a `verify` check, a wavefunction preamble) the words before the
number. Table rows are matched by their labels (kappa, route, branch, sigma,
n, n_sigma, converged), or by position in a table without them; rows that
match only in another order are marked reordered. The comparison exits 1
when a command is beyond rtol or structurally different, else 0.

The set is the 71 commands below, plus the three after them; a run takes
about 3 s on one core of a 2-core Xeon. Run each tree in its own process: the
result caches live for the whole run, so each command sees the caches of the
commands before it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

TABLE = "TABLE"  # stands for the W = x table file in the argv keys


def _commands():
    """The identity set: argv lists, TABLE standing for the table's path."""
    cmds = []
    for family, kappas, n in (("linear", ("0", "0.4", "-0.6", "0.9", "0.99"), "2000"),
                              ("tan", ("0", "0.3", "0.5", "-0.65"), "1000")):
        for kappa in kappas:
            base = ["--model.family", family, "--model.kappa", kappa, "--grid.n", n,
                    "--solver.levels", "4"]
            cmds += [["spectrum", "--solver.route", "all", *base],
                     ["spectrum", "--solver.route", "all", *base, "--format", "json"],
                     ["verify", *base],
                     ["wavefunction", *base, "--sigma", "-1", "--n", "0"],
                     ["wavefunction", *base, "--sigma", "1", "--n", "1", "--branch", "-1"]]
    # W = x tabulated on (-12, 12), kappa 0
    base = ["--model.family", "tabulated", "--model.table_path", TABLE, "--grid.n", "800",
            "--solver.levels", "3"]
    cmds += [["spectrum", "--solver.route", "dirac", *base],
             ["spectrum", "--solver.route", "dirac", *base, "--format", "json"],
             ["spectrum", "--solver.route", "susy", *base],
             ["wavefunction", *base, "--sigma", "-1", "--n", "0"],
             ["wavefunction", *base, "--sigma", "1", "--n", "0"]]
    for family in ("linear", "tan"):
        base = ["--model.family", family, "--model.kappa", "0.4", "--model.mass", "0",
                "--grid.n", "1000", "--solver.levels", "3"]
        cmds += [["spectrum", "--solver.route", "all", *base],
                 ["spectrum", "--solver.route", "all", *base, "--format", "json"],
                 ["verify", *base],
                 ["wavefunction", *base, "--sigma", "-1", "--n", "0"],
                 ["wavefunction", *base, "--sigma", "-1", "--n", "1"]]
    base = ["--model.kappa", "0.3", "--grid.box_half_width", "3", "--grid.n", "600",
            "--solver.levels", "3"]
    cmds += [["spectrum", "--solver.route", "all", *base],
             ["spectrum", "--solver.route", "all", *base, "--format", "json"],
             ["verify", *base],
             ["wavefunction", *base, "--sigma", "-1", "--n", "0"]]
    for family, n in (("linear", "800"), ("tan", "500")):
        base = ["sweep-kappa", "--kappas=-1.2,-0.9,-0.5,0,0.5,0.9,1.2", "--model.family",
                family, "--grid.n", n, "--solver.levels", "3"]
        cmds += [base, [*base, "--format", "json"]]
    base = ["--model.family", "tan", "--model.kappa", "0.8", "--grid.n", "1000",
            "--solver.levels", "5"]
    cmds += [["spectrum", "--solver.route", "all", *base], ["verify", *base],
             ["wavefunction", *base, "--sigma", "-1", "--n", "4"]]
    assert len(cmds) == 71
    # the top level of a 3-level spectrum, then its wavefunction; and a sweep
    # point whose (-, 1) and (+, 1) levels share |E| to the last bits
    base = ["--model.family", "tan", "--model.kappa", "0.5", "--grid.n", "500",
            "--solver.levels", "3"]
    cmds += [["spectrum", "--solver.route", "all", *base],
             ["wavefunction", *base, "--sigma", "-1", "--n", "2"],
             ["sweep-kappa", "--kappas=0", "--grid.n", "1000", "--solver.levels", "3"]]
    return cmds


def run(src: str) -> dict:
    """{argv joined by spaces: [exit, stdout, stderr]} of the identity set,
    run in this process on the package under `src`."""
    sys.path.insert(0, os.path.abspath(src))
    from diracosc import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"diracosc was imported from {cli.__file__}, not from {src}")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "w_equals_x.txt")
        xs = np.linspace(-12.0, 12.0, 2401)
        np.savetxt(table, np.column_stack([xs, xs, np.ones_like(xs)]))
        for argv in _commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([table if a == TABLE else a for a in argv])
            out[" ".join(argv)] = [code, stdout.getvalue(), stderr.getvalue()]
    return out


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")
LABELS = ("kappa", "route", "branch", "sigma", "n", "n_sigma", "converged")


class Structural(Exception):
    """The two outputs differ in more than their numbers."""


def _parse(text: str):
    """(text lines, header, rows) of one output: a CSV table with `# `
    preamble lines, a JSON payload, or plain text lines."""
    try:
        payload = json.loads(text)
    except ValueError:
        lines = text.splitlines()
        body = [ln for ln in lines if not ln.startswith("# ")]
        if body and re.fullmatch(r"[A-Za-z_0-9]+(,[A-Za-z_0-9]+)+", body[0]):
            header = body[0].split(",")
            return ([ln for ln in lines if ln.startswith("# ")], header,
                    [dict(zip(header, row.split(","))) for row in body[1:]])
        return lines, None, []
    lines = []
    if isinstance(payload, dict):
        lines, payload = payload["info"], payload["records"]
    rows = [{k: "" if v is None else json.dumps(v) if isinstance(v, (bool, str)) else str(v)
             for k, v in row.items()} for row in payload]
    return lines, list(rows[0]) if rows else [], rows


def _diff(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if math.isnan(x) and math.isnan(y) or x == y:
        return 0.0
    return abs(x - y) / max(1.0, abs(x), abs(y))


def _compare_text(a: str, b: str, worst: dict) -> None:
    """Fold the number differences of two text lines into `worst`."""
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    if _NUMBER.split(a) != _NUMBER.split(b) or len(na) != len(nb):
        raise Structural(f"text {a!r} against {b!r}")
    for part, x, y in zip(_NUMBER.split(a), na, nb):
        label = part.strip(" :=,;(") or "line"
        worst[label] = max(worst.get(label, 0.0), _diff(x, y))


def _compare_output(a: str, b: str, worst: dict) -> bool:
    """Fold the number differences of two outputs into `worst`; True when
    their table rows match in another order. Raises Structural."""
    (la, ha, ra), (lb, hb, rb) = _parse(a), _parse(b)
    if len(la) != len(lb) or ha != hb or len(ra) != len(rb):
        raise Structural(f"{len(la)} against {len(lb)} text lines, header {ha} against "
                         f"{hb}, {len(ra)} against {len(rb)} rows")
    for x, y in zip(la, lb):
        _compare_text(x, y, worst)
    labels = [c for c in ha or () if c in LABELS]
    keys_a = [tuple(r.get(c) for c in labels) for r in ra]
    keys_b = [tuple(r.get(c) for c in labels) for r in rb]
    reordered = bool(labels) and keys_a != keys_b
    if reordered:
        if sorted(keys_a) != sorted(keys_b) or len(set(keys_a)) != len(keys_a):
            raise Structural("the tables hold different rows")
        by_key = dict(zip(keys_b, rb))
        rb = [by_key[k] for k in keys_a]
    for x, y in zip(ra, rb):
        for col in ha:
            if col in labels or x.get(col) == y.get(col):
                worst.setdefault(col, 0.0)
                continue
            try:
                worst[col] = max(worst.get(col, 0.0), _diff(x[col], y[col]))
            except (KeyError, ValueError):
                raise Structural(f"column {col}: {x.get(col)!r} against {y.get(col)!r}")
    return reordered


def compare(a: dict, b: dict, rtol: float) -> dict:
    """{argv: {"class": ..., "reordered": bool, "worst": {column: diff}}} for
    every command of `a`, classed as in the module docstring."""
    report = {}
    for argv, (code_a, out_a, err_a) in a.items():
        code_b, out_b, err_b = b.get(argv, (None, None, None))
        entry = {"class": "identical", "reordered": False, "worst": {}}
        if (code_a, out_a, err_a) != (code_b, out_b, err_b):
            try:
                if code_a != code_b:
                    raise Structural(f"exit {code_a} against {code_b}")
                entry["reordered"] = _compare_output(out_a, out_b, entry["worst"])
                if len(err_a.splitlines()) != len(err_b.splitlines()):
                    raise Structural("stderr line counts differ")
                for x, y in zip(err_a.splitlines(), err_b.splitlines()):
                    _compare_text(x, y, entry["worst"])
                beyond = max(entry["worst"].values(), default=0.0) > rtol
                entry["class"] = "beyond" if beyond else "within"
            except Structural as exc:
                entry = {"class": "structural", "reordered": False, "worst": {},
                         "why": str(exc)}
        report[argv] = entry
    return report


def _print_report(report: dict, rtol: float) -> None:
    counts: dict = {}
    for argv, entry in report.items():
        counts[entry["class"]] = counts.get(entry["class"], 0) + 1
        if entry["class"] == "identical":
            continue
        print(f"{entry['class']}{' (reordered)' if entry['reordered'] else ''}: {argv}")
        if "why" in entry:
            print(f"    {entry['why']}")
        moved = {c: d for c, d in entry["worst"].items() if d > 0.0}
        for col, d in sorted(moved.items(), key=lambda item: -item[1]):
            print(f"    {col}: {d:.3g}")
    summary = ", ".join(f"{n} {cls}" for cls, n in sorted(counts.items()))
    print(f"{len(report)} commands at rtol {rtol:g}: {summary}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs=2, metavar="PATH",
                        help="SRC OUT.json to run, or A.json B.json with --compare")
    parser.add_argument("--compare", action="store_true",
                        help="compare two result files instead of running the set")
    parser.add_argument("--rtol", type=float, default=1e-12,
                        help="largest number difference counted as within (default 1e-12)")
    args = parser.parse_args(argv)
    if not args.compare:
        with open(args.paths[1], "w", encoding="utf-8") as fh:
            json.dump(run(args.paths[0]), fh, indent=1)
        return 0
    results = []
    for path in args.paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    report = compare(*results, args.rtol)
    _print_report(report, args.rtol)
    return 1 if any(e["class"] in ("beyond", "structural") for e in report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
