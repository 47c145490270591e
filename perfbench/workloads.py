"""The benchmark's seeded workloads.

Each workload is an endless stream of rounds. Every round has the same
make-up (the same kinds of operation in the same order); the seed only draws
the couplings. A run attempts whole rounds, so the share of failed
operations is the same in every run.

Inputs are plain parameter points drawn by `random.Random` from a string
seed, so a seed regenerates the same stream on any platform. `points()`
gives the stream without the program; `ops()` turns a round of points into
operations on the package.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle

# couplings where alpha0 sqrt(1-kappa^2) is an integer (5, 4, 3 at alpha0 = 5):
# within about 0.008 of them the tan lattice can lose or mislabel levels,
# which fails on some seeds only, and within about 0.02 a point takes two or
# three refinement rounds instead of one, so every tan coupling keeps
# TAN_GAP away from them
TAN_EDGES = (0.0, 0.6, -0.6, 0.8, -0.8)
TAN_GAP = 0.03


@dataclass(frozen=True)
class Point:
    family: str  # "linear" or "tan"
    kappa: float
    grid_n: int = 0
    count: int = 0  # lattice levels per sign, or CLI solver.levels


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


class _Stream:
    """Seeded stream of rounds of distinct (family, kappa) points."""

    name = ""
    layout: tuple = ()  # per slot: (family, |kappa| lo, |kappa| hi, grid.n, count)

    def __init__(self, seed: int, workdir: str = "") -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seen: set = set()
        self.workdir = workdir  # where ops may write files

    def _kappa(self, family: str, lo: float, hi: float) -> float:
        """A coupling of magnitude in [lo, hi] and random sign, not drawn
        before; tan couplings keep TAN_GAP away from TAN_EDGES."""
        avoid = TAN_EDGES if family == "tan" else ()
        while True:
            k = self.rng.choice((-1.0, 1.0)) * self.rng.uniform(lo, hi)
            if (family, k) not in self.seen and all(abs(k - a) >= TAN_GAP for a in avoid):
                self.seen.add((family, k))
                return k

    def _point(self, family, lo, hi, grid_n, count):
        return Point(family, self._kappa(family, lo, hi), grid_n=grid_n, count=count)

    def points(self) -> list[Point]:
        return [self._point(*slot) for slot in self.layout]


class LatticeSweep(_Stream):
    """Twelve points per round through converge_box_full, one in six past
    |kappa| = 1 as in a sweep across the critical coupling. Per slot: family,
    |kappa| range, grid.n, levels per sign.

    The ten subcritical points take one refinement round each; the two
    supercritical ones run the refinement loop to its budget. Left out, each
    for a reason named in CHANGES.md: linear |kappa| below 0.2, where the
    lattice flags true levels unconverged on some couplings (kappa -0.135 to
    -0.03 at grid.n 2000); tan |kappa| below 0.05 or above 0.68 and within
    TAN_GAP of TAN_EDGES, where a point takes two rounds instead of one
    (from 0.72 up, and on about a third of the couplings at grid.n 300), so
    that a round's cost does not hang on the draw. Three levels per sign put
    the tan points on the batched eigenvalue path; a linear point with three
    takes 8-11 s and flags true levels unconverged, so linear keeps two.

    The mix, 2 linear to 8 tan subcritical points, is chosen for a steady
    median, not taken from a real sweep: the tan points (2-3 s) form the
    middle of the sorted latencies, so op_p50_s is the latency of a tan
    point and does not see the linear path (0.5-0.8 s); ops_per_s sees both.
    """

    name = "lattice-sweep"
    layout = ((("linear", 0.2, 0.85, 2000, 2),) + (("tan", 0.05, 0.68, 500, 3),) * 4
              + (("linear", 0.2, 0.85, 2000, 2),) + (("tan", 0.05, 0.68, 500, 3),) * 4
              + (("linear", 1.05, 1.6, 2000, 2), ("tan", 1.05, 1.6, 1000, 1)))

    def ops(self, pkg, points):
        return [self._op(pkg, p) for p in points]

    def _op(self, pkg, p):
        params = _params(pkg, p)
        grid = pkg.dirac_solver.default_grid(params, n=p.grid_n)

        def call():
            return pkg.dirac_solver.converge_box_full(params, p.count, grid=grid)

        def check(result):
            oracle.check_levels(result.records, p.family, p.kappa, oracle.LATTICE_RTOL)
            oracle.check_pairs(result.records, oracle.LATTICE_RTOL)
            if abs(p.kappa) < 1.0:
                oracle.check_complete(result.records, p.count)

        return Op(f"{p.family} kappa={p.kappa!r}", call, check)


class CliSession(_Stream):
    """cli.main in process, as an analyst uses it. Per round one linear
    config (grid.n 2000, 2 levels, |kappa| 0.2-0.7) and one tan config
    (grid.n 1000, 3 levels, |kappa| 0.05-0.7). Per config: spectrum
    --solver.route all, verify, wavefunction of levels the lattice run
    already holds (it asks for max(levels, n_sigma + 2) levels, which must
    equal the spectrum's count to reuse it: n_sigma 0 for linear, 0 and 1
    for tan), then spectrum again as JSON. Outputs go to files, which are
    parsed and checked."""

    name = "cli-session"
    # the couplings are left out where lattice-sweep leaves them out (see
    # there): there the lattice flags true levels unconverged or loses them
    # on some seeds only, which fails spectrum, verify and wavefunction
    layout = (("linear", 0.2, 0.7, 2000, 2), ("tan", 0.05, 0.7, 1000, 3))
    # (sigma, n, branch, format). The negative ground level is contested, so
    # linear has one level here, written as CSV and as JSON; tan shows
    # n_sigma = 1 on both branches under both of its labels, whose
    # reduced-route states come from the two partner problems. Per round the
    # four cached verify/JSON commands lie below the five tan wavefunctions
    # and the two linear ones and two first spectra above, so the median
    # latency is the middle tan wavefunction.
    wavefunctions = {"linear": ((-1, 0, 1, "csv"), (-1, 0, 1, "json")),
                     "tan": ((-1, 0, 1, "csv"), (-1, 1, 1, "csv"), (1, 0, 1, "csv"),
                             (-1, 1, -1, "csv"), (1, 0, -1, "csv"))}

    sessions = 0

    def ops(self, pkg, points):
        out = []
        for p in points:
            self.sessions += 1
            out.extend(self._session(pkg, p, os.path.join(self.workdir, f"s{self.sessions}")))
        return out

    def _session(self, pkg, p, stem):
        base = ["--model.family", p.family, "--model.kappa", repr(p.kappa),
                "--grid.n", str(p.grid_n), "--solver.levels", str(p.count)]
        ctx: dict = {}

        def command(argv):
            def call():
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
                    rc = pkg.cli.main(argv)
                return rc, err.getvalue()
            return call

        def expect_ok(out):
            rc, err = out
            if rc != 0:
                raise oracle.Mismatch(f"exit code {rc}: {err.strip()[:300]}")

        def check_spectrum(out):
            expect_ok(out)
            with open(stem + ".csv", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            routes = {r["route"] for r in rows}
            if routes != {"analytic", "dirac", "susy"}:
                raise oracle.Mismatch(f"routes {sorted(routes)} in the spectrum")
            for route in ("analytic", "susy", "dirac"):
                sub = [r for r in rows if r["route"] == route]
                rtol = oracle.LATTICE_RTOL if route == "dirac" else oracle.SUSY_RTOL
                oracle.check_levels(sub, p.family, p.kappa, rtol)
                oracle.check_pairs(sub, rtol)
                oracle.check_complete(sub, p.count)
            ctx["rows"] = rows

        def check_verify(out):
            rc, _ = out
            with open(stem + ".txt", encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines() if ln]
            status = {}
            for ln in lines:
                word, _, rest = ln.partition(" ")
                if word not in ("PASS", "FAIL") or ":" not in rest:
                    raise oracle.Mismatch(f"malformed verify line {ln!r}")
                status[rest.split(":", 1)[0]] = word == "PASS"
            if rc != (0 if all(status.values()) else 1):
                raise oracle.Mismatch(f"verify exit code {rc} for report {status}")
            rows = ctx.get("rows")
            if rows is None:
                raise oracle.Mismatch("no spectrum to compare the audit with")
            # the lattice flags are the program's own finding; every other
            # audit line states a property that holds for these configs
            resolved = all(r["converged"] == "true" for r in rows if r["route"] == "dirac")
            want = {"three-route agreement": True, "lattice resolution": resolved,
                    "degeneracy pairing": True, "branch symmetry": True,
                    "potential identity": True, "closed-form level residual": True}
            if status != want:
                raise oracle.Mismatch(f"verify report {status}, expected {want}")

        def check_wavefunction(sigma, n, branch, fmt, path):
            def check(out):
                expect_ok(out)
                with open(path, encoding="utf-8") as fh:
                    if fmt == "json":
                        payload = json.load(fh)
                        info, rows = payload["info"], payload["records"]
                    else:
                        text = fh.read().splitlines()
                        info = [ln[2:] for ln in text if ln.startswith("# ")]
                        rows = list(csv.DictReader(
                            ln for ln in text if not ln.startswith("#")))
                fields = dict(tok.split("=", 1) for tok in info[0].split()[1:])
                E = float(fields["E"])
                overlap = float(info[1].split("=", 1)[1])
                if (int(fields["sigma"]), int(fields["n"])) != (sigma, n):
                    raise oracle.Mismatch(f"wavefunction header {info[0]!r}")
                want = branch * oracle.level_energy(p.family, p.kappa,
                                                    oracle.n_sigma_of(sigma, n))
                if abs(E - want) > oracle.LATTICE_RTOL * max(abs(want), 1.0):
                    raise oracle.Mismatch(f"wavefunction E={E!r}, law {want!r}")
                if not overlap >= 0.999:
                    raise oracle.Mismatch(f"lattice/reduction overlap {overlap!r}")
                if len(rows) != p.grid_n:
                    raise oracle.Mismatch(f"{len(rows)} rows for grid.n {p.grid_n}")
                for col in ("cum_dirac", "cum_susy"):
                    if abs(float(rows[-1][col]) - 1.0) > 1e-9:
                        raise oracle.Mismatch(f"{col} ends at {rows[-1][col]}")
            return check

        def check_json(out):
            expect_ok(out)
            with open(stem + ".json", encoding="utf-8") as fh:
                records = json.load(fh)
            rows = ctx.get("rows") or []
            if len(records) != len(rows):
                raise oracle.Mismatch(f"{len(records)} JSON records, {len(rows)} CSV rows")
            for rec, row in zip(records, rows):
                a, b = oracle.as_level(rec), oracle.as_level(row)
                if a[:4] != b[:4] or a[5] != b[5] or abs(a[4] - b[4]) > 1e-12 * max(abs(b[4]), 1.0):
                    raise oracle.Mismatch(f"JSON record {a} vs CSV row {b}")

        tag = f"{p.family} kappa={p.kappa!r}"
        ops = [
            Op(f"{tag} spectrum",
               command(["spectrum", *base, "--solver.route", "all", "--output", stem + ".csv"]),
               check_spectrum),
            Op(f"{tag} verify", command(["verify", *base, "--output", stem + ".txt"]),
               check_verify),
        ]
        for sigma, n, branch, fmt in self.wavefunctions[p.family]:
            path = f"{stem}-wf{sigma:+d}{n}{branch:+d}.{fmt}"
            ops.append(Op(f"{tag} wavefunction ({sigma},{n},{branch:+d}) {fmt}",
                          command(["wavefunction", *base, "--sigma", str(sigma),
                                   "--n", str(n), "--branch", str(branch),
                                   "--format", fmt, "--output", path]),
                          check_wavefunction(sigma, n, branch, fmt, path)))
        ops.append(Op(f"{tag} spectrum json",
                      command(["spectrum", *base, "--solver.route", "all", "--format",
                               "json", "--output", stem + ".json"]),
                      check_json))
        return ops


def _params(pkg, p: Point):
    m = pkg.model
    sp = m.Superpotential.linear(1.0) if p.family == "linear" else m.Superpotential.tangent(5.0)
    return m.PhysicalParams(mass=1.0, kappa=p.kappa, superpotential=sp)


WORKLOADS = {cls.name: cls for cls in (LatticeSweep, CliSession)}
