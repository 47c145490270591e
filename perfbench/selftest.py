"""Fast self-test of the harness; run.py runs it before every run.

    python3 perfbench/selftest.py

It checks the oracle against values worked out by hand, that a seed
regenerates the same stream, and that no workload ever repeats a point.
It needs no part of the program.
"""

import oracle
import workloads


class SelfTestError(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(abs(b), 1.0)


def check_oracle() -> None:
    law = oracle.level_energy
    for n in range(6):
        # linear, kappa = 0, w1 = m = 1: E^2 = 2n + 1
        _expect(_close(law("linear", 0.0, n) ** 2, 2 * n + 1), f"linear kappa=0 n={n}")
        # tan, kappa = 0, alpha0 = 5, m = 1: E^2 = 1 + (5 + n)^2 - 25
        _expect(_close(law("tan", 0.0, n) ** 2, 1 + 10 * n + n * n), f"tan kappa=0 n={n}")
    # ground level E0^2 = (1 - kappa^2) m^2: kappa = 0.6 gives 0.8
    _expect(_close(law("linear", 0.6, 0), 0.8), "linear ground kappa=0.6")
    _expect(_close(law("tan", -0.6, 0), 0.8), "tan ground kappa=-0.6")
    # linear kappa = 0.6, n = 1: E^2 = 0.64 (2 * 0.8 + 1) = 1.664
    _expect(_close(law("linear", 0.6, 1) ** 2, 1.664), "linear kappa=0.6 n=1")
    # past the certified tan window the lattice converges the same law:
    # tan, kappa 0.5, n_sigma 5 gives E = 8.0410798 on the lattice
    _expect(abs(law("tan", 0.5, 5) - 8.0410798) <= 1e-7, "tan kappa=0.5 n=5")
    for kappa in (1.0, -1.3):
        try:
            law("linear", kappa, 1)
        except ValueError:
            continue
        raise SelfTestError(f"law accepted supercritical kappa {kappa}")
    rec = {"route": "dirac", "branch": "+", "sigma": "1", "n": "0",
           "E": repr(law("linear", 0.3, 1) * (1 + 1e-4)), "converged": "true"}
    try:
        oracle.check_levels([rec], "linear", 0.3, oracle.LATTICE_RTOL)
    except oracle.Mismatch:
        pass
    else:
        raise SelfTestError("check_levels missed a 1e-4 error")

    def level(sigma, n, branch=1, conv=True):
        e = branch * law("tan", 0.3, oracle.n_sigma_of(sigma, n))
        return {"route": "dirac", "branch": branch, "sigma": sigma, "n": n, "E": e,
                "converged": conv}

    full = [level(-1, 0), level(-1, 1), level(1, 0), level(-1, 1, -1), level(1, 0, -1)]
    oracle.check_pairs(full)
    oracle.check_complete(full, 2)
    bad = {
        "a converged label twice": full + [level(-1, 1)],
        "a missing level": [level(-1, 0), level(-1, 2), level(1, 1)],
        "a level flagged unconverged": [level(-1, 0), level(-1, 1, conv=False),
                                        level(1, 0, conv=False)],
        "no converged level": [level(-1, 0, conv=False)],
    }
    for what, records in bad.items():
        try:
            oracle.check_pairs(records)
            oracle.check_complete(records, 2)
        except oracle.Mismatch:
            continue
        raise SelfTestError(f"check_pairs/check_complete passed {what}")


def check_streams(rounds: int = 40) -> None:
    for name, cls in workloads.WORKLOADS.items():
        a, b, c = cls(7), cls(7), cls(8)
        first = [a.points() for _ in range(rounds)]
        _expect(first == [b.points() for _ in range(rounds)], f"{name}: seed 7 not reproduced")
        _expect(first != [c.points() for _ in range(rounds)], f"{name}: seeds 7 and 8 agree")
        points = [p for rnd in first for p in rnd]
        keys = {(p.family, p.kappa) for p in points}
        _expect(len(keys) == len(points), f"{name}: a point repeats")
        _expect(len({len(rnd) for rnd in first}) == 1, f"{name}: rounds differ in size")
    stream = workloads.LatticeSweep(3)
    sweep = [p for _ in range(rounds) for p in stream.points()]
    past = sum(abs(p.kappa) > 1.0 for p in sweep)
    _expect(past * 6 == len(sweep), "lattice-sweep: not one point in six supercritical")
    for cls in workloads.WORKLOADS.values():
        stream = cls(3)
        for p in (p for _ in range(rounds) for p in stream.points()):
            if p.family == "tan":
                _expect(min(abs(p.kappa - e) for e in workloads.TAN_EDGES)
                        >= workloads.TAN_GAP,
                        f"{cls.name}: tan coupling {p.kappa} at an integer well strength")


def run() -> None:
    check_oracle()
    check_streams()


if __name__ == "__main__":
    run()
    print("perfbench self-test passed")
