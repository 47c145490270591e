"""tools/audit.py on a small subset: the report's shape and its counts."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import audit  # noqa: E402

SUBSET = ("linear 0.3 1 1000 5", "tan 1 0.9 500 4")


def test_the_configuration_list_is_fixed():
    names = [name for name, _ in audit.configurations()]
    assert len(names) == 72 == len(set(names))
    assert names[0] == "linear 0 1 1000 5" and names[-1] == "tan 5 0.95 1000 4"
    assert audit.TABLE_BOXES == (2.5, 4.0, 8.0)


def test_audit_subset_report(capsys):
    configs = [c for c in audit.configurations() if c[0] in SUBSET]
    result = audit.run(str(ROOT / "src"), configs, table_boxes=(8.0,))
    (linear, tan), (table,) = result["certified"], result["tables"]
    assert (linear["verify"], linear["failing"]) == (0, [])
    assert set(linear["routes"]) == {"analytic", "dirac", "susy"}
    for run in linear["routes"].values():
        assert run["raised"] is None and run["records"]
        assert set(run["records"][0]) == {"label", "E", "exact", "error", "err_est", "limit"}
    # alpha 0.436: the susy route refuses, and verify exits 4
    assert tan["verify"] == 4 and "Friedrichs" in tan["failing"][0]
    assert tan["routes"]["susy"]["raised"].startswith("ConvergenceError")
    assert tan["routes"]["dirac"]["raised"] is None
    # verify does not take tables: they run the two numerical routes only
    assert table["verify"] is None and set(table["routes"]) == {"dirac", "susy"}
    summary = audit.summarize(result["certified"])
    assert (summary["configurations"], summary["failing"], summary["exit4"]) == (2, 1, 1)
    assert summary["routes"]["analytic"] == {"converged": 17 + 13, "false_converged": 0,
                                             "err_est_below_error": 0, "raised": 0}
    assert summary["routes"]["susy"]["raised"] == 1 and summary["routes"]["dirac"]["raised"] == 0
    assert summary["routes"]["dirac"]["false_converged"] == 0
    assert audit.print_set("certified", result["certified"]) == summary
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== certified"
    assert "certified: 1 of 2 configurations fail verify, 1 with exit 4" in lines
    assert lines[-1].startswith("certified susy: ") and lines[-1].endswith(", 1 runs raise")
