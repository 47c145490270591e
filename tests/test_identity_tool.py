"""tools/identity.py's comparison: identical, within, beyond, structural."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import identity  # noqa: E402

CSV = ("kappa,route,branch,sigma,n,n_sigma,E,converged,pr\n"
       "0,dirac,+,-1,0,0,1,true,3.5\n"
       "0,dirac,-,-1,1,1,-1.73205080756888,true,4.25\n"
       "0,dirac,+,-1,1,1,1.73205080756888,true,4.25\n")


def classes(b_out, b_code=0, a_out=CSV, rtol=1e-12):
    report = identity.compare({"cmd": [0, a_out, ""]}, {"cmd": [b_code, b_out, ""]}, rtol)
    return report["cmd"]


def test_identical_within_and_beyond():
    assert classes(CSV)["class"] == "identical"
    moved = CSV.replace("-1.73205080756888", "-1.73205080756889")
    entry = classes(moved)
    assert entry["class"] == "within" and 0.0 < entry["worst"]["E"] < 1e-14
    assert entry["worst"]["pr"] == 0.0 and not entry["reordered"]
    assert classes(CSV.replace("3.5", "3.5000001"))["class"] == "beyond"
    assert classes(CSV.replace("3.5", "3.5000001"), rtol=1e-6)["class"] == "within"


def test_rows_are_matched_by_their_labels():
    lines = CSV.splitlines(keepends=True)
    swapped = "".join(lines[:2] + [lines[3], lines[2]])
    entry = classes(swapped)
    assert entry["class"] == "within" and entry["reordered"]
    assert entry["worst"]["E"] == 0.0


def test_text_lines_and_json_compare_by_their_numbers():
    a = "PASS three-route agreement: max cross-route discrepancy 4.572e-10 (limit 1e-04)\n"
    entry = classes(a.replace("4.572e-10", "4.573e-10"), a_out=a)
    assert entry["class"] == "within"
    assert entry["worst"]["PASS three-route agreement: max cross-route discrepancy"] > 0.0
    payload = '{\n "info": [\n  "overlap = 1"\n ],\n "records": [\n  {"x": 0.5}\n ]\n}\n'
    assert classes(payload.replace("0.5", "0.5000000000000001"), a_out=payload)["class"] == "within"


def test_structural_differences():
    assert classes(CSV, b_code=1)["class"] == "structural"
    assert classes(CSV.replace("true,4.25\n0,dirac,+", "false,4.25\n0,dirac,+"))["class"] == "structural"
    assert classes(CSV.rsplit("0,dirac,+,-1,1", 1)[0])["class"] == "structural"
    assert classes(CSV.replace("dirac,-,-1,1,1", "dirac,-,1,0,1"))["class"] == "structural"
    assert classes("FAIL lattice resolution\n", a_out="PASS lattice resolution\n")["class"] == "structural"
