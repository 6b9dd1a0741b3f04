import json
import os
import re
import subprocess
import sys
from pathlib import Path

from icolab.process import EXITS

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_bytes.py"


def report(psd_margin: float, witness_value: float) -> str:
    return json.dumps(
        {
            "chsh": {"correlators": [[0.5, 0.5], [0.5, -0.5]], "value": 2.0},
            "process": {
                "separability": {"iterations": 7, "witness_value": witness_value},
                "validity": {"psd_margin": psd_margin, "verdict": "valid"},
            },
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def sweep(s_opt: str) -> str:
    return f"# scenario=coherent parameter=eta\nparam,S_opt,negativity\n0.0,2.0,0.0\n0.5,{s_opt},0.25\n"


def write(path: Path, sections: list[tuple[str, int, str]]) -> Path:
    path.write_text("".join(f"== {label} exit {code}\n{body}\n" for label, code, body in sections))
    return path


def diff(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--diff", str(a), str(b)], capture_output=True, text=True, timeout=60
    )


def test_diff_names_the_json_paths_and_csv_cells_that_moved(tmp_path):
    a = write(
        tmp_path / "a.bytes",
        [
            ("run coherent", 0, report(-3.0e-16, -0.57)),
            ("run baseline", 0, report(-1.0e-16, -0.1)),
            ("run failing", 2, ""),
            ("sweep coherent-eta", 0, sweep("2.2360679774997894")),
            ("run dropped", 0, report(0.0, 0.0)),
        ],
    )
    b = write(
        tmp_path / "b.bytes",
        [
            ("run coherent", 0, report(-4.0e-16, -0.58)),
            ("run baseline", 0, report(-1.0e-16, -0.1)),
            ("run failing", 3, ""),
            ("sweep coherent-eta", 0, sweep("2.23606797749979")),
        ],
    )
    out = diff(a, b)
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines() == [
        f"run dropped: only in {a}",
        "run coherent: process.separability.witness_value",
        "run coherent: process.validity.psd_margin",
        "run failing: exit code",
        "sweep coherent-eta: row 2 S_opt",
        f"1 exit code, 1 only in {a}, 1 process.separability.witness_value (max |Δ| 0.01),"
        " 1 process.validity.psd_margin (max |Δ| 1e-16), 1 row 2 S_opt (max |Δ| 4.4e-16)",
    ]


def test_diff_ends_with_a_tally_per_moved_field(tmp_path):
    report = json.dumps({"iterations": 9, "q": 0.4, "residual": 1e-15})
    sections = [(f"search {k}", 0, report) for k in range(3)]
    a = write(tmp_path / "a.searches", sections)
    sections[0] = ("search 0", 0, json.dumps({"iterations": 4, "q": 0.5, "residual": 2e-16}))
    sections[2] = ("search 2", 0, json.dumps({"iterations": 5, "q": 0.4, "residual": 3e-16}))
    out = diff(a, write(tmp_path / "b.searches", sections))
    assert out.returncode == 1, out.stderr
    # each count ends with the largest absolute change of its field
    assert out.stdout.splitlines()[-1] == "2 iterations (max |Δ| 5), 1 q (max |Δ| 0.1), 2 residual (max |Δ| 8e-16)"
    assert len(out.stdout.splitlines()) == 6


def test_diff_of_equal_files_is_empty(tmp_path):
    sections = [("run coherent", 0, report(-3.0e-16, -0.57)), ("sweep eta", 0, sweep("2.5"))]
    out = diff(write(tmp_path / "a.bytes", sections), write(tmp_path / "b.bytes", sections))
    assert (out.returncode, out.stdout) == (0, "no differences\n")


def test_searches_write_one_report_per_search_input(tmp_path):
    out = tmp_path / "change.searches"
    src = SCRIPT.parents[1] / "src"
    args = [sys.executable, str(SCRIPT), "--searches", str(src), str(out)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    labels, reports = lines[::2], [json.loads(line) for line in lines[1::2]]
    # the process-family inputs of seeds 1, 2 and 3, then 18 hand-picked
    # searches, 40 lightly damped mixtures and 3 product processes
    assert len(labels) == 1321 and all(label.startswith("== search ") for label in labels)
    assert "== search quantum-switch exit 0" in labels
    assert labels[1261] == "== search quantum-switch mixed with its v1 Z copy exit 0"
    assert "== search coherent visibility 1.0 exit 0" in labels
    assert "== search coherent visibility 0.3 phase-rotated exit 0" in labels
    assert labels[0] == "== search process-family seed 1 0 ordered-mixture exit 0"
    assert labels[420] == "== search process-family seed 2 0 ordered-mixture exit 0"
    assert labels[1259] == "== search process-family seed 3 419 ocb exit 0"
    assert labels[1268] == "== search undamped-mixture 0 exit 0"
    assert labels[1277] == "== search pure-future BA exit 0"
    assert labels[1278] == "== search lightly-damped-mixture 0 exit 0"
    assert labels[-1] == "== search product with a future exit 0"
    assert {rep["verdict"] for rep in reports} <= {"separable", "nonseparable", "inconclusive"}
    # each record names the search's exit, which run reports leave out; the
    # inputs reach every exit of the search but the step cap
    exits = [rep["exit"] for rep in reports]
    assert set(exits) == set(EXITS) - {"step-cap", "decomposition"}
    assert exits[1261] == "face-witness" and exits[-1] == "converged"
    # every input is searched, and its validity report rides along
    assert all(rep["validity"]["verdict"] == "valid" for rep in reports)
    # each certificate, and only a certificate, carries one sha256 of its parts' matrices
    assert all(("parts_sha256" in rep) is rep["separable"] for rep in reports)
    assert all(re.fullmatch("[0-9a-f]{64}", rep.get("parts_sha256", "0" * 64)) for rep in reports)
    assert len({rep["parts_sha256"] for rep in reports if rep["separable"]}) >= 1000
    # a moved field, of the search, of its parts or of the validity report, is named with its search
    moved = json.loads(lines[3])
    change, margin = moved["residual"], moved["validity"]["psd_margin"]
    moved["exit"] = "early-stop"
    moved["residual"] *= 2.0
    moved["validity"]["psd_margin"] *= 2.0
    moved["parts_sha256"] = moved["parts_sha256"][::-1]
    lines[3] = json.dumps(moved, sort_keys=True)
    other = tmp_path / "parent.searches"
    other.write_text("\n".join(lines) + "\n")
    found = diff(other, out)
    label = "search process-family seed 1 1 random-valid"
    want = (
        f"{label}: exit\n{label}: parts_sha256\n{label}: residual\n{label}: validity.psd_margin\n"
        f"1 exit, 1 parts_sha256, 1 residual (max |Δ| {change:.2g}), 1 validity.psd_margin (max |Δ| {margin:.2g})\n"
    )
    assert (found.returncode, found.stdout) == (1, want)


def test_scan_writes_one_labelled_record_per_custom_config(tmp_path, monkeypatch):
    tools = SCRIPT.parent
    monkeypatch.syspath_prepend(str(tools))
    import scan_custom

    paths = [tools.parent / "src", tools, tools.parent / "tests"]
    env = {"PYTHONPATH": os.pathsep.join(map(str, paths)), "OPENBLAS_NUM_THREADS": "1"}
    args = [sys.executable, "-c", "import scan_custom; scan_custom.scan(2)"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120, env={**os.environ, **env})
    assert done.returncode == 0, done.stderr
    out = tmp_path / "change.scan"
    out.write_text(done.stdout)
    lines = done.stdout.splitlines()
    assert lines[::2] == ["== custom 0 exit 0", "== custom 1 exit 0"]
    records = [json.loads(line) for line in lines[1::2]]
    assert [rec["config"] for rec in records] == scan_custom.draw_configs(2)
    labels = {"no split", "margin >= -tau", "margin < -tau"}
    for rec in records:
        assert rec["verdict"] in {"separable", "nonseparable", "inconclusive"} and rec["iterations"] >= 0
        assert rec["exit"] in EXITS
        # W is real, and labelled by the oracle, unless Y is a free evolution
        assert rec.get("oracle") in labels or "Y" in (rec["config"]["v0"], rec["config"]["v1"]), rec
        assert not (rec["verdict"] == "separable" and rec.get("oracle") == "margin < -tau"), rec
    assert sum(scan_custom.counts(out).values()) == 2
    assert diff(out, out).stdout == "no differences\n"
