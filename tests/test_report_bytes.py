import json
import subprocess
import sys
from pathlib import Path

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
    ]


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
    assert len(labels) == 423 and all(label.startswith("== search ") for label in labels)
    assert labels[0] == "== search process-family 0 ordered-mixture exit 0"
    assert labels[-1] == "== search coherent visibility 1.0 exit 0"
    assert {rep["verdict"] for rep in reports} <= {"separable", "nonseparable", "inconclusive"}
    # a moved field is named with its search
    moved = json.loads(lines[3])
    moved["residual"] *= 2.0
    lines[3] = json.dumps(moved, sort_keys=True)
    other = tmp_path / "parent.searches"
    other.write_text("\n".join(lines) + "\n")
    found = diff(other, out)
    assert (found.returncode, found.stdout) == (1, "search process-family 1 random-valid: residual\n")
