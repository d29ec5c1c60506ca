"""The benchmark summariser on tiny synthetic result files."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchsum.py"


def _result(path: Path, seed: int, op_ms: float, rss: float, correct: bool = True) -> Path:
    path.write_text(json.dumps({
        "workload": "library-calls", "seed": seed, "seconds": 1.0,
        "environment": {"python": "3.x", "cores": 2},
        "correct": correct, "attempted": 10, "failed": 0,
        "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ms"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}}))
    return path


def test_summary_of_two_pairs(tmp_path):
    parent = [_result(tmp_path / "p1.json", 1, 0.40, 50.0),
              _result(tmp_path / "p2.json", 2, 0.44, 51.0)]
    change = [_result(tmp_path / "c1.json", 1, 0.25, 50.0),
              _result(tmp_path / "c2.json", 2, 0.27, 52.0, correct=False)]
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(TOOL), "--parent", *map(str, parent),
                           "--change", *map(str, change), "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert summary["runs"] == {"parent": 2, "change": 2}
    assert summary["environment"]["change"] == [{"python": "3.x", "cores": 2}]
    w = summary["workloads"]["library-calls"]
    assert w["paired_seeds"] == [1, 2]
    assert w["all_correct"] == {"parent": True, "change": False}
    op = w["metrics"]["op_ms_p50"]
    assert op["unit"] == "ms" and op["better"] == "lower"
    assert abs(op["parent"]["median"] - 0.42) <= 1e-12
    assert abs(op["parent"]["iqr"] - 0.02) <= 1e-12
    assert abs(op["change"]["median"] - 0.26) <= 1e-12
    assert abs(op["median_change"] - (0.26 / 0.42 - 1.0)) <= 1e-12
    assert op["pair_wins"] == {"change": 2, "parent": 0, "ties": 0}
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["pair_wins"] == {"change": 0, "parent": 1, "ties": 1}
    assert rss["change"]["by_seed"] == {"1": 50.0, "2": 52.0}
