"""The two user-facing scripts run end to end and print the paper's
headline lines, each as a subprocess on 2,000 trials; the line counter
counts code lines only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--trials", "2000", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return [line.strip() for line in done.stdout.splitlines()]


def test_reproduce_headline_prints_both_certificates_and_the_classification():
    lines = run_script("reproduce_headline.py")
    assert "joint distribution: infeasible; every joint needs 7/25 <= P(not U & V & W) <= 11/100" in lines
    assert any(line.startswith("2-D transition model: infeasible; the phases would need cos(phase) = -14/11") for line in lines)
    assert "fitted epsilon per question from 15%/15% predetermined: w 0.7000, v 0.7000, u 0.7000" in lines
    assert "classification at forced epsilon sqrt(2)/2: neither" in lines


def test_census_regions_prints_thirteen_regions():
    assert run_script("census_regions.py")[-1] == "13 nonempty regions; total 1.000000"


def test_src_lines_counts_code_only(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""Module docstring,\nover two lines."""\n\n# a comment\nX = 1  # code with a comment\n\n\n'
        'def f():\n    """Docstring."""\n    return """not a\n    docstring"""\n'
    )
    (tmp_path / "b.py").write_text("Y = [\n    2,\n]\n")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows == [["3", "b.py"], ["4", "pkg/a.py"], ["7", "total"]]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py")], capture_output=True, text=True, timeout=60, check=True)
    counts = [int(line.split()[0]) for line in done.stdout.splitlines()]
    assert len(counts) > 2 and counts[-1] == sum(counts[:-1])
