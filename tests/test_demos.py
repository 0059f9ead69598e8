"""Each demo script runs to the end, so a demo that uses a removed name
or a changed signature fails here rather than in a reader's hands."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    ["baseline_tables", "crowding_out", "irregular_equilibria", "prize_design",
     "simulation_check"],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
