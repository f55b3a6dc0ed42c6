"""Golden pins: the committed demo outputs, byte for byte.

Each demo script is copied into a temporary directory and run there, so
its ``OUT = Path(__file__).parent / "output"`` points into that directory
and ``demos/output/`` is only read.  Every file the script writes must
equal the committed file of the same name.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

OUTPUTS = {
    "01_calibration_basics.py": [],
    "02_reference_tables.py": ["ref_5_20_5.csv", "ref_5_20_5.csv.cols"],
    "03_fine_dating_walkthrough.py": ["object_75bc_overview.csv", "object_75bc_summary.csv"],
    "04_test_series_evaluation.py": ["eval_long.csv", "eval_long.csv.cols"],
    "05_lookup_table.py": ["lookup.csv"],
}


def test_every_demo_and_output_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(OUTPUTS)
    assert sorted(p.name for p in (DEMOS / "output").iterdir()) == sorted(
        name for names in OUTPUTS.values() for name in names
    )


@pytest.mark.parametrize("script", sorted(OUTPUTS))
def test_demo_reproduces_committed_output(script, tmp_path, capsys):
    copy = tmp_path / script
    shutil.copyfile(DEMOS / script, copy)
    runpy.run_path(str(copy), run_name="__main__")
    capsys.readouterr()
    out = tmp_path / "output"
    written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    assert written == sorted(OUTPUTS[script])
    for name in written:
        assert (out / name).read_bytes() == (DEMOS / "output" / name).read_bytes(), name
