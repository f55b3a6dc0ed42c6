"""Reference tables: repeated simulation on a calendar-date grid.

The named variants follow the step_per_sd convention: 5_20_5 draws 20
measurements with sd 5 at every 5th year of the study span, 1_50_5 uses
a 1-year grid, and Combo concatenates the six 5-year variants into one
26,000-record pool.  The scatter of (age, curve mean) shows how tightly
a table traces its curve.

Run:  python demos/02_reference_tables.py
"""

from pathlib import Path

import numpy as np

import finedating as fd
from finedating.reftable import COMBO_COMPONENTS

OUT = Path(__file__).parent / "output"


def main() -> None:
    curve = fd.synthetic_study_curve()
    OUT.mkdir(exist_ok=True)

    spec = fd.standard_spec("5_20_5", seed=42)
    print(f"building {spec.label}: {spec.n_slices} slices x {spec.per_slice}/slice, sd {spec.sd:g}")
    table = fd.build_reference_table(curve, spec)
    print(f"  {len(table)} records, ages {table.age.min()}..{table.age.max()} BP")

    path = OUT / "ref_5_20_5.csv"
    fd.write_table(table, path)
    back = fd.read_table(path)
    same = all(np.array_equal(a, b) for a, b in zip(back.columns(), table.columns()))
    print(f"  written to {path} (round-trips losslessly: {same})")

    mus = np.array([fd.curve_at(curve, date)[0] for date in table.base_date])
    correlation = np.corrcoef(table.age, mus)[0, 1]
    print(f"  correlation of drawn ages with the curve mean: {correlation:.4f}")

    print("\nper-slice dispersion (every 10th slice):")
    for date in np.unique(table.base_date)[::10]:
        slice_ages = table.age[table.base_date == date]
        print(f"  {date:6g}: mean {slice_ages.mean():7.1f}, spread "
              f"{slice_ages.max() - slice_ages.min():3d} y over {slice_ages.size} draws")

    print("\nbuilding the Combo table from six 5-year variants ...")
    combo = fd.build_combo_table(
        curve, [fd.standard_spec(label, seed=42 + i) for i, label in enumerate(COMBO_COMPONENTS)]
    )
    print(f"  components: {', '.join(COMBO_COMPONENTS)}")
    print(f"  total records: {len(combo)}")


if __name__ == "__main__":
    main()
