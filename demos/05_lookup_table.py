"""The quality lookup: judging a dating result without knowing the truth.

Evaluated datasets are bucketed by indicator value into half-open
intervals of a chosen width (5 years here, the default); each (bucket,
indicator) cell stores how often that indicator landed within the fixed
tolerances of 12 and 25 years of the true date.  Given
a fresh dating result, consulting the bucket of each indicator value
tells which indicator deserves trust at that position on the time axis.

Run:  python demos/05_lookup_table.py
"""

from pathlib import Path

import finedating as fd
from finedating.lookup import build_lookup, write_lookup

OUT = Path(__file__).parent / "output"
DATES = [-300.0 + 5.0 * i for i in range(61)]


def main() -> None:
    curve = fd.synthetic_study_curve()
    OUT.mkdir(exist_ok=True)
    table = fd.build_reference_table(curve, fd.standard_spec("5_20_5", seed=42))
    series = fd.generate_test_datasets(curve, DATES, 20, sd=20.0, seed=99)
    rows = fd.evaluate_test_series(table, series)

    lookup = build_lookup(rows)
    write_lookup(lookup, OUT / "lookup.csv")
    lo, hi = lookup.covered_range()
    print(f"lookup table: {len(lookup)} buckets of {lookup.bucket_width:g} y "
          f"covering [{lo:g}, {hi:g})")

    # bucket membership is half-open: -251 belongs to [-255, -250)
    for value in (-251.0, -250.0):
        left, count, frac12, frac25 = fd.query_lookup(lookup, "CalDate_Median", value)
        print(f"  value {value:6g} -> bucket [{left:g}, {left + lookup.bucket_width:g}), "
              f"count {count}, within 12/25 y: {frac12}/{frac25} %")

    print("\nnow date a fresh object (true date -135) and consult the table:")
    rng = fd.substream(5, 5)
    measurements = [fd.r_simulate(curve, -135.0, 20.0, rng) for _ in range(3)]
    indicators = fd.compute_indicators(fd.match_measurements(table, measurements))
    print(f"  {'indicator':28s} {'value':>9s} {'bucket':>16s} {'n':>5s} {'<=12y':>6s} {'<=25y':>6s}")
    for name, value, _ in indicators.as_rows():
        try:
            left, count, frac12, frac25 = fd.query_lookup(lookup, name, value)
        except ValueError:
            print(f"  {name:28s} {value:9.2f}  outside covered range")
            continue
        f12 = "-" if frac12 is None else f"{frac12:.0f}%"
        f25 = "-" if frac25 is None else f"{frac25:.0f}%"
        print(f"  {name:28s} {value:9.2f} [{left:6g},{left + lookup.bucket_width:6g}) {count:5d} {f12:>6s} {f25:>6s}")

    print("\nhigh within-25 percentages mark the indicators to trust here.")


if __name__ == "__main__":
    main()
