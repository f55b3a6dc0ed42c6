"""Scoring the method at scale: a simulated test series.

Clusters of three simulated measurements are generated for every 5th
year of the study span and fine-dated against a reference table.  Since
each cluster's true date is known, every indicator gets a signed delta
and a quality category; per-date success fractions then expose the
stretches of the curve where dating degrades, and the tolerance-grown
mode search summarizes each reported value against the evaluated pool.

Run:  python demos/04_test_series_evaluation.py
"""

from pathlib import Path

import numpy as np

import finedating as fd
from finedating.evaluate import write_eval_rows

OUT = Path(__file__).parent / "output"
DATES = [-300.0 + 5.0 * i for i in range(61)]


def main() -> None:
    curve = fd.synthetic_study_curve()
    OUT.mkdir(exist_ok=True)
    table = fd.build_reference_table(curve, fd.standard_spec("5_20_5", seed=42))

    print(f"simulating {len(DATES)} dates x 20 datasets x 3 measurements ...")
    series = fd.generate_test_datasets(curve, DATES, 20, sd=20.0, seed=99)
    rows = fd.evaluate_test_series(table, series)
    write_eval_rows(rows, OUT / "eval_long.csv")
    unmatched = (rows.category == "no_match").sum() // 12
    print(f"  {len(series)} datasets evaluated, {unmatched} without any match")

    fractions = fd.category_fractions(rows)
    print("\nquality categories over all indicator evaluations:")
    for category, frac in fractions.items():
        print(f"  {category:13s} {frac:6.1%}")
    within25 = fractions["excellent"] + fractions["high_quality"]
    print(f"  within +-25 y: {within25:.1%}, within +-35 y: "
          f"{within25 + fractions['satisfactory']:.1%}")

    print("\nper-date success of the CalDate family (threshold 25 y):")
    caldate = {
        date: frac
        for date, family, frac in fd.performance_curves(rows, 25)
        if family == "CalDate"
    }
    for date in DATES[::6]:
        bar = "#" * int(30 * caldate[date])
        print(f"  {date:6g} {caldate[date]:5.2f} {bar}")

    _, full_span = fd.average_deviation_analysis(rows)
    print("\nfull-span signed mean deltas:")
    for name in fd.INDICATOR_NAMES:
        print(f"  {name:28s} {full_span[name]:+6.2f}")

    print("\ntolerance-grown mode search over the evaluated pool:")
    report = fd.mpd_report(rows[: 12 * 5])
    for i in range(6):
        print(f"  {report['indicator'][i]:28s} value {report['value'][i]:8.2f} -> mpd "
              f"{report['mpd'][i]:8.2f} (T={report['tolerance'][i]:g}, "
              f"{report['match_count'][i]} matches, range {report['range'][i]:g})")
    mean, median = fd.overall_aggregate(report["mpd"])
    print(f"  overall mean {mean:.2f}, overall median {median:.2f}")

    print("\nper-interval dispersion diagnostics (every 12th date):")
    for item in fd.interval_normality(table, series)[::12]:
        ad = "-" if item.matched_dates_statistic is None else f"{item.matched_dates_statistic:6.1f}"
        print(f"  {item.original_date:6g}: {item.n_matched_dates:5d} matched dates, "
              f"AD {ad}, ages omnibus p={item.ages_p_value:.2f}")


if __name__ == "__main__":
    main()
