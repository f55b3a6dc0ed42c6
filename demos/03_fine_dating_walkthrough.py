"""Fine-dating walkthrough: from three measured ages to twelve estimates.

An object with a true calendar date of 75 BC is measured three times
(simulated here at sd 20).  Each measured age pulls every reference
record with the same integer age; the matched calendar dates, and the
calibrated means and medians stored alongside them, are aggregated into
the twelve indicators.  The true date is used only at the end, to show
the deviations.

Run:  python demos/03_fine_dating_walkthrough.py
"""

from pathlib import Path

import finedating as fd

OUT = Path(__file__).parent / "output"
TRUE_DATE = -75.0


def main() -> None:
    curve = fd.synthetic_study_curve()
    OUT.mkdir(exist_ok=True)
    table = fd.build_reference_table(curve, fd.standard_spec("5_20_5", seed=42))

    rng = fd.substream(75, 0)
    measurements = [fd.r_simulate(curve, TRUE_DATE, 20.0, rng) for _ in range(3)]
    print("measured ages:", ", ".join(f"{m.age} +- {m.sd:g}" for m in measurements))

    matches = fd.match_measurements(table, measurements)
    print(f"\nmatched records: {matches.n_prime}")
    start = 0
    for m, count in zip(measurements, matches.counts.tolist()):
        dates = sorted(matches.pooled_dates()[start : start + count])
        start += count
        span = f"{dates[0]:g}..{dates[-1]:g}" if dates else "-"
        print(f"  age {m.age}: {count:3d} matches, dates {span}")
    if matches.unmatched:
        print("  unmatched ages:", matches.unmatched)

    indicators = fd.compute_indicators(matches)
    print(f"\nindicators (true date {TRUE_DATE:g}):")
    print(f"  {'indicator':28s} {'value':>9s} {'delta':>7s}  {'n':>4s}  category")
    for name, value, n_used in indicators.as_rows():
        delta = value - TRUE_DATE
        category = fd.classify_delta(delta).value
        print(f"  {name:28s} {value:9.2f} {delta:+7.2f}  {n_used:4d}  {category}")

    overview, summary = fd.write_report(matches, indicators, OUT / "object_75bc")
    print(f"\nreport written: {overview}")
    print(f"                {summary}")


if __name__ == "__main__":
    main()
