"""Simulation-based radiocarbon fine-dating.

The pipeline: load a calibration curve, build a reference table of
repeated simulated measurements on a calendar-date grid, match measured
radiocarbon ages against the table by exact integer equality, aggregate
the matched calendar dates (and the calibrated means and medians) into
twelve central-tendency indicators, and assess indicator quality with
tolerance-grown mode searches, delta categories, performance curves and
per-bucket lookup tables.
"""

__version__ = "0.1.0"

from .calcurve import (
    CalCurve,
    CalibrationResult,
    Measurement,
    calibrate,
    curve_at,
    from_cal_bp,
    load_curve,
    posterior_summary,
    to_cal_bp,
)
from .curves import (
    flat_curve,
    linear_curve,
    locate_intcal20,
    synthetic_study_curve,
    write_curve,
)
from .evaluate import (
    DeltaCategory,
    EvalColumns,
    MPDResult,
    NormalityResult,
    anderson_darling,
    average_deviation_analysis,
    category_fractions,
    classify_delta,
    dagostino_pearson,
    evaluate_test_series,
    histogram,
    interval_normality,
    mpd_report,
    mpd_search,
    overall_aggregate,
    performance_curves,
    rice_bins,
)
from .finedate import (
    FAMILIES,
    INDICATOR_NAMES,
    IndicatorSet,
    MatchSet,
    compute_indicators,
    match_measurements,
    normalize_indicator,
    write_report,
)
from .lookup import LookupTable, build_lookup, query_lookup, read_lookup, write_lookup
from .reftable import (
    RefTable,
    RefTableSpec,
    build_combo_table,
    build_reference_table,
    read_table,
    standard_spec,
    write_table,
)
from .simulate import (
    TestSeries,
    draw_age,
    generate_test_datasets,
    r_simulate,
    read_tests,
    substream,
    write_tests,
)
