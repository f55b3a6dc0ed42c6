import numpy as np
import pytest

import finedating as fd
from finedating.reftable import (
    COMBO_COMPONENTS,
    STANDARD_SPECS,
    edge_warnings,
    records_by_slice,
)


def test_spec_slice_arithmetic():
    spec = fd.standard_spec("5_20_5", seed=1)
    assert spec.n_slices == 65
    assert spec.n_records == 1300
    spec = fd.standard_spec("1_50_5", seed=1)
    assert spec.n_slices == 200
    assert spec.n_records == 10_000


def test_spec_rejects_empty_and_bad_span():
    with pytest.raises(ValueError, match="empty spec"):
        fd.RefTableSpec(label="x", year_interval=5, per_slice=0, sd=5, span=(-50, 0), seed=1)
    with pytest.raises(ValueError, match="oldest"):
        fd.RefTableSpec(label="x", year_interval=5, per_slice=1, sd=5, span=(0, -50), seed=1)
    with pytest.raises(ValueError, match="whole number"):
        fd.RefTableSpec(label="x", year_interval=5, per_slice=1, sd=5, span=(-52, 0), seed=1)


def test_standard_specs_cover_expected_totals():
    totals = {
        "1_50_5": 10_000,
        "5_10_20": 650,
        "5_20_5": 1300,
        "5_50_5": 3250,
        "5_50_20": 3250,
        "5_80_5": 5200,
        "5_100_0": 6500,
        "5_100_5": 6500,
    }
    for label, expected in totals.items():
        assert fd.standard_spec(label, seed=0).n_records == expected
    assert sum(fd.standard_spec(l, 0).n_records for l in COMBO_COMPONENTS) == 26_000


def test_build_shape_and_grid(table_5_20_5):
    assert len(table_5_20_5.records) == 1300
    dates = {rec.base_date for rec in table_5_20_5.records}
    assert dates == set(fd.standard_spec("5_20_5", 0).slice_dates())
    assert [r.sim_id for r in table_5_20_5.records] == list(range(1, 1301))


def test_build_rejects_span_outside_domain(flat_curve):
    spec = fd.RefTableSpec(label="x", year_interval=5, per_slice=1, sd=5, span=(-500, 0), seed=1)
    with pytest.raises(ValueError, match="outside curve domain"):
        fd.build_reference_table(flat_curve, spec)


def test_combo_concatenates_components(study_curve):
    spec = fd.RefTableSpec(
        label="small", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5
    )
    single = fd.build_combo_table(study_curve, [spec])
    direct = fd.build_reference_table(study_curve, spec)
    assert single.records == direct.records

    double = fd.build_combo_table(study_curve, [spec, spec])
    assert len(double.records) == 2 * len(direct.records)
    assert [r.sim_id for r in double.records] == list(range(1, 2 * len(direct.records) + 1))


def test_combo_rejects_mismatched_spans(study_curve):
    a = fd.RefTableSpec(label="a", year_interval=10, per_slice=2, sd=5, span=(-100, -50), seed=1)
    b = fd.RefTableSpec(label="b", year_interval=10, per_slice=2, sd=5, span=(-90, -40), seed=1)
    with pytest.raises(ValueError, match="incompatible specs"):
        fd.build_combo_table(study_curve, [a, b])
    with pytest.raises(ValueError, match="empty spec"):
        fd.build_combo_table(study_curve, [])


def test_write_read_roundtrip(tmp_path, study_curve):
    spec = fd.RefTableSpec(
        label="rt", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5
    )
    table = fd.build_reference_table(study_curve, spec)
    path = tmp_path / "rt.csv"
    fd.write_table(table, path)
    back = fd.read_table(path)
    assert back.records == table.records
    assert back.specs == table.specs
    assert back.label == table.label


def test_read_rejects_truncated_file(tmp_path, study_curve):
    spec = fd.RefTableSpec(
        label="rt", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5
    )
    fd.write_table(fd.build_reference_table(study_curve, spec), tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "trunc.csv").write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError, match="corrupt table"):
        fd.read_table(tmp_path / "trunc.csv")


def test_read_rejects_tampered_data(tmp_path, study_curve):
    spec = fd.RefTableSpec(
        label="rt", year_interval=10, per_slice=3, sd=5, span=(-100, -50), seed=5
    )
    fd.write_table(fd.build_reference_table(study_curve, spec), tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_text()
    lines = text.splitlines()
    lines[-1] = lines[-1].replace(lines[-1].split(",")[2], "1234")
    (tmp_path / "t2.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt table"):
        fd.read_table(tmp_path / "t2.csv")


def test_read_hand_built_file(tmp_path):
    text = (
        "# format=finedating-reftable\n"
        "# label=hand\n"
        "# curve=none\n"
        "# seed=1\n"
        "# records=2\n"
        "# spec=hand,5,1,5,-55,-50,1\n"
        "id,cal_date,age_bp,sd,cal_mean,cal_median,cal_sigma\n"
        "1,-55,2005,5,-56.5,-57,9.25\n"
        "2,-50,2001,5,-51,-50.5,8.5\n"
    )
    (tmp_path / "hand.csv").write_text(text)
    table = fd.read_table(tmp_path / "hand.csv")
    assert len(table.records) == 2
    rec = table.records[0]
    assert (rec.sim_id, rec.base_date, rec.age, rec.sd) == (1, -55.0, 2005, 5.0)
    assert (rec.cal_mean, rec.cal_median, rec.cal_sigma) == (-56.5, -57.0, 9.25)


def test_rebuild_is_byte_identical(tmp_path, study_curve):
    spec = fd.RefTableSpec(
        label="det", year_interval=10, per_slice=5, sd=20, span=(-150, -50), seed=99
    )
    fd.write_table(fd.build_reference_table(study_curve, spec), tmp_path / "a.csv")
    fd.write_table(fd.build_reference_table(study_curve, spec), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_per_slice_mean_tracks_curve(table_5_50_5, study_curve):
    for date, recs in records_by_slice(table_5_50_5).items():
        mu, sig = fd.curve_at(study_curve, date)
        tol = 4.0 * np.sqrt(5.0**2 + sig**2) / np.sqrt(len(recs))
        assert abs(np.mean([r.age for r in recs]) - mu) <= tol


def test_scatter_tracks_curve(table_5_50_5, study_curve):
    ages = np.array([r.age for r in table_5_50_5.records], dtype=float)
    mus = np.array([fd.curve_at(study_curve, r.base_date)[0] for r in table_5_50_5.records])
    assert np.corrcoef(ages, mus)[0, 1] > 0.99


def test_edge_warnings_fire_near_span_edges(table_5_20_5, study_curve):
    warnings = edge_warnings(table_5_20_5, [0.0], curve=study_curve, sd=20.0)
    assert any("young edge" in w for w in warnings)
    assert not any(
        "young edge" in w
        for w in edge_warnings(table_5_20_5, [-150.0], curve=study_curve, sd=5.0)
    )


def test_unknown_standard_label_rejected():
    with pytest.raises(ValueError, match="unknown table variant"):
        fd.standard_spec("9_9_9", seed=0)


@pytest.mark.parametrize("sd", [-3.0, float("nan"), float("inf")])
def test_spec_rejects_negative_or_non_finite_sd(sd):
    with pytest.raises(ValueError, match="sd must be finite and >= 0"):
        fd.RefTableSpec(label="x", year_interval=5, per_slice=1, sd=sd, span=(-50, 0), seed=1)
