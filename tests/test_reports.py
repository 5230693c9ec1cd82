"""CSV/JSON emission: exact round-trips, byte determinism, strict JSON."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lipnet import (EvalReport, EvalRow, SensitivityEntry, SensitivityReport,
                    StepRecord, TrainRecord, write_eval_report,
                    write_ratio_table, write_sensitivity_report,
                    write_train_record)
from lipnet.reports import EpochRecord, _json_safe, fmt_float, write_json

finite = st.floats(allow_nan=False, allow_infinity=False)
maybe_nan = st.floats(allow_infinity=False)


def eq_or_both_nan(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@given(st.lists(st.tuples(finite, finite, finite, maybe_nan,
                          st.integers(0, 10**9)), min_size=1, max_size=8))
def test_eval_csv_round_trip_is_exact(rows):
    report = EvalReport([EvalRow(*r) for r in rows])
    back = EvalReport.from_csv_text(report.to_csv_text())
    for a, b in zip(report.rows, back.rows):
        assert a.sigma_test == b.sigma_test
        assert a.accuracy == b.accuracy
        assert a.mean_confidence_correct == b.mean_confidence_correct
        assert eq_or_both_nan(a.mean_k, b.mean_k)
        assert a.n == b.n


def test_eval_csv_header_and_endings():
    report = EvalReport([EvalRow(0.0, 0.97, 0.99, float("nan"), 100)])
    text = report.to_csv_text()
    lines = text.split("\n")
    assert lines[0] == "sigma_test,accuracy,mean_confidence_correct,mean_k,n"
    assert "\r" not in text and text.endswith("\n")
    assert lines[1].split(",")[3] == "nan"


def test_eval_csv_rejects_foreign_header():
    with pytest.raises(ValueError, match="header"):
        EvalReport.from_csv_text("a,b,c\n1,2,3\n")


def test_fmt_float_is_repr():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(1 / 3) == repr(1 / 3)
    assert fmt_float(float("nan")) == "nan"


def test_json_safe_replaces_non_finite():
    payload = {"a": float("nan"), "b": [float("inf"), 1.5], "c": {"d": -float("inf")}}
    safe = _json_safe(payload)
    text = json.dumps(safe, allow_nan=False)  # would raise if any slipped through
    assert json.loads(text) == {"a": None, "b": [None, 1.5], "c": {"d": None}}


def test_write_json_sorted_and_strict(tmp_path):
    write_json(tmp_path / "x.json", {"b": 1, "a": float("nan")})
    text = (tmp_path / "x.json").read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": None, "b": 1}


def test_write_eval_report_artifacts(tmp_path):
    report = EvalReport([EvalRow(0.0, 1.0, 1.0, float("nan"), 10),
                         EvalRow(0.5, 0.9, 0.8, 0.02, 10)],
                        metadata={"corruption_seed": 7})
    write_eval_report(report, tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"eval_report.csv", "eval_report.json"}
    assert (tmp_path / "eval_report.csv").read_text() == report.to_csv_text()
    parsed = json.loads((tmp_path / "eval_report.json").read_text())
    assert parsed["metadata"]["corruption_seed"] == 7
    assert parsed["rows"][0]["mean_k"] is None


def test_write_train_record_excludes_wall_time(tmp_path):
    record = TrainRecord(
        steps=[StepRecord(0, 2.3, 0.1, 0.02, 2.4)],
        epochs=[EpochRecord(1, 0.5, 12.5), EpochRecord(2, 0.9, 13.5)],
        meta={"n_steps": 1})
    write_train_record(record, tmp_path)
    steps_text = (tmp_path / "train_record.csv").read_text()
    epochs_text = (tmp_path / "train_epochs.csv").read_text()
    assert steps_text.split("\n")[0] == "step,loss_usual,loss_lipschitz,mean_k,loss_total"
    assert epochs_text.split("\n")[0] == "epoch,train_acc"
    assert "12.5" not in epochs_text and "13.5" not in epochs_text
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert timings["epoch_wall_time"] == [12.5, 13.5]
    assert timings["total_wall_time"] == 26.0


def test_write_sensitivity_report(tmp_path):
    report = SensitivityReport(
        baseline={"lr": 0.05},
        entries=[SensitivityEntry("beta", 1.0, 90.0, 92.0, 2.0)],
        metadata={"units": "percentage points"})
    write_sensitivity_report(report, tmp_path)
    parsed = json.loads((tmp_path / "sensitivity_report.json").read_text())
    assert parsed["entries"][0] == {"param": "beta", "delta": 1.0,
                                    "acc_before": 90.0, "acc_after": 92.0,
                                    "sensitivity": 2.0}


def test_write_ratio_table(tmp_path):
    rows = [(0.1, 0.0, 0.8), (0.1, 0.5, 0.6), (1.0, 0.0, 0.95), (1.0, 0.5, 0.9)]
    write_ratio_table(rows, tmp_path)
    text = (tmp_path / "ratio_study.csv").read_text()
    assert text.split("\n")[0] == "ratio,sigma_test,accuracy"
    assert text.count("\n") == 5
    assert {p.name for p in tmp_path.iterdir()} == {"ratio_study.csv"}


def test_csv_rejects_booleans():
    from lipnet.reports import _csv_text
    with pytest.raises(TypeError, match="boolean"):
        _csv_text(("a",), [(True,)])
