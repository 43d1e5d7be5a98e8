"""Smoke tests: every example script runs end to end on a small workload."""

import runpy
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, script: str, argv: list[str]):
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "quickstart.py", [])
    assert "CleaningSession(cleaner=mlnclean, backend=batch" in output
    assert "Dirty input" in output
    assert "Final clean table" in output
    # the typo DOTH disappears and the duplicates collapse
    assert "DOTH " not in output.split("Final clean table")[1]


def test_hospital_cleaning_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "hospital_cleaning.py", ["400"])
    assert "Running MLNClean" in output
    assert "HoloClean" in output
    assert "Higher F1 on this run" in output


def test_car_error_types_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "car_error_types.py", ["300"])
    assert "fig07" in output
    assert "All-typo setting" in output


def test_cleaners_tour_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "cleaners_tour.py", ["48"])
    assert "registered cleaners" in output
    assert "holoclean" in output and "factor-graph" in output
    assert "artifact JSON round-trip bit-identical: True" in output


def test_distributed_tpch_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "distributed_tpch.py", ["400"])
    assert "partition sizes" in output
    assert "workers" in output


def test_streaming_clean_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "streaming_clean.py", ["200", "50"])
    assert "Streaming 200 HAI tuples" in output
    assert "batches applied: 4" in output
    assert "late correction" in output
    assert "matches batch MLNClean: True" in output


def test_backends_tour_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "backends_tour.py", ["48"])
    assert "batch" in output and "distributed" in output and "streaming" in output
    assert "batch == streaming: True" in output
    assert "batch == distributed: True" in output


def test_service_quickstart_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "service_quickstart.py", ["36", "6"])
    assert "service listening on" in output
    assert "byte-identical to the batch report: 6/6" in output
    assert "late correction applied" in output
    assert "distance cache hit rate" in output


def test_tracing_tour_example(monkeypatch, capsys, tmp_path):
    trace_out = tmp_path / "trace.json"
    output = run_example(
        monkeypatch, capsys, "tracing_tour.py", ["48", str(trace_out)]
    )
    assert "span tree of the batch run" in output
    assert "pipeline.clean" in output and "stage:agp" in output
    assert "connected trees: 1" in output
    assert "masked report signature identical with tracing off: True" in output
    assert "repro_stage_seconds_total" in output
    assert trace_out.is_file()


def test_detectors_tour_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "detectors_tour.py", ["120"])
    assert "registered detectors" in output
    assert "violation" in output and "perfect" in output
    assert "hospital_sample.dc: 2 denial constraints" in output
    assert "all-cells detection byte-identical to no detection: True" in output
    assert "raw distance evaluations: full=" in output


def test_examples_directory_contains_expected_scripts():
    names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "detectors_tour.py",
        "hospital_cleaning.py",
        "car_error_types.py",
        "distributed_tpch.py",
        "streaming_clean.py",
        "backends_tour.py",
        "service_quickstart.py",
        "tracing_tour.py",
    } <= names
