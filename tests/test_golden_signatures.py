"""Golden-signature matrix: every backend's output pinned byte for byte.

Each case cleans one workload instance (160 tuples, 15% errors, workload
seed 7, error seed 42, the workload's recommended configuration) on one
backend and compares two fingerprints with ``tests/golden/signatures.json``:

* the masked :func:`~repro.core.report.report_signature` (the whole report
  JSON minus its wall-clock parts), and
* a SHA-256 digest of the cleaned table alone.

The matrix covers 4 workloads × 3 backends plus a ``violation``-scoped batch
and streaming run per workload (the distributed backend cleans full-scope
only).  A refactor must leave every entry unchanged; a deliberate behaviour
change regenerates the file with ``python tests/golden/write_signatures.py``
and lands the diff with the code.  This test never writes the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.report import canonical_json, report_signature, table_to_json_dict
from repro.experiments.harness import prepare_instance
from repro.session.cleaners import CleaningRequest, MLNCleanCleaner
from repro.workloads.registry import recommended_config

GOLDEN_PATH = Path(__file__).parent / "golden" / "signatures.json"

WORKLOADS = ("hai", "car", "tpch", "hospital-sample")
TUPLES = 160
ERROR_RATE = 0.15

#: (backend, backend options, detector stack) per run of one workload
RUNS = (
    ("batch", {}, None),
    ("distributed", {"workers": 2}, None),
    ("streaming", {}, None),
    ("batch", {}, ["violation"]),
    ("streaming", {}, ["violation"]),
)


def case_id(workload: str, backend: str, detectors) -> str:
    suffix = "" if detectors is None else "-" + "+".join(detectors)
    return f"{workload}/{backend}{suffix}"


CASES = [
    (case_id(workload, backend, detectors), workload, backend, options, detectors)
    for workload in WORKLOADS
    for backend, options, detectors in RUNS
]


def fingerprints(workload: str, backend: str, options: dict, detectors) -> dict:
    """The masked report signature and cleaned-table digest of one run."""
    instance = prepare_instance(
        workload, tuples=TUPLES, error_rate=ERROR_RATE, seed=7, error_seed=42
    )
    request = CleaningRequest(
        dirty=instance.dirty,
        rules=instance.rules,
        config=recommended_config(workload),
        ground_truth=instance.ground_truth,
        detectors=detectors,
    )
    report = MLNCleanCleaner(backend, **options).run(request)
    cleaned = canonical_json(table_to_json_dict(report.cleaned))
    return {
        "signature": report_signature(report),
        "cleaned": hashlib.sha256(cleaned.encode("utf-8")).hexdigest(),
    }


def all_fingerprints() -> dict:
    """Case id → fingerprints for the whole matrix."""
    return {case: fingerprints(*args) for case, *args in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_the_matrix(golden):
    assert sorted(golden) == sorted(case for case, *_ in CASES)


@pytest.mark.parametrize(
    "workload,backend,options,detectors",
    [args for _, *args in CASES],
    ids=[case for case, *_ in CASES],
)
def test_run_matches_golden_signature(golden, workload, backend, options, detectors):
    case = case_id(workload, backend, detectors)
    assert fingerprints(workload, backend, options, detectors) == golden[case]
