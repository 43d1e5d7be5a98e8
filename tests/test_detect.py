"""The error-detection front end: registry, built-ins, DC files, scoping.

Covers the :mod:`repro.detect` subsystem end to end — the detector registry
and spec resolution, every built-in detector on the Table-1 hospital sample,
HoloClean-format denial-constraint ingestion, the exact-or-prune contract
(all-cells detection is byte-identical to no detection on every workload and
backend), dirty-cell-scoped cleaning, streaming re-detection invalidation,
and the service wire codec.
"""

from __future__ import annotations

import json

import pytest

from repro.constraints.dcfile import (
    load_dc_file,
    looks_like_dc_line,
    parse_dc_line,
    parse_dc_text,
)
from repro.constraints.parser import RuleParseError, parse_rule
from repro.core.report import report_signature
from repro.dataset.sample import sample_hospital_rules, sample_hospital_table
from repro.dataset.table import Cell
from repro.detect import (
    AllCellsDetector,
    CleaningScope,
    DirtyCells,
    FixedDetector,
    NullDetector,
    OutlierDetector,
    PerfectDetector,
    StreamDetection,
    UnionDetector,
    ViolationDetector,
    available_detectors,
    data_path,
    detector_specs_identity,
    get_detector,
    resolve_detector,
    run_detection,
    validate_detector_specs,
)
from repro.errors.groundtruth import ErrorType, GroundTruth, InjectedError
from repro.experiments.harness import prepare_instance
from repro.service.codec import decode_clean_request
from repro.service.errors import BadRequestError
from repro.session import CleaningSession
from repro.session.cleaners import CleaningRequest, MLNCleanCleaner, get_cleaner
from repro.session.session import load_rules
from repro.streaming.cleaner import StreamingMLNClean
from repro.streaming.delta import DeltaBatch, Insert
from repro.workloads.registry import recommended_config


def hospital_instance(tuples=60, error_rate=0.1):
    return prepare_instance(
        "hospital-sample",
        tuples=tuples,
        error_rate=error_rate,
        replacement_ratio=0.5,
        seed=7,
        error_seed=42,
    )


# ----------------------------------------------------------------------
# registry and spec resolution
# ----------------------------------------------------------------------
def test_builtin_detectors_registered():
    names = available_detectors()
    for name in ("all-cells", "null", "violation", "fixed", "outlier", "perfect", "union"):
        assert name in names


def test_unknown_detector_lists_registered_names():
    with pytest.raises(KeyError) as excinfo:
        get_detector("nope")
    message = str(excinfo.value)
    assert "nope" in message and "violation" in message


def test_resolve_detector_spec_forms():
    assert isinstance(resolve_detector("null"), NullDetector)
    pinned = resolve_detector(
        {"name": "violation", "options": {"rules": ["CT -> ST"]}}
    )
    assert isinstance(pinned, ViolationDetector)
    instance = OutlierDetector()
    assert resolve_detector(instance) is instance
    with pytest.raises(ValueError, match="needs a 'name'"):
        resolve_detector({"options": {}})
    with pytest.raises(ValueError, match="unexpected detector spec keys"):
        resolve_detector({"name": "null", "junk": 1})
    with pytest.raises(TypeError, match="cannot resolve detector spec"):
        resolve_detector(42)


def test_validate_detector_specs_rejects_bad_shapes():
    assert validate_detector_specs(["null", {"name": "violation"}])
    with pytest.raises(ValueError, match="unknown detector"):
        validate_detector_specs(["nope"])
    with pytest.raises(ValueError, match="must be a list"):
        validate_detector_specs("null")
    with pytest.raises(ValueError, match="name or a"):
        validate_detector_specs([42])


def test_detector_specs_identity_is_json_safe():
    identity = detector_specs_identity(
        ["Null", {"name": "violation", "options": {"refine": False}}, OutlierDetector()]
    )
    assert identity[0] == {"name": "null"}
    assert identity[1] == {"name": "violation", "options": {"refine": False}}
    assert identity[2]["instance"].endswith("OutlierDetector")
    assert detector_specs_identity(None) is None
    json.dumps(identity)  # must serialize


# ----------------------------------------------------------------------
# DirtyCells
# ----------------------------------------------------------------------
def test_dirty_cells_round_trip_and_accuracy():
    cells = DirtyCells(
        cells={Cell(1, "CT"), Cell(2, "PN")},
        by_detector={"violation": {Cell(1, "CT")}, "null": {Cell(2, "PN")}},
        seconds=0.25,
    )
    clone = DirtyCells.from_json_dict(cells.to_json_dict())
    assert clone.cells == cells.cells
    assert clone.by_detector == cells.by_detector
    table = sample_hospital_table()
    accuracy = cells.accuracy({Cell(1, "CT"), Cell(3, "ST")}, table)
    assert accuracy["precision"] == 0.5
    assert accuracy["recall"] == 0.5


def test_all_cells_covers_table():
    table = sample_hospital_table()
    detected = AllCellsDetector().detect(table, [])
    assert DirtyCells(cells=detected).covers(table)
    detected.pop()
    assert not DirtyCells(cells=detected).covers(table)


# ----------------------------------------------------------------------
# built-in detectors on the Table-1 sample
# ----------------------------------------------------------------------
def test_null_detector_flags_markers():
    table = sample_hospital_table()
    rows = [dict((a, table.row(tid)[a]) for a in table.attributes) for tid in table.tids]
    rows[0]["PN"] = ""
    rows[1]["CT"] = "N/A"
    from repro.session.session import load_table

    dirty = load_table(rows)
    found = NullDetector().detect(dirty, [])
    assert found == {Cell(0, "PN"), Cell(1, "CT")}


def test_fixed_detector_ledgers(tmp_path):
    inline = FixedDetector(cells=[(0, "CT"), {"tid": 1, "attribute": "ST"}])
    table = sample_hospital_table()
    assert inline.detect(table, []) == {Cell(0, "CT"), Cell(1, "ST")}

    json_path = tmp_path / "cells.json"
    json_path.write_text(json.dumps({"cells": [[2, "PN"], [99, "PN"]]}))
    assert FixedDetector(path=json_path).detect(table, []) == {Cell(2, "PN")}

    csv_path = tmp_path / "cells.csv"
    csv_path.write_text("tid,attribute\n3,ST\n")
    assert FixedDetector(path=csv_path).detect(table, []) == {Cell(3, "ST")}

    with pytest.raises(ValueError, match="exactly one of"):
        FixedDetector()
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="'tid' and 'attribute'"):
        FixedDetector(path=bad_csv)


def test_perfect_detector_reads_ledger_and_requires_one():
    table = sample_hospital_table()
    ledger = GroundTruth(
        [InjectedError(Cell(2, "PN"), "2567688400", "2567638410", ErrorType.REPLACEMENT)]
    )
    assert PerfectDetector(ledger).detect(table, []) == {Cell(2, "PN")}
    with pytest.raises(ValueError, match="needs the injected-error ledger"):
        PerfectDetector().detect(table, [])


def test_outlier_detector_flags_rare_and_stretched_values():
    from repro.session.session import load_table

    rows = [{"A": "x", "B": "aaaa"} for _ in range(8)]
    rows[3] = {"A": "y", "B": "aaaa"}          # rare categorical value
    rows[5] = {"A": "x", "B": "aaaaaaaaaaaa"}  # stretched length
    table = load_table(rows)
    found = OutlierDetector().detect(table, [])
    assert Cell(3, "A") in found
    assert Cell(5, "B") in found
    assert Cell(0, "A") not in found


def test_violation_detector_refinement_beats_raw_flagging():
    instance = hospital_instance()
    refined = ViolationDetector().detect(instance.dirty, instance.rules)
    raw = ViolationDetector(refine=False).detect(instance.dirty, instance.rules)
    assert refined < raw  # strictly fewer cells flagged
    truth = instance.ground_truth.dirty_cells
    refined_result = DirtyCells(cells=refined)
    raw_result = DirtyCells(cells=raw)
    refined_precision = refined_result.accuracy(truth, instance.dirty)["precision"]
    raw_precision = raw_result.accuracy(truth, instance.dirty)["precision"]
    assert refined_precision > raw_precision


def test_union_detector_merges_members():
    table = sample_hospital_table()
    union = UnionDetector(["violation", FixedDetector(cells=[(0, "HN")])])
    found = union.detect(table, sample_hospital_rules())
    assert Cell(0, "HN") in found
    assert len(found) > 1
    with pytest.raises(ValueError, match="at least one"):
        UnionDetector([])


# ----------------------------------------------------------------------
# HoloClean-format DC files
# ----------------------------------------------------------------------
def test_dc_line_matches_native_dc_syntax():
    table = sample_hospital_table()
    hc = parse_dc_line("t1&t2&EQ(t1.PN,t2.PN)&IQ(t1.ST,t2.ST)", name="r2")
    native = parse_rule("DC: PN(t1)=PN(t2) & ST(t1)!=ST(t2)", name="r2")
    hc_cells = {cell for v in hc.violations(table) for cell in v.suspect_cells}
    native_cells = {
        cell for v in native.violations(table) for cell in v.suspect_cells
    }
    assert hc_cells == native_cells


def test_parse_rule_dispatches_holoclean_lines():
    assert looks_like_dc_line("t1&t2&EQ(t1.CT,t2.CT)&IQ(t1.ST,t2.ST)")
    rule = parse_rule("t1&t2&EQ(t1.CT,t2.CT)&IQ(t1.ST,t2.ST)")
    assert rule.violations(sample_hospital_table())


def test_dc_text_skips_comments_and_names_in_order():
    rules = parse_dc_text(
        "# header\n"
        "\n"
        "t1&t2&EQ(t1.CT,t2.CT)&IQ(t1.ST,t2.ST)\n"
        "t1&t2&EQ(t1.PN,t2.PN)&IQ(t1.ST,t2.ST)\n"
    )
    assert [rule.name for rule in rules] == ["dc1", "dc2"]


def test_dc_parse_errors_carry_line_numbers():
    with pytest.raises(RuleParseError, match=r"<string>:3: .*\[line: "):
        parse_dc_text("# ok\n\nt1&t2&BOGUS(t1.A,t2.A)&EQ(t1.B,t2.B)\n")
    with pytest.raises(RuleParseError, match="no denial constraints"):
        parse_dc_text("# only comments\n")
    with pytest.raises(RuleParseError, match="single-tuple"):
        parse_dc_line("t1&EQ(t1.A,t1.B)&IQ(t1.A,t1.C)")
    with pytest.raises(RuleParseError, match="undeclared tuple variable"):
        parse_dc_line("t1&t2&EQ(t3.A,t2.A)&IQ(t1.B,t2.B)")


def test_packaged_dc_file_drives_violation_detector():
    path = data_path("hospital_sample.dc")
    assert path.is_file()
    rules = load_dc_file(path)
    assert len(rules) == 2
    instance = hospital_instance()
    detector = ViolationDetector(dc_file="hospital_sample.dc")
    assert detector.granularity == "table"  # pinned rules: full re-detection
    found = detector.detect(instance.dirty, [])  # run rules not needed
    assert found
    truth = instance.ground_truth.dirty_cells
    assert DirtyCells(cells=found).accuracy(truth, instance.dirty)["precision"] > 0.5


def test_detect_cli_emits_dirty_cells(tmp_path, capsys):
    from repro.detect.__main__ import main

    out = tmp_path / "cells.json"
    code = main(
        [
            "--workload", "hospital-sample", "--tuples", "40",
            "--dc-file", "hospital_sample.dc", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == len(payload["cells"])
    assert payload["accuracy"]["precision"] > 0
    assert payload["detectors"][0]["name"] == "violation"

    code = main(["--workload", "hospital-sample", "--tuples", "40", "--detectors", "null"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["by_detector"] == {"null": []}


# ----------------------------------------------------------------------
# run_detection and provenance
# ----------------------------------------------------------------------
def test_run_detection_unions_with_provenance():
    instance = hospital_instance()
    detected = run_detection(
        instance.dirty,
        instance.rules,
        ["violation", "violation", "null"],
        ground_truth=instance.ground_truth,
    )
    assert set(detected.by_detector) == {"violation", "violation#2", "null"}
    assert detected.cells == set().union(*detected.by_detector.values())
    with pytest.raises(ValueError, match="at least one detector"):
        run_detection(instance.dirty, instance.rules, [])


def test_cleaning_scope_selects_blocks_and_groups():
    instance = hospital_instance()
    from repro.core.index import MLNIndex

    index = MLNIndex.build(instance.dirty, instance.rules)
    detected = run_detection(
        instance.dirty, instance.rules, ["violation"], instance.ground_truth
    )
    scope = CleaningScope(detected, instance.dirty)
    selected = scope.select_blocks(index.block_list)
    assert selected and len(selected) <= len(index.block_list)
    for block in selected:
        assert scope.selects_block(block)
    assert scope.selected_block_names() == sorted(b.name for b in selected)


# ----------------------------------------------------------------------
# exact-or-prune: all-cells detection is byte-identical to none
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["hospital-sample", "car", "hai", "tpch"])
def test_all_cells_detection_is_byte_identical_batch(workload):
    instance = prepare_instance(workload, tuples=60, error_rate=0.1, seed=7)
    config = recommended_config(workload)

    def run(detectors):
        return CleaningSession(
            rules=instance.rules,
            config=config,
            table=instance.dirty,
            ground_truth=instance.ground_truth,
            detectors=detectors,
        ).run()

    assert report_signature(run(None)) == report_signature(run(["all-cells"]))


@pytest.mark.parametrize("backend_options", [
    {"backend": "distributed", "workers": 2},
    {"backend": "streaming", "batch_size": 25},
])
def test_all_cells_detection_is_byte_identical_other_backends(backend_options):
    instance = hospital_instance()

    def run(detectors):
        request = CleaningRequest(
            dirty=instance.dirty,
            rules=instance.rules,
            config=recommended_config("hospital-sample"),
            ground_truth=instance.ground_truth,
            detectors=detectors,
        )
        name = backend_options["backend"]
        options = {k: v for k, v in backend_options.items() if k != "backend"}
        return MLNCleanCleaner(name, **options).run(request)

    assert report_signature(run(None)) == report_signature(run(["all-cells"]))


# ----------------------------------------------------------------------
# dirty-cell-scoped cleaning
# ----------------------------------------------------------------------
def test_scoped_run_repairs_detected_cells_like_full_scope():
    instance = hospital_instance(tuples=120)
    config = recommended_config("hospital-sample")
    detected = run_detection(
        instance.dirty, instance.rules, ["violation"], instance.ground_truth
    )
    assert 0 < detected.count < len(instance.dirty) * len(instance.dirty.attributes)

    def repairs(detectors):
        report = CleaningSession(
            rules=instance.rules,
            config=config,
            table=instance.dirty,
            ground_truth=instance.ground_truth,
            detectors=detectors,
        ).run()
        return {
            cell: report.repaired.row(cell.tid)[cell.attribute]
            for cell in detected.cells
            if report.repaired.has_tid(cell.tid)
        }

    assert repairs(None) == repairs(["violation"])


def test_scoped_report_carries_detection_provenance():
    instance = hospital_instance()
    report = CleaningSession(
        rules=instance.rules,
        config=recommended_config("hospital-sample"),
        table=instance.dirty,
        ground_truth=instance.ground_truth,
        detectors=["violation"],
    ).run()
    detection = report.details["detection"]
    assert detection["scoped"] is True
    assert detection["count"] == len(detection["cells"])
    assert detection["scoped_blocks"]
    assert DirtyCells.from_json_dict(detection).count == detection["count"]


def test_distributed_rejects_scoping_but_allows_all_cells():
    instance = hospital_instance()
    request = CleaningRequest(
        dirty=instance.dirty,
        rules=instance.rules,
        config=recommended_config("hospital-sample"),
        ground_truth=instance.ground_truth,
        detectors=["violation"],
    )
    with pytest.raises(ValueError, match="full-scope"):
        MLNCleanCleaner("distributed", workers=2).run(request)


def test_minimal_repair_cleaner_rejects_detectors():
    instance = hospital_instance()
    session = CleaningSession(
        rules=instance.rules, cleaner="minimal-repair", detectors=["violation"]
    )
    with pytest.raises(ValueError, match="no detection phase"):
        session.run(table=instance.dirty)


def test_holoclean_cleaner_accepts_session_detectors():
    instance = hospital_instance(tuples=40)
    session = CleaningSession(
        rules=instance.rules,
        config=recommended_config("hospital-sample"),
        cleaner=get_cleaner("holoclean", training_epochs=1),
        detectors=["perfect"],
    )
    report = session.run(table=instance.dirty, ground_truth=instance.ground_truth)
    assert report.accuracy is not None


# ----------------------------------------------------------------------
# session integration
# ----------------------------------------------------------------------
def test_with_detectors_validates_eagerly():
    # an unknown detector fails when the session is built, not at its run
    with pytest.raises(KeyError, match="nope"):
        CleaningSession(rules=load_rules("CT -> ST"), detectors=["nope"])


def test_fingerprint_covers_detector_stack():
    rules = load_rules("CT -> ST")
    base = CleaningSession(rules=rules)
    detecting = CleaningSession(rules=rules, detectors=["violation"])
    assert base.fingerprint() != detecting.fingerprint()


# ----------------------------------------------------------------------
# streaming re-detection
# ----------------------------------------------------------------------
def test_stream_detection_recomputes_only_dirtied_rules():
    instance = hospital_instance()
    detection = StreamDetection(["violation"], instance.rules)
    detection.update(
        instance.dirty,
        dirtied_rules=[rule.name for rule in instance.rules],
        touched_tids=list(instance.dirty.tids),
        removed_tids=[],
    )
    first = dict(detection.last_recomputed)
    assert set(first["violation"]) == {rule.name for rule in instance.rules}
    # second tick dirties only r1: the cache answers for the other rules
    detection.update(
        instance.dirty,
        dirtied_rules=[instance.rules[0].name],
        touched_tids=[],
        removed_tids=[],
    )
    assert detection.last_recomputed["violation"] == [instance.rules[0].name]


def test_stream_detection_tuple_granularity_counts_touched():
    instance = hospital_instance()
    detection = StreamDetection(["null", "outlier"], instance.rules)
    detection.update(
        instance.dirty, dirtied_rules=[], touched_tids=[], removed_tids=[]
    )
    assert detection.last_recomputed["null"] == len(instance.dirty)
    assert detection.last_recomputed["outlier"] == "full"
    detection.update(
        instance.dirty, dirtied_rules=[], touched_tids=[0, 1], removed_tids=[]
    )
    assert detection.last_recomputed["null"] == 2


def test_stream_detection_drops_removed_tuples():
    instance = hospital_instance()
    ledger = instance.ground_truth
    detection = StreamDetection(["perfect"], instance.rules)
    full = detection.update(
        instance.dirty,
        dirtied_rules=[],
        touched_tids=list(instance.dirty.tids),
        removed_tids=[],
        ground_truth=ledger,
    )
    victim = next(iter(full.cells)).tid
    shrunk = instance.dirty.subset(
        [tid for tid in instance.dirty.tids if tid != victim]
    )
    after = detection.update(
        shrunk,
        dirtied_rules=[],
        touched_tids=[],
        removed_tids=[victim],
        ground_truth=ledger,
    )
    assert all(cell.tid != victim for cell in after.cells)


def test_streaming_engine_detects_and_scopes_per_tick():
    instance = hospital_instance(tuples=80)
    engine = StreamingMLNClean(
        instance.rules,
        schema=list(instance.dirty.attributes),
        config=recommended_config("hospital-sample"),
        detectors=["violation"],
    )
    tids = sorted(instance.dirty.tids)
    for start in range(0, len(tids), 40):
        chunk = tids[start : start + 40]
        deltas = DeltaBatch(
            [
                Insert(
                    values={
                        a: instance.dirty.row(tid)[a]
                        for a in instance.dirty.attributes
                    },
                    tid=tid,
                )
                for tid in chunk
            ]
        )
        # the ledger is one snapshot, not per-batch: hand it over once
        engine.apply_batch(
            deltas,
            ground_truth=instance.ground_truth if start == 0 else None,
        )
    assert engine.detection is not None
    assert engine.detected_cells == engine.detection.count
    assert engine.detected_cells > 0


# ----------------------------------------------------------------------
# rule-file parse errors (session loader)
# ----------------------------------------------------------------------
def test_rule_file_errors_carry_line_number_and_text(tmp_path):
    path = tmp_path / "bad.rules"
    path.write_text("# comment\n\nCT -> ST\ngarbage without arrow\n")
    with pytest.raises(RuleParseError, match=r"bad\.rules:4: .*garbage without arrow"):
        load_rules(path)


def test_rule_file_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "ok.rules"
    path.write_text("# comment\n\nr1: CT -> ST\n\n# more\nPN -> ST\n")
    rules = load_rules(path)
    assert [rule.name for rule in rules] == ["r1", "r2"]


def test_rule_file_duplicate_names_error_has_position(tmp_path):
    path = tmp_path / "dup.rules"
    path.write_text("r1: CT -> ST\nr1: PN -> ST\n")
    with pytest.raises(ValueError, match=r"dup\.rules:2: duplicate rule name 'r1'"):
        load_rules(path)


# ----------------------------------------------------------------------
# service wire codec
# ----------------------------------------------------------------------
def test_clean_request_decodes_and_rejects_detectors():
    spec = decode_clean_request(
        {"workload": "hospital-sample", "detectors": ["null", {"name": "violation"}]}
    )
    assert spec.detectors == ["null", {"name": "violation"}]
    with pytest.raises(BadRequestError, match="unknown detector"):
        decode_clean_request({"workload": "hospital-sample", "detectors": ["nope"]})
    with pytest.raises(BadRequestError, match="must be a list"):
        decode_clean_request({"workload": "hospital-sample", "detectors": "null"})


# ----------------------------------------------------------------------
# experiments integration
# ----------------------------------------------------------------------
def test_experiment_spec_detector_stacks_round_trip():
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec(
        name="t",
        workloads=["hospital-sample"],
        detector_stacks=[None, ["all-cells"], [{"name": "violation"}]],
    )
    clone = ExperimentSpec.from_json_dict(spec.to_json_dict())
    assert clone.detector_stacks == spec.detector_stacks
    # absent key parses to the no-detection default
    legacy = dict(spec.to_json_dict())
    legacy.pop("detector_stacks")
    assert ExperimentSpec.from_json_dict(legacy).detector_stacks == [None]


def test_detector_ablation_spec_runs_with_detection_metrics():
    from dataclasses import replace

    from repro.experiments import ExperimentRunner, load_spec
    from repro.experiments.spec import CleanerSpec, ExperimentSpec

    assert load_spec("detector_ablation").detector_stacks[0] is None
    spec = ExperimentSpec(
        name="mini",
        workloads=["hospital-sample"],
        detector_stacks=[None, ["perfect"]],
        tuples=40,
        error_rates=[0.1],
        store_reports=False,
    )
    artifact = ExperimentRunner(spec).run()
    plain, perfect = artifact.cells
    assert plain.coords["detectors"] is None
    assert perfect.coords["detectors"] == [{"name": "perfect"}]
    assert perfect.metrics["detect_precision"] == 1.0
    assert perfect.metrics["detect_recall"] == 1.0
    assert "detect_precision" not in plain.metrics
    assert perfect.metrics["f1"] == plain.metrics["f1"]

    # a streaming cell reaches the detection metrics the way a batch one does
    streamed = replace(
        spec,
        cleaners=[
            CleanerSpec("mlnclean"),
            CleanerSpec("mlnclean", options={"backend": "streaming", "batch_size": 10}),
        ],
        detector_stacks=[["violation"]],
    )
    batch, streaming = ExperimentRunner(streamed).run().cells
    keys = {"detected_cells", "detect_precision", "detect_recall", "detect_f1"}
    assert keys <= set(batch.metrics)
    assert keys <= set(streaming.metrics)
    assert streaming.metrics["detected_cells"] == batch.metrics["detected_cells"]


def test_distributed_cell_gets_the_batch_cells_detection_metrics():
    from repro.experiments import ExperimentRunner
    from repro.experiments.spec import CleanerSpec, ExperimentSpec

    spec = ExperimentSpec(
        name="distributed-detection",
        workloads=["hospital-sample"],
        cleaners=[
            CleanerSpec("mlnclean"),
            CleanerSpec("mlnclean", options={"backend": "distributed", "workers": 2}),
        ],
        detector_stacks=[["all-cells"]],
        tuples=40,
        error_rates=[0.1],
        store_reports=False,
    )
    batch, distributed = ExperimentRunner(spec).run().cells
    assert distributed.coords["system"] == "MLNClean[distributed]"
    keys = ("detected_cells", "detect_precision", "detect_recall", "detect_f1")
    assert {key: distributed.metrics[key] for key in keys} == {
        key: batch.metrics[key] for key in keys
    }


def test_distributed_detection_details_are_unscoped():
    instance = hospital_instance()
    report = MLNCleanCleaner("distributed", workers=2).run(
        CleaningRequest(
            dirty=instance.dirty,
            rules=instance.rules,
            config=recommended_config("hospital-sample"),
            ground_truth=instance.ground_truth,
            detectors=["all-cells"],
        )
    )
    detection = report.details["detection"]
    assert detection["scoped"] is False
    assert detection["count"] == len(instance.dirty) * len(instance.dirty.attributes)
    assert "detect" in report.timings.phases
