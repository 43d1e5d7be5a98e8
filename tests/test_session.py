"""The unified session API: constructor, loaders, registries, backends, shims."""

import pytest

import repro
from repro import CleaningSession, MLNClean, MLNCleanConfig, StreamingMLNClean, Table
from repro.constraints.rules import FunctionalDependency
from repro.core.pipeline import MLNClean as CoreMLNClean
from repro.core.report import CleaningReport, report_signature
from repro.dataset.sample import sample_hospital_rules, sample_hospital_table
from repro.errors.injector import ErrorSpec
from repro.session import (
    CleaningRequest,
    MLNCleanCleaner,
    load_rules,
    load_table,
)
from repro.streaming.cleaner import StreamingMLNClean as CoreStreamingMLNClean
from repro.workloads import get_workload_generator, recommended_config


def sample_session(backend="batch", **options):
    return CleaningSession(
        rules=sample_hospital_rules(),
        config=MLNCleanConfig(abnormal_threshold=1),
        cleaner=MLNCleanCleaner(backend, **options),
        table=sample_hospital_table(),
    )


def hospital_sample_instance(tuples=48, seed=42):
    workload = get_workload_generator("hospital-sample", tuples=tuples).build()
    return workload.make_instance(ErrorSpec(error_rate=0.05, seed=seed))


# ----------------------------------------------------------------------
# constructor and loaders
# ----------------------------------------------------------------------
def test_constructor_builds_configured_session():
    session = CleaningSession(
        config=MLNCleanConfig(abnormal_threshold=3, distance_metric="cosine"),
        cleaner=MLNCleanCleaner("streaming", batch_size=7),
    )
    session.load_rules("CT -> ST", "HN, PN -> CT")
    assert [rule.name for rule in session.rules] == ["r1", "r2"]
    assert session.config.abnormal_threshold == 3
    assert session.config.distance_metric == "cosine"
    assert session.backend == "streaming"
    assert session.cleaner.options["batch_size"] == 7
    assert "backend=streaming" in session.describe()


def test_load_rules_from_strings_rules_and_mixed():
    fd = FunctionalDependency(["A"], ["B"], name="custom")
    assert load_rules(fd) == [fd]
    parsed = load_rules("A -> B")
    assert parsed[0].name == "r1" and parsed[0].kind == "FD"
    mixed = load_rules([fd, "A -> C"])
    assert mixed[0].name == "custom"
    assert mixed[1].name == "r2"


def test_load_rules_from_file(tmp_path):
    path = tmp_path / "hospital.rules"
    path.write_text("# Table-4 constraints\nCT -> ST\n\nHN, PN -> CT\n")
    rules = load_rules(path)
    assert [rule.name for rule in rules] == ["r1", "r2"]
    assert rules[1].reason_attributes == ["HN", "PN"]
    with pytest.raises(FileNotFoundError):
        load_rules(tmp_path / "missing.rules")


def test_rule_names_never_collide_silently():
    # auto-assigned names skip over explicitly named rules (the MLN index
    # keys blocks by rule name, so a collision would drop a constraint)
    named = FunctionalDependency(["A"], ["B"], name="r2")
    session = CleaningSession(rules=[named])
    session.load_rules("A -> C")
    assert [rule.name for rule in session.rules] == ["r2", "r3"]

    fresh = CleaningSession()
    fresh.load_rules(named, "A -> C")
    assert [rule.name for rule in fresh.rules] == ["r2", "r3"]

    # explicitly named duplicates are rejected loudly
    with pytest.raises(ValueError, match="duplicate rule name"):
        session.load_rules(FunctionalDependency(["A"], ["D"], name="r2"))

    # the guard also covers module-level load_rules (and therefore the
    # run(rules=...) path, which routes through it)
    guarded = load_rules([named, "A -> C"])
    assert [rule.name for rule in guarded] == ["r2", "r3"]
    with pytest.raises(ValueError, match="duplicate rule name"):
        load_rules([named, FunctionalDependency(["A"], ["D"], name="r2")])


def test_load_rules_file_honours_explicit_names(tmp_path):
    path = tmp_path / "named.rules"
    path.write_text(
        "# named rules round-trip\n"
        "city_state: CT -> ST\n"
        "HN, PN -> CT\n"
        "phones: DC: PN(t1)=PN(t2) & ST(t1)!=ST(t2)\n"
        "DC: CT(t1)=CT(t2) & HN(t1)!=HN(t2)\n"
    )
    rules = load_rules(path)
    assert [rule.name for rule in rules] == ["city_state", "r2", "phones", "r4"]
    assert rules[2].kind == "DC"
    assert rules[3].kind == "DC"  # a bare "DC:" line is not a name prefix


def test_load_rules_file_rejects_duplicate_names(tmp_path):
    path = tmp_path / "dup.rules"
    path.write_text("r1: CT -> ST\nr1: HN, PN -> CT\n")
    with pytest.raises(ValueError, match="duplicate rule name 'r1'") as excinfo:
        load_rules(path)
    # the error names the offending file and explains the constraint
    assert "dup.rules" in str(excinfo.value)
    assert "distinct name" in str(excinfo.value)


def test_unknown_name_errors_list_registered_names():
    """One shared unknown_name() helper backs every registry lookup error."""
    from repro.session.cleaners import get_cleaner
    from repro.workloads.registry import get_workload_generator

    cases = (
        (lambda: MLNCleanCleaner("nope"), "backend", "'batch'"),
        (lambda: get_cleaner("nope"), "cleaner", "'mlnclean'"),
        (lambda: get_workload_generator("nope"), "workload", "'hai'"),
    )
    for lookup, kind, expected_name in cases:
        with pytest.raises(KeyError) as excinfo:
            lookup()
        message = str(excinfo.value)
        assert f"unknown {kind} 'nope'" in message.replace('"', "'"), kind
        assert f"registered {kind}s:" in message, kind
        assert expected_name in message, kind


def test_session_load_rules_accumulates_and_replaces():
    session = CleaningSession()
    session.load_rules("A -> B")
    session.load_rules("A -> C")
    assert [rule.name for rule in session.rules] == ["r1", "r2"]
    session.load_rules("B -> C", replace=True)
    assert [rule.name for rule in session.rules] == ["r1"]


def test_constructor_loads_a_rule_string_like_load_rules():
    constructed = CleaningSession(rules="CT -> ST")
    loaded = CleaningSession()
    loaded.load_rules("CT -> ST")
    assert [rule.name for rule in constructed.rules] == ["r1"]
    assert constructed.rules[0].reason_attributes == ["CT"]
    assert constructed.fingerprint() == loaded.fingerprint()


def test_constructor_loads_dict_rows_like_load_table():
    records = [row.as_dict() for row in sample_hospital_table()]
    session = CleaningSession(
        rules=sample_hospital_rules(),
        config=MLNCleanConfig(abnormal_threshold=1),
        table=records,
    )
    assert session.table.equals(load_table(records))
    expected = sample_session().run(records)
    assert report_signature(session.run()) == report_signature(expected)


def test_load_table_passthrough_records_and_csv(tmp_path):
    table = sample_hospital_table()
    assert load_table(table) is table
    with pytest.raises(ValueError):
        load_table(table, name="renamed")

    records = [{"A": "1", "B": "x"}, {"A": "2", "B": "y"}]
    from_records = load_table(records, name="tiny")
    assert from_records.name == "tiny"
    assert len(from_records) == 2

    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text("A,B\n1,x\n2,y\n")
    from_csv = load_table(csv_path)
    assert from_csv.attributes == ["A", "B"]
    assert len(from_csv) == 2


def test_a_null_cell_loads_as_the_empty_string_like_a_csv_cell(tmp_path):
    from_records = load_table([{"A": "x", "B": None}])
    csv_path = tmp_path / "null.csv"
    csv_path.write_text("A,B\nx,\n")
    assert from_records.value(0, "B") == ""
    assert load_table(csv_path).value(0, "B") == ""


@pytest.mark.parametrize(
    "backend,options",
    [("batch", {}), ("distributed", {"workers": 2}), ("streaming", {"batch_size": 3})],
)
def test_null_cells_never_become_the_text_none(backend, options):
    records = [row.as_dict() for row in sample_hospital_table()]
    records[1]["ST"] = None
    session = sample_session(backend, **options)
    report = session.run(records)
    assert report.dirty.value(1, "ST") == ""
    for table in (report.dirty, report.repaired, report.cleaned):
        assert all("None" not in row.as_dict().values() for row in table)


def test_run_requires_table_and_rules():
    with pytest.raises(ValueError, match="no table"):
        CleaningSession(rules=sample_hospital_rules()).run()
    session = CleaningSession()
    session.load_table(sample_hospital_table())
    with pytest.raises(ValueError, match="no integrity constraints"):
        session.run()


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
def test_unknown_backend_raises():
    with pytest.raises(KeyError, match="unknown backend 'spark'") as excinfo:
        MLNCleanCleaner("spark")
    for name in ("'batch'", "'distributed'", "'streaming'"):
        assert name in str(excinfo.value)


@pytest.mark.parametrize(
    "backend,option",
    [("batch", {"workers": 2}), ("distributed", {"batch_size": 5}), ("streaming", {"workers": 2})],
)
def test_misplaced_backend_option_raises_naming_it(backend, option):
    (name,) = option
    with pytest.raises(TypeError, match=f"'{name}'"):
        MLNCleanCleaner(backend, **option)


@pytest.mark.parametrize(
    "backend,option", [("distributed", {"workers": 0}), ("streaming", {"batch_size": 0})]
)
def test_out_of_range_backend_option_raises_at_construction(backend, option):
    (name,) = option
    with pytest.raises(ValueError, match=f"{name} >= 1"):
        MLNCleanCleaner(backend, **option)


def test_batch_backend_matches_direct_mlnclean():
    session = sample_session()
    via_session = session.run()
    direct = MLNClean(MLNCleanConfig(abnormal_threshold=1)).clean(
        sample_hospital_table(), sample_hospital_rules()
    )
    assert via_session.cleaned.equals(direct.cleaned)
    assert via_session.repaired.equals(direct.repaired)
    assert via_session.backend == "batch"


def test_session_run_records_last_report():
    session = sample_session()
    assert session.last_report is None
    report = session.run()
    assert isinstance(report, CleaningReport)
    assert session.last_report is report


def test_distributed_backend_returns_unified_report():
    session = sample_session("distributed", workers=2)
    report = session.run()
    assert report.backend == "distributed"
    assert report.details["workers"] == 2
    assert sum(report.details["partitions"]) == len(report.dirty)
    assert "workers" in report.timings.phases
    assert len(report.cleaned) >= 1


def test_streaming_backend_exposes_engine():
    session = sample_session("streaming", batch_size=2)
    report = session.run()
    assert report.backend == "streaming"
    engine = session.cleaner.engine
    assert isinstance(engine, CoreStreamingMLNClean)
    assert engine.batches_applied == 3
    assert engine.cleaned.equals(report.cleaned)


def test_windowed_streaming_session_reruns_like_a_fresh_one():
    from repro.streaming import SlidingWindow

    instance = hospital_sample_instance()

    def session():
        return CleaningSession(
            rules=instance.rules,
            config=recommended_config("hospital-sample"),
            cleaner=MLNCleanCleaner(
                "streaming", batch_size=10, window=SlidingWindow(size=30)
            ),
        )

    reused = session()
    first = reused.run(instance.dirty.copy())
    second = reused.run(instance.dirty.copy())
    fresh = session().run(instance.dirty.copy())
    assert len(first.dirty) == 30
    for report in (first, second):
        assert report.cleaned.equals(fresh.cleaned)
        assert report.dirty.equals(fresh.dirty)
    assert reused.cleaner.options["window"].retained == []


@pytest.mark.parametrize(
    "records",
    [[], [{"A": "1", "B": "x"}, {"A": "1", "B": "y"}]],
    ids=["empty", "populated"],
)
@pytest.mark.parametrize("backend", ["batch", "distributed", "streaming"])
def test_rule_naming_a_missing_attribute_is_rejected(backend, records):
    table = Table.from_records(records, attributes=["A", "B"])
    session = CleaningSession(
        rules=[FunctionalDependency(["A"], ["Z", "B", "Y"], name="r-missing")],
        config=MLNCleanConfig(abnormal_threshold=1),
        cleaner=MLNCleanCleaner(backend),
        table=table,
    )
    with pytest.raises(ValueError, match=r"'r-missing' .* missing from the table: Z, Y$"):
        session.run()


# ----------------------------------------------------------------------
# duplicate elimination switch
# ----------------------------------------------------------------------
def test_disabling_dedup_stage_keeps_duplicates():
    session = CleaningSession(
        rules=sample_hospital_rules(),
        config=MLNCleanConfig(abnormal_threshold=1, remove_duplicates=False),
        table=sample_hospital_table(),
    )
    report = session.run()
    assert report.dedup is None
    assert report.cleaned.equals(report.repaired)
    full = sample_session().run()
    assert len(report.cleaned) > len(full.cleaned)
    # the repair itself is unchanged — only duplicate elimination is skipped
    assert report.repaired.equals(full.repaired)


# ----------------------------------------------------------------------
# cross-backend equivalence (the acceptance test of the redesign)
# ----------------------------------------------------------------------
def test_cross_backend_equivalence_on_hospital_sample():
    """Batch, distributed (p=2) and streaming full replay agree exactly."""
    instance = hospital_sample_instance()
    reports = {}
    for backend, options in (
        ("batch", {}),
        ("distributed", {"workers": 2}),
        ("streaming", {"batch_size": 10}),
    ):
        session = CleaningSession(
            rules=instance.rules,
            config=recommended_config("hospital-sample"),
            cleaner=MLNCleanCleaner(backend, **options),
            table=instance.dirty.copy(),
            ground_truth=instance.ground_truth,
        )
        reports[backend] = session.run()

    batch = reports["batch"]
    assert batch.accuracy is not None and batch.f1 > 0.0
    for backend in ("distributed", "streaming"):
        report = reports[backend]
        assert report.cleaned.equals(batch.cleaned), backend
        assert report.f1 == pytest.approx(batch.f1), backend
        assert report.backend == backend


# ----------------------------------------------------------------------
# legacy shims
# ----------------------------------------------------------------------
def test_legacy_imports_still_work():
    assert repro.MLNClean is CoreMLNClean
    assert repro.StreamingMLNClean is CoreStreamingMLNClean
    from repro import DistributedMLNClean  # noqa: F401 - import is the test

    report = MLNClean(MLNCleanConfig(abnormal_threshold=1)).clean(
        sample_hospital_table(), sample_hospital_rules()
    )
    assert isinstance(report, CleaningReport)


def test_public_exports_resolve():
    import importlib
    import pkgutil

    modules = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    assert len(modules) > 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    removed = {
        "ExecutionBackend",
        "register_backend",
        "available_backends",
        "get_backend",
        "SessionBuilder",
        "Session",
    }
    assert removed.isdisjoint(repro.__all__)
    assert removed.isdisjoint(repro.session.__all__)
    for name in ("builder", "attach_ground_truth", "clean"):
        assert not hasattr(CleaningSession, name), name
    assert not hasattr(repro.MLNClean, "clean_table")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.session.backends")


def test_shims_construct_same_objects_as_session_path():
    # the batch cleaner drives the very class the legacy import exposes ...
    request = CleaningRequest(
        dirty=sample_hospital_table(), rules=sample_hospital_rules()
    )
    cleaner_report = MLNCleanCleaner().run(request)
    legacy_report = MLNClean().clean(sample_hospital_table(), sample_hospital_rules())
    assert type(cleaner_report) is type(legacy_report) is CleaningReport
    assert cleaner_report.cleaned.equals(legacy_report.cleaned)

    # ... and the streaming replay runs the legacy StreamingMLNClean
    streaming = MLNCleanCleaner("streaming", batch_size=3)
    streaming.run(request)
    assert isinstance(streaming.engine, StreamingMLNClean)


# ----------------------------------------------------------------------
# workload registry recommended configs
# ----------------------------------------------------------------------
def test_recommended_config_comes_from_registry():
    assert recommended_config("hai").abnormal_threshold == 10
    assert recommended_config("car").abnormal_threshold == 1
    assert recommended_config("tpch").abnormal_threshold == 2
    assert recommended_config("hospital-sample").abnormal_threshold == 1
    override = recommended_config("hai", distance_metric="cosine")
    assert override.distance_metric == "cosine"


def test_recommended_config_warns_on_unknown_workload():
    with pytest.warns(UserWarning, match="no workload registered"):
        config = recommended_config("definitely-not-registered")
    assert config == MLNCleanConfig()


def test_registered_workload_declares_its_config():
    from repro.workloads.base import WorkloadGenerator
    from repro.workloads.registry import register_workload

    class TinyGenerator(WorkloadGenerator):
        name = "tiny-tau-test"
        recommended_threshold = 33

        def rules(self):
            return sample_hospital_rules()

        def generate_clean(self) -> Table:
            return sample_hospital_table()

    register_workload("tiny-tau-test", TinyGenerator)
    assert recommended_config("tiny-tau-test").abnormal_threshold == 33
