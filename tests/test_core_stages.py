"""Unit tests for the AGP, RSC, FSCR and deduplication stages.

The worked examples of the paper (Sections 4-5) serve as the reference: the
abnormal group G12 merges into G11, the γ {CT: BOAZ, ST: AL} wins group G13,
tuple t3 fuses to {ELIZA, BOAZ, AL, 2567688400}, and the duplicates collapse.
The stage counts are pinned exactly on the same sample with its 4-error
ledger, scored from the stage records by ``score_stages``.
"""

from repro.core.agp import AbnormalGroupProcessor
from repro.core.config import MLNCleanConfig
from repro.core.dedup import remove_duplicates
from repro.core.fscr import FusionScoreResolver
from repro.core.index import MLNIndex
from repro.core.rsc import ReliabilityScoreCleaner
from repro.dataset.sample import sample_hospital_clean_table
from repro.dataset.table import Table
from repro.metrics.component import StageCounts, score_stages


def build_index(sample_table, sample_rules):
    return MLNIndex.build(sample_table, sample_rules)


# ----------------------------------------------------------------------
# AGP
# ----------------------------------------------------------------------
def test_agp_merges_doth_group_into_dothan(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(sample_config)
    outcome = agp.process_block(index.block("r1"))
    merge_targets = {m.abnormal_key: m.target_key for m in outcome.merges}
    assert merge_targets[("DOTH",)] == ("DOTHAN",)
    assert ("DOTH",) not in index.block("r1").groups


def test_agp_detects_expected_abnormal_groups(sample_table, sample_rules, sample_config):
    """With τ = 1 the sample has abnormal groups G12, G22 and G31."""
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(sample_config)
    outcome = agp.process_index(index.block_list)
    abnormal_keys = {merge.abnormal_key for merge in outcome.merges}
    assert ("DOTH",) in abnormal_keys  # G12
    assert ("2567638410",) in abnormal_keys  # G22
    assert ("ELIZA", "DOTHAN") in abnormal_keys  # G31
    assert outcome.counts.detected_abnormal_groups == 3


def test_agp_threshold_zero_detects_nothing(sample_table, sample_rules):
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(MLNCleanConfig(abnormal_threshold=0))
    outcome = agp.process_index(index.block_list)
    assert outcome.counts.detected_abnormal_groups == 0
    assert outcome.merges == []


def test_agp_large_threshold_leaves_groups_without_target(sample_table, sample_rules):
    """When every group is abnormal there is no normal group to merge into."""
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(MLNCleanConfig(abnormal_threshold=10))
    outcome = agp.process_index(index.block_list)
    assert outcome.skipped_without_target == outcome.counts.detected_abnormal_groups
    assert outcome.merges == []


def test_agp_stage_counts(sample_table, sample_rules, sample_config, sample_ground_truth):
    """G12, G22 and G31 exist only because of errors, and all three merge right."""
    index = build_index(sample_table, sample_rules)
    outcome = AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    score_stages(sample_table, sample_ground_truth, index.block_list, agp=outcome)
    assert outcome.counts == StageCounts(
        detected_abnormal_groups=3,
        real_abnormal_groups=3,
        correctly_merged_groups=3,
        detected_abnormal_gammas=3,
    )


def test_agp_is_idempotent(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    agp = AbnormalGroupProcessor(sample_config)
    agp.process_index(index.block_list)
    second = agp.process_index(index.block_list)
    assert second.merges == []


# ----------------------------------------------------------------------
# RSC
# ----------------------------------------------------------------------
def test_rsc_example2_winner(sample_table, sample_rules, sample_config):
    """In group G13 the γ {BOAZ, AL} (support 2) beats {BOAZ, AK}."""
    index = build_index(sample_table, sample_rules)
    block = index.block("r1")
    rsc = ReliabilityScoreCleaner(sample_config)
    rsc.learn_block_weights(block)
    group = block.groups[("BOAZ",)]
    scores = rsc.reliability_scores(group)
    winner = max(group.gammas, key=lambda piece: scores[piece])
    assert winner.result_values == ("AL",)


def test_rsc_leaves_single_gamma_per_group(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    for block in index.block_list:
        for group in block.group_list:
            assert group.is_resolved()
            assert group.size == 1


def test_rsc_preserves_tuple_coverage(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    block = index.block("r1")
    covered = sorted(tid for group in block.group_list for tid in group.tids)
    assert covered == sample_table.tids


def test_rsc_skips_resolved_groups(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    outcome = ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    assert outcome.skipped_groups >= 1
    assert outcome.cleaned_groups >= 1


def test_rsc_stage_counts(sample_table, sample_rules, sample_config, sample_ground_truth):
    """Five losers repaired right; six γs erroneous, one of them a winner."""
    index = build_index(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    outcome = ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    score_stages(sample_table, sample_ground_truth, index.block_list, rsc=outcome)
    assert len(outcome.repairs) == 5
    assert outcome.counts == StageCounts(
        repaired_gammas=5, correctly_repaired_gammas=5, erroneous_gammas=6
    )


def test_rsc_relearn_flag(sample_table, sample_rules, sample_config):
    index = build_index(sample_table, sample_rules)
    block = index.block("r1")
    for piece in block.pieces:
        piece.weight = 5.0
    ReliabilityScoreCleaner(sample_config).clean_block(block, relearn_weights=False)
    # weights were not overwritten by the learner
    assert all(piece.weight == 5.0 for piece in block.pieces)


# ----------------------------------------------------------------------
# FSCR + dedup
# ----------------------------------------------------------------------
def stage_one(sample_table, sample_rules, sample_config):
    index = MLNIndex.build(sample_table, sample_rules)
    AbnormalGroupProcessor(sample_config).process_index(index.block_list)
    ReliabilityScoreCleaner(sample_config).clean_index(index.block_list)
    return index


def test_fscr_example3_tuple_t3(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    repaired_t3 = outcome.repaired.row(2).as_dict()
    assert repaired_t3 == {
        "HN": "ELIZA",
        "CT": "BOAZ",
        "ST": "AL",
        "PN": "2567688400",
    }


def test_fscr_output_has_no_violations(sample_table, sample_rules, sample_config):
    from repro.constraints.violations import is_consistent

    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    assert is_consistent(outcome.repaired, sample_rules)


def test_fscr_matches_paper_clean_table(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    assert outcome.repaired.equals(sample_hospital_clean_table())


def test_fscr_keeps_all_tuples(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    assert sorted(outcome.repaired.tids) == sample_table.tids


def test_fscr_fusions_cover_every_version_attribute(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    assert outcome.fusions
    versions = FusionScoreResolver._versions_by_tid(index.block_list)
    for tid, fusion in outcome.fusions.items():
        covered = {a for _, piece in versions[tid] for a in piece.as_assignment()}
        assert set(fusion.assignment) == covered
        assert all(
            outcome.repaired.value(tid, attribute) == value
            for attribute, value in fusion.assignment.items()
        )


def test_fscr_stage_counts(sample_table, sample_rules, sample_config, sample_ground_truth):
    """All 4 injected errors end clean; only t3's CT was in a conflict."""
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    score_stages(sample_table, sample_ground_truth, index.block_list, fscr=outcome)
    assert outcome.counts == StageCounts(
        fscr_correct_values=4,
        conflict_erroneous_values=1,
        conflict_correct_values=1,
        total_erroneous_values=4,
    )


def test_dedup_removes_exact_duplicates():
    table = Table.from_records(
        [{"A": "x", "B": "1"}, {"A": "x", "B": "1"}, {"A": "y", "B": "2"}]
    )
    result = remove_duplicates(table)
    assert result.removed_tids == [1]
    assert len(result.deduplicated) == 2
    assert result.duplicate_classes == [[0, 1]]


def test_dedup_keeps_lowest_tid(sample_table, sample_rules, sample_config):
    index = stage_one(sample_table, sample_rules, sample_config)
    outcome = FusionScoreResolver(sample_config).resolve(sample_table, index.block_list)
    result = remove_duplicates(outcome.repaired)
    assert sorted(result.deduplicated.tids) == [0, 2]
    assert result.removed_count == 4


def test_dedup_no_duplicates_noop():
    table = Table.from_records([{"A": "x"}, {"A": "y"}])
    result = remove_duplicates(table)
    assert result.removed_count == 0
    assert result.deduplicated.equals(table)
