"""Quickstart: clean the paper's six-tuple hospital sample with a session.

This walks through the exact running example of the paper (Table 1 and the
rules r1-r3 of Example 1) using the unified :class:`repro.CleaningSession`
API: the typo ``DOTH``, the replacement errors of tuple t3, the wrong state
of t4 and the duplicates t1/t2 and t3..t6 are all cleaned by the two-stage
pipeline behind the session's default "batch" backend.

Run with::

    python examples/quickstart.py
"""

from repro import CleaningSession, MLNCleanConfig
from repro.dataset.sample import sample_hospital_rules, sample_hospital_table


def main() -> None:
    # cleaner=MLNCleanCleaner("distributed" | "streaming", ...) would pick
    # another engine; the default is MLNClean's batch pipeline
    session = CleaningSession(config=MLNCleanConfig(abnormal_threshold=1))
    session.load_rules(sample_hospital_rules())
    dirty = session.load_table(sample_hospital_table())

    print(session.describe())
    print()
    print("Integrity constraints:")
    for rule in session.rules:
        print(f"  {rule.name} ({rule.kind}): {rule}")
    print()
    print("Dirty input (Table 1 of the paper):")
    print(dirty.to_pretty_string())
    print()

    report = session.run()

    print("Repaired table (before duplicate elimination):")
    print(report.repaired.to_pretty_string())
    print()
    print("Final clean table (duplicates removed):")
    print(report.cleaned.to_pretty_string())
    print()
    print(report.describe())


if __name__ == "__main__":
    main()
