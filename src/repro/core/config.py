"""Configuration of the MLNClean pipeline.

Every parameter the paper varies in its experiments is exposed here:

* ``abnormal_threshold`` — the τ of the AGP strategy (Section 5.1.1); the
  paper tunes it per dataset (τ = 1 on CAR, τ = 10 on HAI),
* ``distance_metric`` — Levenshtein by default, cosine for Table 5,
* the weight-learning hyper-parameters (Section 5.1.2),
* ``fscr_exhaustive_limit`` — up to how many data versions per tuple the
  FSCR search enumerates all fusion orders (the paper's m! search); beyond
  the limit a weight-ordered greedy fusion per starting version is used,
* ``remove_duplicates`` — whether Stage II ends with duplicate elimination.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace

from repro.distance.base import DistanceMetric, get_metric
from repro.mln.weights import WeightLearningConfig
from repro.perf.engine import DistanceEngine

#: config fields that are observability-only: they cannot change any cleaning
#: decision, so they are excluded from :meth:`MLNCleanConfig.identity_dict`
#: (and therefore from session fingerprints and service shard routing) —
#: tracing a run on or off must never change where it executes or what it
#: produces
OBSERVABILITY_FIELDS = ("trace",)


@dataclass
class MLNCleanConfig:
    """Tunable parameters of :class:`repro.core.pipeline.MLNClean`."""

    #: AGP threshold τ: a group supported by at most τ tuples is abnormal
    abnormal_threshold: int = 1
    #: name of the distance metric ("levenshtein", "cosine", "damerau", ...)
    distance_metric: str = "levenshtein"
    #: hyper-parameters of the exact-Newton weight learner
    weight_learning: WeightLearningConfig = field(default_factory=WeightLearningConfig)
    #: maximum number of data versions per tuple for exhaustive FSCR search
    fscr_exhaustive_limit: int = 5
    #: strength of the minimality factor in the fusion score.  Each attribute
    #: value a fusion changes w.r.t. the input tuple multiplies its f-score by
    #: ``exp(-fscr_minimality_bias)``, implementing the principle of
    #: minimality the paper bakes into its cleaning criteria; 0 disables the
    #: factor and reduces the score to the pure weight product of Eq. 5.
    fscr_minimality_bias: float = 1.0
    #: drop exact duplicate tuples at the end of Stage II
    remove_duplicates: bool = True
    #: opt-in observability: run under a fresh :class:`repro.obs.Tracer`
    #: even when the caller activated none (an already-ambient tracer is
    #: reused).  Purely observational — listed in
    #: :data:`OBSERVABILITY_FIELDS`, so fingerprints, shard routing and
    #: report signatures are byte-identical with tracing on or off.
    trace: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.weight_learning, Mapping):
            # a wire override arrives as a dict: unknown or removed knobs
            # raise a TypeError that names them
            self.weight_learning = WeightLearningConfig(**self.weight_learning)
        if self.abnormal_threshold < 0:
            raise ValueError("abnormal_threshold must be >= 0")
        if self.fscr_exhaustive_limit < 1:
            raise ValueError("fscr_exhaustive_limit must be >= 1")
        if self.fscr_minimality_bias < 0:
            raise ValueError("fscr_minimality_bias must be >= 0")
        # Fail fast on unknown metric names instead of deep inside Stage I.
        get_metric(self.distance_metric)

    def identity_dict(self) -> dict:
        """``asdict()`` minus the observability-only fields.

        The payload every identity hash uses — session fingerprints, the
        service's shard routing memo — so turning tracing on or off never
        moves a request to a different shard or changes any fingerprint.
        """
        payload = asdict(self)
        for name in OBSERVABILITY_FIELDS:
            payload.pop(name, None)
        return payload

    def metric(self) -> DistanceMetric:
        """Instantiate the configured distance metric."""
        return get_metric(self.distance_metric)

    def engine(self) -> DistanceEngine:
        """A fresh :class:`~repro.perf.DistanceEngine` honouring this config.

        One engine is built per cleaning run and shared by every stage (the
        streaming cleaner keeps one across micro-batches).  The engine always
        memoises exact pair distances and flushes the memo wholesale at a
        fixed size, so it never changes a decision.
        """
        return DistanceEngine.from_config(self)

    def with_threshold(self, abnormal_threshold: int) -> "MLNCleanConfig":
        """A copy with a different AGP threshold (used by the τ sweeps)."""
        return replace(self, abnormal_threshold=abnormal_threshold)
