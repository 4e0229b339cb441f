"""Grounded generate-then-match news recommendation engine.

Subsystems: residual-quantization codebooks assigning hierarchical
semantic IDs (codebook), the refreshing article pool with its prefix
index (pool), tolerance-based prefix matching (matcher), dual-signal
context routing (padr), pluggable prefix generators (generator),
interest-aware ranking (ranking), the cached fast/enhance serving
architecture (dualtrack, server), and the evaluation harness
(evaluation, report, fixture).
"""

from .codebook import (
    Codebook,
    SID,
    assign_sids,
    load_codebook,
    occupancy,
    reconstruction_error,
    save_codebook,
    train_codebook,
)
from .dualtrack import (
    CacheEntry,
    SIDCache,
    ServeResponse,
    ctx_hash,
    enhance_track,
    fast_track,
    warm_cache,
)
from .errors import SidgroundError
from .evaluation import (
    EvalSample,
    bootstrap_ci,
    expected_random_l1,
    hallucination_rate,
    hit_at_1,
    partial_match_analysis,
)
from .fixture import FixtureSpec, make_synthetic_fixture, write_fixture
from .generator import (
    GeneratorOutput,
    HistPopGenerator,
    PoolSampledGenerator,
    PopularGenerator,
    ProfileCategoryGenerator,
    RandomGenerator,
    ReplayGenerator,
    load_replay,
)
from .matcher import (
    MatchResult,
    SIDPrefix,
    fuzzy_match,
    grid_search_delta,
)
from .padr import (
    BehaviorHistory,
    Click,
    UserContext,
    UserProfile,
    path_distribution,
    preset_queries,
    route,
)
from .pool import (
    Article,
    NewsPool,
    PrefixIndex,
    build_index,
    refresh,
    temporal_split,
)
from .ranking import RankedCandidate, rank
from .report import EvalReport, run_eval

__version__ = "0.1.0"
