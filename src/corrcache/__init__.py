"""corrcache: cache simulation and analysis for correlated request streams.

The toolkit generates request traces in which groups of clients re-request
each other's objects after random delays, simulates byte-budgeted caches
under several eviction policies (including follow-aware ones), and predicts
per-client hit probabilities analytically through a working-set fixed point.
"""

__version__ = "0.1.0"

from .analysis import (
    CharacteristicTime,
    HitReport,
    ModelGroup,
    WorkingSetModel,
    normalized_model_hit_rate,
)
from .engine import (
    CacheConfig,
    ConfigurationError,
    ConsistencyError,
    SimulationMetrics,
    config_digest,
    simulate,
)
from .harness import (
    CapacityGrid,
    CapacitySummary,
    ExperimentConfig,
    PolicyComparison,
    SweepReport,
    capacity_summary_csv,
    compare_policies,
    comparison_csv,
    parse_experiment_config,
    parse_kv_lines,
    reproduce,
    run_sweep,
    summarize_capacities,
)
from .policies import (
    PolicyParams,
    parse_policy_spec,
    static_optimal_select,
)
from .presets import get_preset, preset_names
from .trace import (
    ObjectCatalog,
    Trace,
    TraceFormatError,
    read_trace,
    trace_stats,
    validate_trace,
    write_trace,
)
from .workloads import (
    FixedDelays,
    GroupSpec,
    JointDelays,
    LeaderSwitch,
    OrderShuffle,
    StructuredDelays,
    ToroidGroup,
    ToroidSpec,
    UniformDelays,
    gen_grouped_trace,
    gen_toroid_trace,
    zipf_pmf,
)

__all__ = [
    "__version__",
    "CacheConfig",
    "config_digest",
    "CapacityGrid",
    "CharacteristicTime",
    "ConfigurationError",
    "ConsistencyError",
    "ExperimentConfig",
    "FixedDelays",
    "GroupSpec",
    "HitReport",
    "JointDelays",
    "LeaderSwitch",
    "ModelGroup",
    "ObjectCatalog",
    "OrderShuffle",
    "PolicyParams",
    "SimulationMetrics",
    "StructuredDelays",
    "SweepReport",
    "ToroidGroup",
    "ToroidSpec",
    "Trace",
    "TraceFormatError",
    "UniformDelays",
    "WorkingSetModel",
    "compare_policies",
    "summarize_capacities",
    "parse_kv_lines",
    "comparison_csv",
    "capacity_summary_csv",
    "PolicyComparison",
    "CapacitySummary",
    "gen_grouped_trace",
    "gen_toroid_trace",
    "get_preset",
    "normalized_model_hit_rate",
    "parse_experiment_config",
    "parse_policy_spec",
    "preset_names",
    "read_trace",
    "reproduce",
    "run_sweep",
    "simulate",
    "static_optimal_select",
    "trace_stats",
    "validate_trace",
    "write_trace",
    "zipf_pmf",
]
