"""Experiment orchestration: capacity sweeps, policy comparisons, and
preset reproduction runs that pair simulation with the analytic model.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

from . import __version__
from .engine import (
    CacheConfig,
    ConfigurationError,
    SimulationMetrics,
    _replay_stream,
    _Stream,
    _streams,
    config_digest,
    simulate,
)
from .policies import PolicyParams, parse_policy_spec
from .presets import Preset, get_preset
from .trace import Trace, _distinct_identities, read_trace
from .workloads import group_clients


class HarnessConfigError(ValueError):
    """Malformed experiment configuration."""


CAPACITY_BASES = ("volume", "footprint", "absolute")


@dataclass(frozen=True)
class CapacityGrid:
    """A strictly increasing capacity axis.

    ``base`` fixes what the values mean: fractions of the catalog's total
    data volume, fractions of the trace footprint (the count of distinct
    identities actually requested), or absolute bytes.
    """

    values: tuple[float, ...]
    base: str = "volume"

    def __post_init__(self):
        if self.base not in CAPACITY_BASES:
            raise HarnessConfigError(f"capacity base must be one of {CAPACITY_BASES}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise HarnessConfigError("capacity grid is empty")
        if any(v <= 0 for v in vals):
            raise HarnessConfigError("capacities must be positive")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise HarnessConfigError("capacity grid must be strictly increasing")
        object.__setattr__(self, "values", vals)

    def resolve(self, trace: Trace) -> tuple[float, ...]:
        if self.base == "absolute":
            return self.values
        if self.base == "volume":
            ref = trace.catalog.total_volume()
        else:
            # identities the catalog lacks count too: a trace naming one
            # must reach the trace check, which reports it
            ref = float(_distinct_identities(trace))
        return tuple(v * ref for v in self.values)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a trace source crossed with policies, capacities, seeds."""

    trace: str  # "preset:<name>" or a trace file path
    policies: tuple[PolicyParams, ...]
    capacities: CapacityGrid
    seeds: tuple[int, ...] = (0,)
    scale: float = 1.0
    horizon: float | None = None
    variant: str | None = None
    local_fraction: float | None = None  # None: preset default (0 for files)
    out_dir: str | None = None

    def __post_init__(self):
        if not self.policies:
            raise HarnessConfigError("no policies configured")
        labels = [p.label() for p in self.policies]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            # rows, comparisons and capacity summaries are keyed by label
            raise HarnessConfigError(f"policies repeat a label: {', '.join(repeated)}")
        if not self.seeds:
            raise HarnessConfigError("no seeds configured")
        if self.scale <= 0:
            raise HarnessConfigError("scale must be positive")
        if self.local_fraction is not None and not 0 <= self.local_fraction < 1:
            raise HarnessConfigError("local_fraction must be in [0, 1)")


def _parse_capacity_tokens(tokens: Sequence[str], base: str | None) -> CapacityGrid:
    percents = [t.endswith("%") for t in tokens]
    if any(percents) and not all(percents):
        raise HarnessConfigError("cannot mix percent and absolute capacities")
    try:
        values = tuple(float(t.rstrip("%")) for t in tokens)
    except ValueError as e:
        raise HarnessConfigError(f"bad capacity value: {e}") from None
    if all(percents):
        if base == "absolute":
            raise HarnessConfigError("percent capacities conflict with capacity_base=absolute")
        return CapacityGrid(tuple(v / 100.0 for v in values), base or "volume")
    if base not in (None, "absolute"):
        raise HarnessConfigError(
            f"capacity_base={base} requires percent capacities (e.g. 0.5%)"
        )
    return CapacityGrid(values, "absolute")


def parse_kv_lines(text: str) -> dict[str, str]:
    """Parse the declarative ``key = value`` format (# starts a comment)."""
    fields: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessConfigError(f"line {ln}: expected key = value")
        k, v = (s.strip() for s in line.split("=", 1))
        if not k or not v:
            raise HarnessConfigError(f"line {ln}: empty key or value")
        if k in fields:
            raise HarnessConfigError(f"line {ln}: duplicate key {k!r}")
        fields[k] = v
    return fields


def _field_float(fields: dict[str, str], key: str, default: float | None = None):
    """``fields[key]`` as a float, or ``default`` when the key is absent."""
    if key not in fields:
        return default
    try:
        return float(fields[key])
    except ValueError:
        raise HarnessConfigError(f"{key} must be a number") from None


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse a sweep config: key=value lines naming a trace source, policies,
    and a capacity grid."""
    fields = parse_kv_lines(text)

    known = {
        "trace",
        "preset",
        "policies",
        "capacities",
        "capacity_base",
        "seeds",
        "scale",
        "horizon",
        "variant",
        "local_fraction",
        "out",
    }
    unknown = set(fields) - known
    if unknown:
        raise HarnessConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "trace" in fields and "preset" in fields:
        raise HarnessConfigError("give either trace or preset, not both")
    if "trace" in fields:
        trace = fields["trace"]
    elif "preset" in fields:
        trace = "preset:" + fields["preset"]
    else:
        raise HarnessConfigError("config needs a trace file or a preset")
    if "policies" not in fields:
        raise HarnessConfigError("config needs policies")
    if "capacities" not in fields:
        raise HarnessConfigError("config needs capacities")

    tokens = [tok.strip() for tok in fields["policies"].split(",") if tok.strip()]
    for tok in tokens:
        if "=" in tok.split(":")[0]:
            raise HarnessConfigError(
                f"policy {tok!r} is an option, not a policy; options are separated by ':'"
            )
    try:
        policies = tuple(map(parse_policy_spec, tokens))
    except ValueError as e:
        raise HarnessConfigError(str(e)) from None
    cap_tokens = [t.strip() for t in fields["capacities"].split(",") if t.strip()]
    base = fields.get("capacity_base")
    if base is not None and base not in CAPACITY_BASES:
        raise HarnessConfigError(f"capacity_base must be one of {CAPACITY_BASES}")
    capacities = _parse_capacity_tokens(cap_tokens, base)

    try:
        seeds = tuple(int(t) for t in fields.get("seeds", "0").split(",") if t.strip())
    except ValueError:
        raise HarnessConfigError("seeds must be a comma-separated integer list") from None

    return ExperimentConfig(
        trace=trace,
        policies=policies,
        capacities=capacities,
        seeds=seeds,
        scale=_field_float(fields, "scale", 1.0),
        horizon=_field_float(fields, "horizon"),
        variant=fields.get("variant"),
        local_fraction=_field_float(fields, "local_fraction"),
        out_dir=fields.get("out"),
    )


@dataclass(frozen=True)
class SweepRow:
    policy: str
    capacity: float
    seed: int
    hit_ratio: float
    hits: int
    forwarded: int
    local_hits: int
    total_events: int
    evictions: int
    oversized_misses: int
    per_client: str  # "client:ratio;..." in client order


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    digest: str
    version: str

    def to_csv(self, fh: IO[str]) -> None:
        fh.write(f"# toolkit_version={self.version}\n")
        fh.write(f"# config_digest={self.digest}\n")
        fh.write(
            "policy,capacity,seed,hit_ratio,hits,forwarded,local_hits,"
            "total_events,evictions,oversized_misses,per_client\n"
        )
        for r in self.rows:
            fh.write(
                f"{r.policy},{r.capacity!r},{r.seed},{r.hit_ratio!r},{r.hits},"
                f"{r.forwarded},{r.local_hits},{r.total_events},{r.evictions},"
                f"{r.oversized_misses},{r.per_client}\n"
            )


def _per_client_cell(metrics: SimulationMetrics) -> str:
    parts = []
    for c, (req, hits) in sorted(metrics.per_client().items()):
        ratio = hits / req if req else float("nan")
        parts.append(f"{c}:{ratio:.6f}")
    return ";".join(parts)


def _resolve_trace_source(cfg: ExperimentConfig):
    """Returns (preset | None, trace builder taking a seed)."""
    if cfg.trace.startswith("preset:"):
        preset = get_preset(cfg.trace[len("preset:") :])

        def build(seed: int) -> Trace:
            return preset.build_trace(
                scale=cfg.scale, seed=seed, horizon=cfg.horizon, variant=cfg.variant
            )

        return preset, build
    path = cfg.trace
    if not os.path.exists(path):
        raise HarnessConfigError(f"trace file not found: {path}")
    # read once: the sweep replays the same trace under every seed and never
    # mutates it
    trace = read_trace(path)
    return None, lambda seed: trace


def _fill_policy_params(
    params: PolicyParams, preset: Preset | None, cfg: ExperimentConfig
) -> PolicyParams:
    if params.kind == "static_opt" and params.rates is None:
        if preset is None or preset.kind != "grouped":
            raise HarnessConfigError(
                "static_opt needs per-object rates; use a grouped generator preset"
            )
        return dataclasses.replace(
            params, rates=preset.static_weights(cfg.scale, cfg.variant)
        )
    return params


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Run every (policy, capacity, seed) cell; rows in configuration order."""
    preset, build = _resolve_trace_source(cfg)
    return _run_sweep(cfg, preset, build)


@dataclass(frozen=True)
class _Cell:
    """One (seed, capacity, policy) replay of a sweep."""

    key: tuple[int, int, int]  # (policy, capacity, seed) indices: the row's place
    trace: Trace
    stream: _Stream  # what the private tier of ``config`` forwards from ``trace``
    params: PolicyParams
    config: CacheConfig
    seed: int


def _sweep_cells(cfg: ExperimentConfig, preset: Preset | None, build) -> Iterator[_Cell]:
    """The cells of a sweep in the order a serial sweep runs them: by seed,
    then capacity, then policy.  Each seed's trace is checked once, and its
    private tier filters it once per capacity, for every policy."""
    local = cfg.local_fraction
    if local is None:
        local = preset.local_fraction if preset is not None else 0.0
    policies = [_fill_policy_params(p, preset, cfg) for p in cfg.policies]
    for si, seed in enumerate(cfg.seeds):
        trace = build(seed)
        configs = [CacheConfig(c, local) for c in cfg.capacities.resolve(trace)]
        try:
            streams = _streams(trace, configs)
        except ConfigurationError as e:
            raise ConfigurationError(f"capacity={configs[0].capacity!r} seed={seed}: {e}") from e
        for ci, (config, stream) in enumerate(zip(configs, streams)):
            for pi, params in enumerate(policies):
                yield _Cell((pi, ci, si), trace, stream, params, config, seed)


def _run_cell(cell: _Cell) -> SweepRow:
    capacity = cell.config.capacity
    try:
        metrics = _replay_stream(cell.stream, cell.params, cell.config, False, cell.seed)
    except ConfigurationError as e:
        raise ConfigurationError(
            f"policy={cell.params.label()} capacity={capacity!r} seed={cell.seed}: {e}"
        ) from e
    return SweepRow(
        policy=cell.params.label(),
        capacity=capacity,
        seed=cell.seed,
        hit_ratio=metrics.hit_ratio,
        hits=metrics.hits,
        forwarded=metrics.forwarded,
        local_hits=metrics.local_hits,
        total_events=metrics.total_events,
        evictions=metrics.evictions,
        oversized_misses=metrics.oversized_misses,
        per_client=_per_client_cell(metrics),
    )


# Set only inside forked pool workers, by their initializer: the cells of the
# sweep that started them, inherited from the parent without pickling.
_worker_cells: list[_Cell] = []


def _install_worker_cells(cells: list[_Cell]) -> None:
    global _worker_cells
    _worker_cells = cells


def _run_worker_cell(index: int) -> SweepRow:
    return _run_cell(_worker_cells[index])


# A sweep replaying fewer events than this, summed over its cells, runs
# serially: pool start, teardown and row pickling cost more than the second
# CPU saves.  Measured on 2 vCPUs (reproduce cells, medians of 7): 27,340
# events took 54 ms serially and 78 ms pooled, 39,170 took 95 and 81 ms,
# 49,310 took 128 and 88 ms.
_POOL_MIN_EVENTS = 32_000


def _sweep_workers(cells: list[_Cell]) -> int:
    """One worker per CPU this process may run on, at most one per cell, and
    one in all when the cells replay too few events to pay for a pool."""
    if sum(len(cell.stream.keys) for cell in cells) < _POOL_MIN_EVENTS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, len(cells))


def _run_cells(cells: list[_Cell]) -> list[SweepRow]:
    """The rows of ``cells``, in their order.

    Cells run in a pool of forked workers, handed out one at a time as
    workers free up; the workers inherit the streams, so only rows are
    pickled.  Results are read in cell order, so a failing cell raises the
    error a serial run would raise first.  The cells run in a plain loop when
    there is one worker (one CPU, one cell, or too few events in all), when
    ``fork`` is unavailable, or in a daemonic process, which cannot have
    children.
    """
    workers = _sweep_workers(cells)
    if workers > 1:
        # imported here: at module level they would slow every import of corrcache
        import multiprocessing

        if (
            "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
        ):
            workers = 1
    if workers <= 1:
        return [_run_cell(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    # on an error, map cancels the cells not yet started; leaving the block
    # joins every worker
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_worker_cells,
        initargs=(cells,),
    ) as pool:
        return list(pool.map(_run_worker_cell, range(len(cells))))


def _run_sweep(cfg: ExperimentConfig, preset: Preset | None, build) -> SweepReport:
    """run_sweep over the traces ``build(seed)`` returns."""
    cells: list[_Cell] = []
    failure = None
    try:
        for cell in _sweep_cells(cfg, preset, build):
            cells.append(cell)
    except ConfigurationError as e:
        # a serial sweep runs the cells before the failing check first
        failure = e
    rows = _run_cells(cells)
    if failure is not None:
        raise failure
    first = cells[0]
    digest = config_digest(first.params.label(), first.config, first.trace)
    order = sorted(range(len(cells)), key=lambda i: cells[i].key)
    return SweepReport(rows=tuple(rows[i] for i in order), digest=digest, version=__version__)


@dataclass(frozen=True)
class PolicyComparison:
    policy: str
    capacity: float
    mean_hit_ratio: float
    min_hit_ratio: float
    max_hit_ratio: float
    baseline_mean: float
    # ratio of means against the baseline policy; None when 0/0 (undefined),
    # math.inf when the baseline is 0 but this policy hit
    multiplier: float | None


def _cells_by_policy_capacity(report: SweepReport):
    by_cell: dict[tuple[str, float], list[float]] = {}
    order: list[tuple[str, float]] = []
    for r in report.rows:
        key = (r.policy, r.capacity)
        if key not in by_cell:
            by_cell[key] = []
            order.append(key)
        by_cell[key].append(r.hit_ratio)
    return by_cell, order


def _ratio_of_means(mean: float, base: float) -> float | None:
    if base > 0:
        return mean / base
    return math.inf if mean > 0 else None


def compare_policies(report: SweepReport, baseline: str = "lru") -> tuple[PolicyComparison, ...]:
    """Per (policy, capacity): mean/min/max hit ratio across seeds and the
    ratio of means against the baseline policy."""
    by_cell, order = _cells_by_policy_capacity(report)
    base_means = {
        cap: float(np.mean(vals))
        for (pol, cap), vals in by_cell.items()
        if pol == baseline
    }
    if not base_means:
        raise HarnessConfigError(f"baseline policy {baseline!r} not present in the report")
    out = []
    for pol, cap in order:
        vals = by_cell[(pol, cap)]
        mean = float(np.mean(vals))
        base = base_means.get(cap)
        if base is None:
            continue
        out.append(
            PolicyComparison(
                pol,
                cap,
                mean,
                float(min(vals)),
                float(max(vals)),
                base,
                _ratio_of_means(mean, base),
            )
        )
    return tuple(out)


def _render_multiplier(mult: float | None) -> str:
    if mult is None:
        return "undefined"
    if math.isinf(mult):
        return "inf"
    return repr(mult)


def comparison_csv(comparisons: Sequence[PolicyComparison], fh: IO[str]) -> None:
    fh.write(
        "policy,capacity,mean_hit_ratio,min_hit_ratio,max_hit_ratio,"
        "baseline_mean,multiplier\n"
    )
    for c in comparisons:
        fh.write(
            f"{c.policy},{c.capacity!r},{c.mean_hit_ratio!r},{c.min_hit_ratio!r},"
            f"{c.max_hit_ratio!r},{c.baseline_mean!r},{_render_multiplier(c.multiplier)}\n"
        )


@dataclass(frozen=True)
class CapacitySummary:
    """Per-capacity digest: who won, by how much, and the follow-policy
    multipliers over the classic baselines."""

    capacity: float
    best_policy: str
    best_mean: float
    gaps: tuple[tuple[str, float], ...]  # best_mean - mean, per policy
    multipliers: tuple[tuple[str, str, float | None], ...]  # (policy, baseline, x)


def summarize_capacities(report: SweepReport) -> tuple[CapacitySummary, ...]:
    """Per capacity: the best policy by mean hit ratio, every policy's gap to
    it, and each follow-aware policy's ratio of means over lru and lfu."""
    by_cell, order = _cells_by_policy_capacity(report)
    caps: list[float] = []
    for _pol, cap in order:
        if cap not in caps:
            caps.append(cap)
    policies = []
    for pol, _cap in order:
        if pol not in policies:
            policies.append(pol)
    out = []
    for cap in caps:
        means = {
            pol: float(np.mean(by_cell[(pol, cap)]))
            for pol in policies
            if (pol, cap) in by_cell
        }
        best_policy = max(means, key=lambda p: (means[p], p))
        best_mean = means[best_policy]
        gaps = tuple((pol, best_mean - m) for pol, m in means.items())
        mults = []
        for pol in policies:
            if not pol.startswith(("lfru", "lfrus")) or pol not in means:
                continue
            for base in ("lru", "lfu"):
                if base in means:
                    mults.append((pol, base, _ratio_of_means(means[pol], means[base])))
        out.append(CapacitySummary(cap, best_policy, best_mean, gaps, tuple(mults)))
    return tuple(out)


def capacity_summary_csv(summaries: Sequence[CapacitySummary], fh: IO[str]) -> None:
    fh.write("capacity,best_policy,best_mean,policy,gap_to_best,baseline,multiplier\n")
    for s in summaries:
        mult_of = {(pol, base): m for pol, base, m in s.multipliers}
        for pol, gap in s.gaps:
            bases = [b for (p, b) in mult_of if p == pol] or [""]
            for base in bases:
                mult = _render_multiplier(mult_of[(pol, base)]) if base else ""
                fh.write(
                    f"{s.capacity!r},{s.best_policy},{s.best_mean!r},"
                    f"{pol},{gap!r},{base},{mult}\n"
                )


@dataclass
class ReproduceResult:
    """Tables (CSV text) plus a summary dict; files written when out_dir set."""

    preset: str
    tables: dict[str, str]
    summary: dict
    written: list[str]


def _csv_text(write, *args) -> str:
    """What ``write(*args, fh)`` writes, as a string."""
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def _sweep_tables(report: SweepReport, comparisons: Sequence[PolicyComparison]) -> dict[str, str]:
    """A sweep's rows, policy comparisons and capacity summaries as CSV text,
    by file name."""
    return {
        "sweep.csv": _csv_text(report.to_csv),
        "comparison.csv": _csv_text(comparison_csv, comparisons),
        "capacity-summary.csv": _csv_text(capacity_summary_csv, summarize_capacities(report)),
    }


def _write_files(out_dir: str, files: dict[str, str]) -> list[str]:
    """Write each text to its file name under ``out_dir``, made if missing;
    returns the paths in order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        written.append(path)
    return written


def _role_of_client(groups, client: int) -> tuple[int, str, int]:
    """(group index, role, follower index 1-based or 0 for the leader)."""
    for gi, (leader, followers) in enumerate(group_clients(groups)):
        if client == leader:
            return gi, "leader", 0
        if client in followers:
            return gi, "follower", followers.index(client) + 1
    raise KeyError(f"client {client} not in any group")


# An overlay's max_abs_diff covers the (client, object) pairs requested at
# least this often; a variant grid tabulates this many objects, those with the
# highest leader rates.
_OVERLAY_MIN_REQUESTS = 20
_GRID_TOP_OBJECTS = 10


def _overlay_table(groups, metrics: SimulationMetrics, hit_report) -> tuple[str, dict]:
    """Aligned per-(client, object) simulated vs predicted hit probability."""
    model_prob: dict[tuple[int, int], float] = {}
    for gi, g in enumerate(hit_report.groups):
        leader, followers = group_clients(groups)[gi]
        for oid, p in zip(g.object_ids.tolist(), g.leader.tolist()):
            model_prob[(leader, oid)] = p
        for fi, vec in enumerate(g.follower_list):
            for oid, p in zip(g.object_ids.tolist(), vec.tolist()):
                model_prob[(followers[fi], oid)] = p

    buf = io.StringIO()
    buf.write(
        "group,client,role,follower_index,object,requests,sim_hit_ratio,model_hit_prob,abs_diff\n"
    )
    max_diff = 0.0
    compared = 0
    rows = sorted(
        zip(
            metrics.pair_clients.tolist(),
            metrics.pair_objects.tolist(),
            metrics.pair_requests.tolist(),
            metrics.pair_hits.tolist(),
        )
    )
    for client, oid, req, hits in rows:
        key = (client, oid)
        if key not in model_prob:
            continue
        gi, role, fidx = _role_of_client(groups, client)
        sim = hits / req
        model = model_prob[key]
        diff = abs(sim - model)
        if req >= _OVERLAY_MIN_REQUESTS:
            max_diff = max(max_diff, diff)
            compared += 1
        buf.write(
            f"{gi},{client},{role},{fidx or '-'},{oid},{req},{sim!r},{model!r},{diff!r}\n"
        )
    summary = {
        "max_abs_diff": max_diff,
        "compared_pairs": compared,
        "min_requests": _OVERLAY_MIN_REQUESTS,
        "t_star": hit_report.t_star,
        "capacity": hit_report.capacity,
        "normalized_model_hit_rate": hit_report.normalized_hit_rate,
    }
    return buf.getvalue(), summary


def _reproduce_overlay(preset: Preset, scale: float, seed: int, horizon):
    trace = preset.build_trace(scale=scale, seed=seed, horizon=horizon)
    volume = trace.catalog.total_volume()
    frac = preset.capacity_fractions[len(preset.capacity_fractions) // 2]
    capacity = frac * volume
    model = preset.build_model(scale)
    report = model.hit_report(capacity)
    metrics = simulate(
        trace,
        PolicyParams("lru"),
        CacheConfig(capacity=capacity, local_cache_fraction=preset.local_fraction),
    )
    table, summary = _overlay_table(preset.groups(scale), metrics, report)
    summary["capacity_fraction_of_volume"] = frac
    summary["seed"] = seed
    return {"overlay.csv": table}, summary


def _reproduce_variant_grid(preset: Preset, scale: float, seed: int, horizon):
    """Model and simulated follower hit probabilities across preset variants."""
    frac = preset.capacity_fractions[0]
    model_cols: dict[str, dict[int, float]] = {}
    sim_cols: dict[str, dict[int, tuple[int, int]]] = {}
    objects: list[int] | None = None
    for variant in preset.variants:
        groups = preset.groups(scale, variant)
        model = preset.build_model(scale, variant)
        capacity = frac * model.total_volume()
        report = model.hit_report(capacity)
        g = report.groups[0]
        if objects is None:
            rate_order = np.argsort(-g.rates, kind="stable")
            objects = g.object_ids[rate_order[:_GRID_TOP_OBJECTS]].tolist()
        follower_mean = np.mean(np.stack(g.follower_list), axis=0)
        prob_of = dict(zip(g.object_ids.tolist(), follower_mean.tolist()))
        model_cols[variant] = {o: prob_of[o] for o in objects}

        trace = preset.build_trace(scale=scale, seed=seed, horizon=horizon, variant=variant)
        metrics = simulate(
            trace,
            PolicyParams("lru"),
            CacheConfig(capacity=capacity, local_cache_fraction=preset.local_fraction),
        )
        leader, followers = group_clients(groups)[0]
        fset = set(followers)
        tallies: dict[int, tuple[int, int]] = {}
        for c, o, req, hits in zip(
            metrics.pair_clients.tolist(),
            metrics.pair_objects.tolist(),
            metrics.pair_requests.tolist(),
            metrics.pair_hits.tolist(),
        ):
            if c in fset and o in model_cols[variant]:
                r0, h0 = tallies.get(o, (0, 0))
                tallies[o] = (r0 + req, h0 + hits)
        sim_cols[variant] = tallies

    buf = io.StringIO()
    header = ["object"]
    header += [f"model_{v}" for v in preset.variants]
    header += [f"sim_{v}" for v in preset.variants]
    header += [f"sim_requests_{v}" for v in preset.variants]
    buf.write(",".join(header) + "\n")
    for o in objects:
        cells = [str(o)]
        for v in preset.variants:
            cells.append(repr(model_cols[v][o]))
        for v in preset.variants:
            req, hits = sim_cols[v].get(o, (0, 0))
            cells.append(repr(hits / req) if req else "nan")
        for v in preset.variants:
            req, _ = sim_cols[v].get(o, (0, 0))
            cells.append(str(req))
        buf.write(",".join(cells) + "\n")

    summary = {
        "variants": list(preset.variants),
        "objects": objects,
        "capacity_fraction_of_volume": frac,
        "seed": seed,
        "model_columns": {v: [model_cols[v][o] for o in objects] for v in preset.variants},
    }
    return {"variant_grid.csv": buf.getvalue()}, summary


def _reproduce_sweep(preset: Preset, scale: float, seed: int, horizon):
    policy_names = ["lru", "lfu", "sieve", "lfru:w=20"]
    probe = preset.build_trace(scale=scale, seed=seed, horizon=horizon)
    if probe.catalog.unit_sized():
        policy_names.append("belady")
        if preset.kind == "grouped":
            policy_names.append("static_opt")
    cfg = ExperimentConfig(
        trace="preset:" + preset.name,
        policies=tuple(parse_policy_spec(p) for p in policy_names),
        capacities=CapacityGrid(preset.capacity_fractions, "volume"),
        seeds=(seed,),
        scale=scale,
        horizon=horizon,
    )
    # the probe is the trace run_sweep would build for this seed
    report = _run_sweep(cfg, preset, lambda _seed: probe)
    comparisons = compare_policies(report)
    ranked = [c for c in comparisons if c.multiplier is not None and math.isfinite(c.multiplier)]
    best = max(ranked, key=lambda c: (c.multiplier, c.capacity)) if ranked else None
    summary = {
        "policies": policy_names,
        "seed": seed,
        "best_multiplier": best.multiplier if best else None,
        "best_multiplier_policy": best.policy if best else None,
        "best_multiplier_capacity": best.capacity if best else None,
    }
    return _sweep_tables(report, comparisons), summary


def reproduce(
    preset_name: str,
    scale: float = 1.0,
    seed: int = 0,
    out_dir: str | None = None,
    horizon: float | None = None,
) -> ReproduceResult:
    """Re-run a named experiment at the given scale and collect its tables.

    A preset with variants emits one column set per variant
    (``variant_grid.csv``); an overlay preset emits its simulated and model
    hit probabilities aligned per (client, object) (``overlay.csv``); the
    rest run the default policy sweep (``sweep.csv``, ``comparison.csv``,
    ``capacity-summary.csv``).  With ``out_dir`` set, each table and the
    summary are written there as ``<preset>-<file>``.
    """
    preset = get_preset(preset_name)
    if preset.variants:
        tables, summary = _reproduce_variant_grid(preset, scale, seed, horizon)
    elif preset.overlay:
        tables, summary = _reproduce_overlay(preset, scale, seed, horizon)
    else:
        tables, summary = _reproduce_sweep(preset, scale, seed, horizon)
    written: list[str] = []
    if out_dir is not None:
        files = {f"{preset.name}-{name}": text for name, text in tables.items()}
        files[f"{preset.name}-summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        written = _write_files(out_dir, files)
    return ReproduceResult(
        preset=preset.name, tables=tables, summary=summary, written=written
    )
