"""Command-line interface.

Subcommands: generate, simulate, sweep, analyze, reproduce.  Exit codes:
0 on success, 2 on configuration errors (bad arguments, unknown presets,
malformed config files, policy/trace mismatches), 3 when an internal
consistency check fails after a run.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .analysis import ModelError
from .engine import (
    CacheConfig,
    ConfigurationError,
    ConsistencyError,
    config_digest,
    simulate,
)
from .harness import (
    CapacityGrid,
    HarnessConfigError,
    _field_float,
    _sweep_tables,
    _write_files,
    compare_policies,
    parse_experiment_config,
    parse_kv_lines,
    reproduce,
    run_sweep,
)
from .policies import PolicyConfigError, parse_policy_spec
from .presets import PresetError, get_preset, preset_names
from .trace import TraceFormatError, read_trace, trace_stats, validate_trace, write_trace

CONFIG_ERRORS = (
    ConfigurationError,
    PolicyConfigError,
    PresetError,
    HarnessConfigError,
    ModelError,
    TraceFormatError,
    FileNotFoundError,
    IsADirectoryError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcache",
        description=(
            "Cache simulation and analysis for correlated client request "
            "streams: trace generation, policy simulation, capacity sweeps, "
            "analytic hit-probability prediction, and preset reproduction."
        ),
    )
    parser.add_argument("--version", action="version", version=f"corrcache {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate",
        help="generate a trace from a preset (or a config file) into a file",
        description=(
            "Generate a request trace.  SOURCE is a preset name or a config "
            "file with 'key = value' lines (keys: preset, scale, seed, "
            "horizon, variant).  Presets: " + ", ".join(preset_names()) + ". "
            "Scale multiplies the object count (grouped presets) or the slot "
            "horizon (toroid presets); defaults: scale 1.0, seed 0."
        ),
    )
    gen.add_argument("source", help="preset name or generate-config file")
    gen.add_argument("--scale", type=float, default=None, help="size factor (default 1.0)")
    gen.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    gen.add_argument("--horizon", type=float, default=None, help="override the preset horizon")
    gen.add_argument("--variant", default=None, help="preset variant, when the preset has any")
    gen.add_argument("--out", required=True, help="output trace file")

    sim = sub.add_parser(
        "simulate",
        help="simulate one policy at one capacity over a trace file",
        description=(
            "Replay a trace file against a cache.  Capacity is absolute "
            "bytes by default; --capacity-base volume/footprint reads it as "
            "a fraction of the catalog volume / of the count of distinct "
            "identities requested.  Defaults: policy lru, local-frac 0, "
            "seed 0."
        ),
    )
    sim.add_argument("--trace", required=True, help="trace file (from generate)")
    sim.add_argument(
        "--policy",
        default="lru",
        help="policy spec: lru | lfu | sieve | belady | static_opt | "
        "lfru:w=20 | lfrus:w=2:gamma=0.5 (default lru)",
    )
    sim.add_argument("--capacity", type=float, required=True, help="cache capacity")
    sim.add_argument(
        "--capacity-base",
        choices=("absolute", "volume", "footprint"),
        default="absolute",
        help="how to interpret --capacity (default absolute bytes)",
    )
    sim.add_argument(
        "--local-frac",
        type=float,
        default=0.0,
        help="per-client private LRU size as a fraction of capacity (default 0)",
    )
    sim.add_argument("--seed", type=int, default=0, help="run tag recorded in outputs (default 0)")
    sim.add_argument(
        "--out",
        default=None,
        help="output directory: writes metrics.csv and summary.json inside",
    )
    sim.add_argument(
        "--dump-follow-matrix",
        default=None,
        help="write the end-of-run follow matrix as c1,c2,count CSV "
        "(follow-aware policies only)",
    )

    swp = sub.add_parser(
        "sweep",
        help="run a policy x capacity x seed sweep from a config file",
        description=(
            "Config file format: 'key = value' lines, # comments.  Keys: "
            "preset or trace (file path), policies (comma list of policy "
            "specs), capacities (comma list, absolute or percent like 0.5%%), "
            "capacity_base (volume|footprint|absolute), seeds, scale, "
            "horizon, variant, local_fraction, out (directory).  Defaults: "
            "seeds 0, scale 1.0, capacity_base volume for percent values."
        ),
    )
    swp.add_argument("config", help="sweep config file")
    swp.add_argument("--out", default=None, help="output directory (overrides config)")

    ana = sub.add_parser(
        "analyze",
        help="predict per-role analytic hit probabilities for a grouped preset",
        description=(
            "Solve the characteristic-time fixed point and write per-object "
            "leader/follower hit probabilities as CSV.  MODEL is a grouped "
            "preset name or a config file with 'key = value' lines (keys: "
            "preset, scale, variant, capacity, capacity_base).  Defaults: "
            "scale 1.0, capacity_base absolute."
        ),
    )
    ana.add_argument("model", help="grouped preset name or model-config file")
    ana.add_argument("--scale", type=float, default=None, help="size factor (default 1.0)")
    ana.add_argument("--variant", default=None, help="preset variant")
    ana.add_argument(
        "--capacity",
        type=float,
        default=None,
        help="cache capacity (required here or in the config file)",
    )
    ana.add_argument(
        "--capacity-base",
        choices=("absolute", "volume"),
        default=None,
        help="how to interpret the capacity (default absolute bytes)",
    )
    ana.add_argument("--out", default=None, help="output CSV (default stdout)")

    rep = sub.add_parser(
        "reproduce",
        help="re-run a named experiment and write its tables",
        description=(
            "Re-run a preset experiment end to end: overlay presets emit an "
            "aligned simulation-vs-model CSV, variant presets emit a "
            "per-variant grid, the rest run the default policy sweep.  "
            "Defaults: scale 1.0, seed 0."
        ),
    )
    rep.add_argument("preset", help="preset name")
    rep.add_argument("--scale", type=float, default=1.0, help="size factor (default 1.0)")
    rep.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    rep.add_argument("--horizon", type=float, default=None, help="override the preset horizon")
    rep.add_argument("--out", required=True, help="output directory")
    return parser


_GENERATE_KEYS = {"preset", "scale", "seed", "horizon", "variant"}
_ANALYZE_KEYS = {"preset", "scale", "variant", "capacity", "capacity_base"}


def _load_source_config(source: str, allowed: set[str], what: str) -> dict[str, str]:
    """SOURCE is a preset name, or a path to a key=value config file."""
    if os.path.isfile(source):
        with open(source) as fh:
            fields = parse_kv_lines(fh.read())
        unknown = set(fields) - allowed
        if unknown:
            raise HarnessConfigError(
                f"unknown {what} config keys: {', '.join(sorted(unknown))}"
            )
        if "preset" not in fields:
            raise HarnessConfigError(f"{what} config file needs a preset key")
        return fields
    return {"preset": source}


def _cmd_generate(args) -> int:
    fields = _load_source_config(args.source, _GENERATE_KEYS, "generate")
    preset = get_preset(fields["preset"])
    scale = args.scale if args.scale is not None else _field_float(fields, "scale")
    seed = args.seed if args.seed is not None else fields.get("seed")
    if seed is not None and not isinstance(seed, int):
        try:
            seed = int(seed)
        except ValueError:
            raise HarnessConfigError("seed must be an integer") from None
    horizon = args.horizon if args.horizon is not None else _field_float(fields, "horizon")
    variant = args.variant if args.variant is not None else fields.get("variant")
    trace = preset.build_trace(
        scale=scale if scale is not None else 1.0,
        seed=seed if seed is not None else 0,
        horizon=horizon,
        variant=variant,
    )
    write_trace(trace, args.out)
    stats = trace_stats(trace)
    print(
        f"wrote {args.out}: {stats.num_events} events, "
        f"{stats.num_clients} clients, {stats.distinct_identities} identities"
    )
    return 0


def _cmd_simulate(args) -> int:
    trace = read_trace(args.trace)
    report = validate_trace(trace)
    if not report.ok:
        raise ConfigurationError(
            "trace failed validation: " + "; ".join(report.violations[:3])
        )
    params = parse_policy_spec(args.policy)
    capacity = CapacityGrid((args.capacity,), args.capacity_base).resolve(trace)[0]
    config = CacheConfig(capacity=capacity, local_cache_fraction=args.local_frac)
    follow_dump = args.dump_follow_matrix
    if follow_dump is not None and params.kind not in ("lfru", "lfrus"):
        raise ConfigurationError(
            "--dump-follow-matrix needs a follow-aware policy (lfru/lfrus)"
        )
    if follow_dump is not None:
        from .policies import build_policy

        pol = build_policy(params)
        metrics = simulate(trace, pol, config, seed=args.seed)
        metrics.policy = params.label()
        with open(follow_dump, "w", newline="\n") as fh:
            fh.write(pol.follow_matrix_csv())
    else:
        metrics = simulate(trace, params, config, seed=args.seed)
    metrics.meta["config_digest"] = config_digest(params.label(), config, trace)
    metrics.meta["trace_file"] = args.trace
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.csv"), "w", newline="\n") as fh:
            metrics.to_csv(fh)
        with open(os.path.join(args.out, "summary.json"), "w", newline="\n") as fh:
            metrics.write_summary(fh)
    ratio = metrics.hit_ratio
    print(
        f"{params.label()} capacity={capacity:g}: hit_ratio={ratio:.6f} "
        f"({metrics.hits}/{metrics.forwarded} forwarded, {metrics.local_hits} local hits)"
    )
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = parse_experiment_config(fh.read())
    out_dir = args.out if args.out is not None else cfg.out_dir
    report = run_sweep(cfg)
    tables = _sweep_tables(report, compare_policies(report, baseline=cfg.policies[0].label()))
    if out_dir is None:
        sys.stdout.write(tables["sweep.csv"])
    else:
        paths = _write_files(out_dir, tables)
        print(f"wrote {', '.join(paths)} ({len(report.rows)} rows)")
    return 0


def _cmd_analyze(args) -> int:
    fields = _load_source_config(args.model, _ANALYZE_KEYS, "analyze")
    preset = get_preset(fields["preset"])
    if preset.kind != "grouped":
        raise ConfigurationError(
            f"preset {preset.name!r} has no analytic model (grouped presets only)"
        )
    scale = args.scale if args.scale is not None else _field_float(fields, "scale")
    variant = args.variant if args.variant is not None else fields.get("variant")
    capacity = args.capacity if args.capacity is not None else _field_float(fields, "capacity")
    base = args.capacity_base or fields.get("capacity_base") or "absolute"
    if base not in ("absolute", "volume"):
        raise HarnessConfigError("capacity_base must be absolute or volume")
    if capacity is None:
        raise HarnessConfigError("a capacity is required (flag or config key)")
    model = preset.build_model(scale if scale is not None else 1.0, variant)
    if base == "volume":
        capacity = capacity * model.total_volume()
    report = model.hit_report(capacity)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            report.to_csv(fh)
        print(
            f"wrote {args.out}: t_star={report.t_star:.6g}, "
            f"normalized_hit_rate={report.normalized_hit_rate:.6f}"
        )
    else:
        report.to_csv(sys.stdout)
    return 0


def _cmd_reproduce(args) -> int:
    result = reproduce(
        args.preset, scale=args.scale, seed=args.seed, horizon=args.horizon, out_dir=args.out
    )
    for path in result.written:
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "analyze": _cmd_analyze,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # the reader of our stdout (e.g. `head`) went away; suppress the
        # interpreter's shutdown flush error and end the truncated run cleanly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConsistencyError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # bad numeric/config values raised by library layers
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
