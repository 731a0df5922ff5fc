"""Named experiment presets.

Each preset bundles a trace generator configuration (and, for grouped
presets, the matching analytic model) so experiments can be named on the
command line instead of spelled out in config files.  ``scale`` shrinks or
grows a preset: for grouped presets it scales the per-group object count,
for toroid presets the slot horizon.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from .analysis import WorkingSetModel
from .trace import Trace, pack_key
from .workloads import (
    GroupSpec,
    LeaderSwitch,
    OrderShuffle,
    StructuredDelays,
    ToroidGroup,
    ToroidSpec,
    UniformDelays,
    even_odd_sizes,
    gen_grouped_trace,
    gen_toroid_trace,
)


class PresetError(ValueError):
    """Unknown preset or variant."""


@dataclass(frozen=True)
class Preset:
    """A named, parameterized experiment family."""

    name: str
    description: str
    local_fraction: float = 0.0
    capacity_fractions: tuple[float, ...] = (0.01, 0.02, 0.05)
    variants: tuple[str, ...] = ()
    default_horizon: float = 500.0
    groups_fn: Callable[[float, str | None], tuple[GroupSpec, ...]] | None = None
    sizes: object = None  # passed through to the generator / model
    toroid_fn: Callable[[float], tuple[ToroidSpec, object]] | None = None
    # reproduced as a model-vs-simulation overlay; otherwise a preset with
    # variants reproduces as a per-variant grid, the rest as a policy sweep
    overlay: bool = False

    @property
    def kind(self) -> str:
        """The generator family: grouped exactly when the preset has an
        analytic group structure, else toroid."""
        return "grouped" if self.groups_fn is not None else "toroid"

    def _check_variant(self, variant: str | None) -> str | None:
        if self.variants:
            if variant is None:
                return self.variants[0]
            if variant not in self.variants:
                raise PresetError(
                    f"preset {self.name!r} has no variant {variant!r} "
                    f"(available: {', '.join(self.variants)})"
                )
            return variant
        if variant is not None:
            raise PresetError(f"preset {self.name!r} has no variants")
        return None

    def groups(self, scale: float = 1.0, variant: str | None = None) -> tuple[GroupSpec, ...]:
        if self.groups_fn is None:
            raise PresetError(f"preset {self.name!r} has no analytic group structure")
        _check_scale(scale)
        return self.groups_fn(scale, self._check_variant(variant))

    def build_model(self, scale: float = 1.0, variant: str | None = None) -> WorkingSetModel:
        return WorkingSetModel.from_group_specs(self.groups(scale, variant), sizes=self.sizes)

    def build_trace(
        self,
        scale: float = 1.0,
        seed: int = 0,
        horizon: float | None = None,
        variant: str | None = None,
    ) -> Trace:
        _check_scale(scale)
        if horizon is not None and not math.isfinite(horizon):
            raise PresetError(f"horizon must be finite, got {horizon!r}")
        variant = self._check_variant(variant)
        meta = {
            "preset": self.name,
            "scale": repr(float(scale)),
        }
        if variant is not None:
            meta["variant"] = variant
        if self.kind == "grouped":
            h = float(horizon) if horizon is not None else self.default_horizon
            meta["horizon"] = repr(h)
            return gen_grouped_trace(
                self.groups_fn(scale, variant),
                horizon=h,
                seed=seed,
                object_sizes=self.sizes,
                meta=meta,
            )
        spec, dynamics = self.toroid_fn(scale)
        if horizon is not None:
            spec = dataclasses.replace(spec, horizon_slots=int(horizon))
        meta["horizon"] = repr(float(spec.horizon_slots))
        return gen_toroid_trace(spec, dynamics=dynamics, seed=seed, meta=meta)

    def static_weights(self, scale: float = 1.0, variant: str | None = None) -> dict[int, float]:
        """Per-object weighted request rates for the static placement policy.

        The weight of an object is its leader rate times (1 + followers),
        summed over groups, keyed by packed identity (version None).
        """
        weights: dict[int, float] = {}
        for g in self.groups(scale, variant):
            mult = 1 + g.followers
            for oid, rate in zip(g.object_ids().tolist(), g.rates().tolist()):
                key = pack_key(oid, None)
                weights[key] = weights.get(key, 0.0) + rate * mult
        return weights


def _check_scale(scale: float) -> None:
    # a non-finite scale would reach round() and int() in the preset functions
    if not 0 < scale < math.inf:
        raise PresetError(f"scale must be finite and positive, got {scale!r}")


def _scaled_count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


# Leader rates for the main grouped preset are normalized by this factor so
# that the characteristic time crosses the follower delay steps (10/20/30) at
# roughly 2% / 3.2% / 3.8% of the total data volume, the regime the preset is
# meant to exercise.  The raw rate/delay combination (10,15,20) x (10,20,30)
# would push those crossings past 40% of the volume and with it the entire
# small-cache behavior the preset exists to study.
GROUPED_MAIN_RATE_SCALE = 1.0 / 45.0


def _grouped_main_groups(scale: float, variant: str | None) -> tuple[GroupSpec, ...]:
    n = _scaled_count(1000, scale)
    cfg = (
        (10.0, 0.8, 8, 10.0),
        (15.0, 0.85, 6, 20.0),
        (20.0, 0.9, 4, 30.0),
    )
    out = []
    first = 1
    for rate, exponent, followers, step in cfg:
        out.append(
            GroupSpec(
                first_object=first,
                num_objects=n,
                leader_rate=rate * GROUPED_MAIN_RATE_SCALE,
                zipf_exponent=exponent,
                followers=followers,
                delays=StructuredDelays(step),
            )
        )
        first += n
    return tuple(out)


def _uniform_overlay_groups(scale: float, variant: str | None) -> tuple[GroupSpec, ...]:
    n = _scaled_count(1000, scale)
    cfg = (
        (10.0, 6, (-10.0, 20.0)),
        (8.0, 4, (15.0, 30.0)),
        (12.0, 3, (-5.0, 40.0)),
    )
    out = []
    first = 1
    for rate, followers, (lo, hi) in cfg:
        out.append(
            GroupSpec(
                first_object=first,
                num_objects=n,
                leader_rate=rate,
                zipf_exponent=1.0,
                followers=followers,
                delays=UniformDelays.iid(lo, hi, followers),
            )
        )
        first += n
    return tuple(out)


def _spread_grid_groups(scale: float, variant: str | None) -> tuple[GroupSpec, ...]:
    # one group; delay mean fixed at 30, std selected by variant
    std = {"std5": 5.0, "std15": 15.0, "std25": 25.0}[variant]
    half = std * math.sqrt(3.0)
    n = _scaled_count(5000, scale)
    return (
        GroupSpec(
            first_object=1,
            num_objects=n,
            leader_rate=20.0,
            zipf_exponent=1.0,
            followers=4,
            delays=UniformDelays.iid(30.0 - half, 30.0 + half, 4),
        ),
    )


def _follower_grid_groups(scale: float, variant: str | None) -> tuple[GroupSpec, ...]:
    followers = {"f2": 2, "f4": 4, "f8": 8}[variant]
    n = _scaled_count(5000, scale)
    return (
        GroupSpec(
            first_object=1,
            num_objects=n,
            leader_rate=20.0,
            zipf_exponent=1.0,
            followers=followers,
            delays=UniformDelays.iid(0.0, 60.0, followers),
        ),
    )


def _delay_steps(step: int, count: int) -> tuple[int, ...]:
    return tuple(step * i for i in range(1, count + 1))


def _toroid_groups() -> tuple[ToroidGroup, ...]:
    return (
        ToroidGroup(follower_delays=_delay_steps(4, 8)),
        ToroidGroup(follower_delays=_delay_steps(8, 4)),
        ToroidGroup(follower_delays=_delay_steps(20, 2)),
    )


def _toroid_spec(scale: float, versioned: bool = False) -> ToroidSpec:
    return ToroidSpec(
        groups=_toroid_groups(),
        horizon_slots=max(50, round(2000 * scale)),
        versioned=versioned,
        newly_visible_only=versioned,
    )


def _toroid_plain(scale: float):
    return _toroid_spec(scale), None


def _toroid_shuffled(scale: float):
    return _toroid_spec(scale), OrderShuffle(period=50)


def _toroid_switching(scale: float):
    return _toroid_spec(scale), LeaderSwitch(
        period=50, probabilities=(0.5, 0.3, 0.2), step_delay=5
    )


def _toroid_tiered(scale: float):
    return _toroid_spec(scale, versioned=True), None


PRESETS: dict[str, Preset] = {}


def _register(preset: Preset) -> Preset:
    PRESETS[preset.name] = preset
    return preset


GROUPED_MAIN = _register(
    Preset(
        name="grouped-4.1",
        description=(
            "three structured-delay groups over 3x1000 unit-size objects; "
            "the main grouped-stream comparison workload"
        ),
        capacity_fractions=(0.001, 0.003, 0.005, 0.01, 0.02),
        default_horizon=2000.0,
        groups_fn=_grouped_main_groups,
    )
)

FIG2_SETUP = _register(
    Preset(
        name="fig2-setup",
        description=(
            "three uniform-delay groups over 3x1000 objects with alternating "
            "sizes 2/5; model-vs-simulation overlay workload"
        ),
        capacity_fractions=(0.02, 0.05, 0.1),
        default_horizon=500.0,
        groups_fn=_uniform_overlay_groups,
        sizes=even_odd_sizes(2.0, 5.0),
        overlay=True,
    )
)

FIG3A_SETUP = _register(
    Preset(
        name="fig3a-setup",
        description=(
            "one group, 4 followers, uniform delays with mean 30 and std "
            "in {5,15,25}; delay-spread trend study"
        ),
        capacity_fractions=(0.01, 0.02, 0.05),
        variants=("std5", "std15", "std25"),
        default_horizon=200.0,
        groups_fn=_spread_grid_groups,
    )
)

FIG3B_SETUP = _register(
    Preset(
        name="fig3b-setup",
        description=(
            "one group, uniform delays on [0,60], follower count in "
            "{2,4,8}; follower-count trend study"
        ),
        capacity_fractions=(0.01, 0.02, 0.05),
        variants=("f2", "f4", "f8"),
        default_horizon=200.0,
        groups_fn=_follower_grid_groups,
    )
)

# the spread-grid study under its generic name
_register(dataclasses.replace(FIG3A_SETUP, name="fig3-setup"))

TOROID_TRACE1 = _register(
    Preset(
        name="toroid-trace1",
        description=(
            "17 clients moving on a 3-D torus (groups of 8/4/2 followers, "
            "delay steps 4/8/20 slots), static group structure"
        ),
        local_fraction=0.05,
        capacity_fractions=(0.01, 0.02, 0.05),
        toroid_fn=_toroid_plain,
    )
)

TOROID_SHUFFLE = _register(
    Preset(
        name="toroid-shuffle",
        description="toroid workload with follower delays pair-swapped every 50 slots",
        local_fraction=0.05,
        capacity_fractions=(0.01, 0.02, 0.05),
        toroid_fn=_toroid_shuffled,
    )
)

TOROID_SWITCH = _register(
    Preset(
        name="toroid-switch",
        description=(
            "toroid workload where followers re-pick their leader every 50 "
            "slots with probabilities 0.5/0.3/0.2"
        ),
        local_fraction=0.05,
        capacity_fractions=(0.01, 0.02, 0.05),
        toroid_fn=_toroid_switching,
    )
)

TOROID_VERSIONED = _register(
    Preset(
        name="toroid-versioned",
        description=(
            "toroid workload with distance-tier versions (sizes 1.0/0.5/0.1) "
            "and newly-visible-only requests"
        ),
        local_fraction=0.05,
        capacity_fractions=(0.01, 0.02, 0.05),
        toroid_fn=_toroid_tiered,
    )
)


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise PresetError(
            f"unknown preset {name!r}; available presets: {', '.join(preset_names())}"
        ) from None
