"""Calibrated pedestrian walking profiles and distance/time arithmetic.

A profile is a pace model: a fixed stride length and a fixed time per stride.
The built-in "normal" walker covers one 0.58 m step per second; the built-in
"blind" walker takes 2.7 s per step of the same length, a 2.7x slowdown
measured for cane-assisted walking on familiar outdoor routes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

MODE_EXACT = "exact"
MODE_PAPER_ROUNDED = "paper_rounded"
MODES = (MODE_EXACT, MODE_PAPER_ROUNDED)

#: segment lengths (meters) of the campus walking survey used for calibration
SURVEY_DISTANCES_M: tuple[float, ...] = (
    0.0, 26.1, 18.56, 30.7, 22.6, 31.9, 29.0, 38.86, 42.34, 15.66, 16.82,
    28.42, 46.44, 69.02, 17.4, 34.8, 20.88, 86.42, 22.04, 25.52, 10.44,
    40.6, 69.6, 9.28, 9.28, 26.68, 40.6, 26.15, 32.48,
)


@dataclass(frozen=True)
class WalkingProfile:
    """Constant-pace walker model.

    ``rounded_pace`` optionally carries a coarse published pace in seconds per
    meter (two decimals); :func:`travel_time` uses it in paper_rounded mode so
    tabulated timings can be reproduced digit-for-digit.
    """

    name: str
    step_length: float  # meters per step
    step_period: float  # seconds per step
    rounded_pace: float | None = None  # seconds per meter, coarse

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("profile name must be non-empty")
        for field_name in ("step_length", "step_period"):
            val = getattr(self, field_name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{field_name} must be finite and > 0, got {val!r}")
        if not (0 < self.speed < math.inf and 0 < self.pace < math.inf):
            raise ValueError(f"step_length {self.step_length!r} and step_period "
                             f"{self.step_period!r} give a speed of {self.speed!r} m/s and a pace "
                             f"of {self.pace!r} s/m; both must be finite and > 0")
        if self.rounded_pace is not None and not (math.isfinite(self.rounded_pace) and self.rounded_pace > 0):
            raise ValueError(f"rounded_pace must be finite and > 0, got {self.rounded_pace!r}")

    @property
    def speed(self) -> float:
        """Meters per second."""
        return self.step_length / self.step_period

    @property
    def pace(self) -> float:
        """Seconds per meter."""
        return self.step_period / self.step_length


NORMAL = WalkingProfile("normal", step_length=0.58, step_period=1.0)
BLIND = WalkingProfile("blind", step_length=0.58, step_period=2.7, rounded_pace=4.66)


def builtin_profiles() -> tuple[WalkingProfile, WalkingProfile]:
    return (NORMAL, BLIND)


def get_profile(name: str) -> WalkingProfile:
    for p in builtin_profiles():
        if p.name == name:
            return p
    raise ValueError(f"unknown profile {name!r}; built-ins are 'normal' and 'blind'")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def travel_time(profile: WalkingProfile, distance: float, mode: str = MODE_EXACT) -> float:
    """Seconds to walk ``distance`` meters at the profile's pace.

    exact mode uses the true pace step_period / step_length. paper_rounded
    mode substitutes the profile's coarse two-decimal pace when it has one
    (the blind built-in publishes 4.66 s/m), and falls back to exact otherwise.
    """
    _check_mode(mode)
    if not (math.isfinite(distance) and distance >= 0):
        raise ValueError(f"distance must be finite and >= 0, got {distance!r}")
    if mode == MODE_PAPER_ROUNDED and profile.rounded_pace is not None:
        time = profile.rounded_pace * distance
    else:
        time = distance / profile.speed
    if math.isinf(time):
        raise ValueError(f"travel time over {distance!r} m overflows")
    return time


def distance_of_steps(profile: WalkingProfile, steps: float) -> float:
    """Meters covered by ``steps`` strides."""
    if not (math.isfinite(steps) and steps >= 0):
        raise ValueError(f"steps must be finite and >= 0, got {steps!r}")
    return steps * profile.step_length


def steps_for_distance(profile: WalkingProfile, distance: float) -> int:
    """Whole strides nearest to ``distance``; halves round to even."""
    if not (math.isfinite(distance) and distance >= 0):
        raise ValueError(f"distance must be finite and >= 0, got {distance!r}")
    return round(distance / profile.step_length)


@dataclass(frozen=True)
class ComparisonRow:
    distance: float
    normal_time: float
    blind_time: float

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError(f"distance must be >= 0, got {self.distance!r}")
        # a slower pace can never beat a faster one over the same segment
        if self.distance > 0 and self.blind_time < self.normal_time:
            raise ValueError(
                f"blind time {self.blind_time} below normal time {self.normal_time} over {self.distance} m"
            )


def comparison_table(distances: Sequence[float], mode: str = MODE_EXACT) -> list[ComparisonRow]:
    """Normal-vs-blind walking times over the given segment lengths."""
    _check_mode(mode)
    normal, blind = builtin_profiles()
    return [
        ComparisonRow(
            distance=float(d),
            normal_time=travel_time(normal, float(d), mode),
            blind_time=travel_time(blind, float(d), mode),
        )
        for d in distances
    ]


def table_to_csv(rows: Sequence[ComparisonRow]) -> str:
    lines = ["distance_m,normal_time_s,blind_time_s"]
    lines += [f"{r.distance!r},{r.normal_time!r},{r.blind_time!r}" for r in rows]
    return "\n".join(lines) + "\n"


def load_profile(text: str) -> WalkingProfile:
    """Parse a profile config document: {"name", "step_length_m", "step_period_s"}."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise ValueError(f"profile config: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError("profile config: top level must be an object")
    for key in ("name", "step_length_m", "step_period_s"):
        if key not in doc:
            raise ValueError(f"profile config: missing field {key!r}")

    def number(key: str) -> float:
        try:
            return float(doc[key])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"profile config: {key} must be a number, got {doc[key]!r}") from None

    return WalkingProfile(
        name=str(doc["name"]),
        step_length=number("step_length_m"),
        step_period=number("step_period_s"),
    )
