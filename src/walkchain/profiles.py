"""Calibrated pedestrian walking profiles and distance/time arithmetic.

A profile is a pace model: a fixed stride length and a fixed time per stride.
The built-in "normal" walker covers one 0.58 m step per second; the built-in
"blind" walker takes 2.7 s per step of the same length, a 2.7x slowdown
measured for cane-assisted walking on familiar outdoor routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from .mapgraph import _document, _get_number

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


def _times(profile: WalkingProfile, distance, mode: str):
    """``distance`` (a float or a float64 array) walked at the profile's pace in ``mode``."""
    if mode == MODE_PAPER_ROUNDED and profile.rounded_pace is not None:
        return profile.rounded_pace * distance
    return distance / profile.speed


def travel_time(profile: WalkingProfile, distance: float, mode: str = MODE_EXACT) -> float:
    """Seconds to walk ``distance`` meters at the profile's pace.

    exact mode uses the true pace step_period / step_length. paper_rounded
    mode substitutes the profile's coarse two-decimal pace when it has one
    (the blind built-in publishes 4.66 s/m), and falls back to exact otherwise.
    """
    _check_mode(mode)
    if not (math.isfinite(distance) and distance >= 0):
        raise ValueError(f"distance must be finite and >= 0, got {distance!r}")
    time = _times(profile, distance, mode)
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


class DistanceError(ValueError):
    """A distance that :func:`comparison_table` rejects, with its index in the input as ``row``."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class ComparisonTable(Sequence[ComparisonRow]):
    """Normal-vs-blind walking times as three read-only float64 columns.

    Built by :func:`comparison_table`. Indexing and iterating give
    :class:`ComparisonRow` values, so the table reads like a list of rows.
    """

    distance: np.ndarray
    normal_time: np.ndarray
    blind_time: np.ndarray

    def __len__(self) -> int:
        return len(self.distance)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self)[k]
        return ComparisonRow(float(self.distance[k]), float(self.normal_time[k]),
                             float(self.blind_time[k]))

    def __iter__(self) -> Iterator[ComparisonRow]:
        return map(ComparisonRow, self.distance.tolist(), self.normal_time.tolist(),
                   self.blind_time.tolist())


def comparison_table(distances: Sequence[float], mode: str = MODE_EXACT) -> ComparisonTable:
    """Normal-vs-blind walking times over the given segment lengths.

    Each time is the one :func:`travel_time` gives, bit for bit. A distance
    that :func:`travel_time` or :class:`ComparisonRow` would reject raises
    their message as a :class:`DistanceError` naming the first such row.
    """
    _check_mode(mode)
    normal, blind = builtin_profiles()
    d = np.array(distances, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError(f"distances must be a flat sequence of numbers, got shape {d.shape}")
    if d.size:
        # a time grows with its distance, so none overflows (or warns) unless the largest
        # distance's does; a nan fails the first test
        hi = float(d.max())
        if not (d.min() >= 0 and math.isfinite(_times(normal, hi, mode))
                and math.isfinite(_times(blind, hi, mode))):
            _raise_first_bad_row(d, mode)
    normal_t, blind_t = _times(normal, d, mode), _times(blind, d, mode)
    if not (blind_t >= normal_t).all():
        _raise_first_bad_row(d, mode)
    for column in (d, normal_t, blind_t):
        column.flags.writeable = False
    return ComparisonTable(d, normal_t, blind_t)


def _raise_first_bad_row(d: np.ndarray, mode: str) -> None:
    """Raise, as a DistanceError, what the row-by-row checks raise for the first row they reject."""
    normal, blind = builtin_profiles()
    for k, v in enumerate(d.tolist()):
        try:
            ComparisonRow(v, travel_time(normal, v, mode), travel_time(blind, v, mode))
        except ValueError as exc:
            raise DistanceError(k, str(exc)) from None


def table_to_csv(rows: Sequence[ComparisonRow]) -> str:
    """The table as CSV, each value written as its ``repr``."""
    if isinstance(rows, ComparisonTable):
        cells = zip(rows.distance.tolist(), rows.normal_time.tolist(), rows.blind_time.tolist())
    else:
        cells = map(attrgetter("distance", "normal_time", "blind_time"), rows)
    lines = ["distance_m,normal_time_s,blind_time_s"]
    lines += [f"{d!r},{n!r},{b!r}" for d, n, b in cells]
    return "\n".join(lines) + "\n"


def load_profile(text: str) -> WalkingProfile:
    """Parse a profile config document: {"name", "step_length_m", "step_period_s"}."""
    doc = _document(text, "profile config", ValueError)
    if not isinstance(doc, dict):
        raise ValueError("profile config: top level must be an object")
    for key in ("name", "step_length_m", "step_period_s"):
        if key not in doc:
            raise ValueError(f"profile config: missing field {key!r}")
    return WalkingProfile(
        name=str(doc["name"]),
        step_length=_get_number(doc, "profile config", "step_length_m", ValueError),
        step_period=_get_number(doc, "profile config", "step_period_s", ValueError),
    )
