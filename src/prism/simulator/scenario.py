"""Scenario configuration and synthetic identity/message grammars.

Every identifier the cohort generator can produce is drawn from the
grammars the default redaction rules cover, which is what makes the
redaction-completeness property checkable: a clean pipeline must audit
to a zero leak rate on generated traffic.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import ValidationError
from ..features import ACTION_TYPES, GOAL_CATEGORIES
from ..records import Record
from ..redaction import DEFAULT_FIRST_NAMES, DEFAULT_LAST_NAMES

STREET_NAMES = ("Maple", "Cedar", "Willow", "Birchwood", "Juniper", "Hawthorn", "Alder", "Poplar")
STREET_SUFFIXES = ("Street", "Avenue", "Road", "Lane", "Drive", "Court")

POLICY_STATIC = "static"
POLICY_ADAPTIVE = "adaptive"
POLICIES = (POLICY_STATIC, POLICY_ADAPTIVE)
# A run keeps arrays of n_users * horizon_weeks rows (43 bytes a
# user-week) and a float per user-week in its report, so this bound keeps
# a valid scenario near a gigabyte instead of failing to allocate.
MAX_USER_WEEKS = 10**7
# A run builds a Python object and a roster row per group and per coach,
# about 1.5 kB a group with its feature tables, and every decision reads
# every group row; this bound keeps that state near 150 MB.
MAX_GROUPS_OR_COACHES = 10**5


@dataclass(frozen=True)
class Scenario(Record):
    """Complete, reproducible description of one simulated cohort run."""

    name: str = "default"
    seed: int = 0
    policy: str = POLICY_ADAPTIVE
    n_users: int = 120
    n_groups: int = 8
    n_coaches: int = 2
    capacity_min: int = 18
    capacity_max: int = 26
    coach_load_factor: float = 0.95
    goal_weights: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    misgroup_fraction: float = 0.3
    horizon_weeks: int = 19
    w_pre: int = 8
    w_post: int = 11
    # Behavior model; baseline propensity sits on the logistic slope so
    # uplifts are visible rather than saturated.
    base_logit_mean: float = -0.5
    base_logit_sd: float = 0.5
    match_uplift: float = 1.0
    activity_uplift: float = 0.0
    engagement_match_bonus: float = 0.5
    fatigue_mean: float = 0.01
    noise_sd: float = 0.3
    engagement_rate_means: tuple[float, ...] = (2.0, 3.0, 5.0, 4.0, 1.0)
    activity_threshold: float = 0.0
    # Messaging and assistant workflow
    message_prob: float = 0.25
    review_approve_prob: float = 0.75
    review_edit_prob: float = 0.10
    review_discard_prob: float = 0.10
    analyst_probes_per_week: int = 1
    # Weight trajectory
    weight_start_mean: float = 86.0
    weight_start_sd: float = 12.0
    weight_drift_per_adherent_week: float = 0.18
    weight_noise_sd: float = 0.05

    def __post_init__(self) -> None:
        self.check_fields()
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        if self.policy not in POLICIES:
            raise ValidationError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.w_pre < 1 or self.w_post < 1:
            raise ValidationError("pre and post windows must each cover at least one week")
        if self.horizon_weeks < self.w_pre + self.w_post:
            raise ValidationError("horizon must cover the pre and post windows")
        if self.n_users < 1 or self.n_groups < 1 or self.n_coaches < 1:
            raise ValidationError("scenario needs at least one user, group, and coach")
        if self.n_users * self.horizon_weeks > MAX_USER_WEEKS:
            raise ValidationError(
                f"n_users * horizon_weeks must be at most {MAX_USER_WEEKS}, "
                f"got {self.n_users * self.horizon_weeks}"
            )
        if max(self.n_groups, self.n_coaches) > MAX_GROUPS_OR_COACHES:
            raise ValidationError(
                f"n_groups and n_coaches must each be at most {MAX_GROUPS_OR_COACHES}"
            )
        if not (1 <= self.capacity_min <= self.capacity_max):
            raise ValidationError("capacity bounds must satisfy 1 <= min <= max")
        if len(self.goal_weights) != len(GOAL_CATEGORIES):
            raise ValidationError("goal_weights must cover every goal category")
        if abs(sum(self.goal_weights) - 1.0) > 1e-9 or any(w < 0 for w in self.goal_weights):
            raise ValidationError("goal_weights must be a probability vector")
        if not (0.0 <= self.misgroup_fraction <= 1.0):
            raise ValidationError("misgroup_fraction must lie in [0, 1]")
        if len(self.engagement_rate_means) != len(ACTION_TYPES):
            raise ValidationError("engagement_rate_means must cover every action type")
        review_total = self.review_approve_prob + self.review_edit_prob + self.review_discard_prob
        if review_total > 1.0 + 1e-9 or min(
            self.review_approve_prob, self.review_edit_prob, self.review_discard_prob
        ) < 0:
            raise ValidationError("review probabilities must be non-negative and sum to <= 1")
        if not (0 < self.coach_load_factor <= 1.0):
            raise ValidationError("coach_load_factor must lie in (0, 1]")
        if not (0.0 <= self.message_prob <= 1.0):
            raise ValidationError("message_prob must lie in [0, 1]")
        if self.analyst_probes_per_week < 0:
            raise ValidationError("analyst_probes_per_week must be non-negative")
        # A goal-matched user's Poisson rates are scaled by 1 + this bonus.
        if self.engagement_match_bonus < -1.0:
            raise ValidationError("engagement_match_bonus must be at least -1")
        # A user's fatigue rate is fatigue_mean times a uniform draw from
        # [0.5, 1.5), and step_week subtracts rate * epoch from the check-in
        # logit for every epoch below horizon_weeks. So |rate * epoch| stays
        # under 1.5 * |fatigue_mean| * horizon_weeks, which this bound keeps
        # at most the largest float: the fatigue term never overflows.
        if abs(self.fatigue_mean) > sys.float_info.max / (1.5 * self.horizon_weeks):
            raise ValidationError(
                "fatigue_mean must be at most float max / (1.5 * horizon_weeks) in magnitude"
            )

    @classmethod
    def from_json_file(cls, path: str) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
        return cls.from_dict(doc)


# ---------------------------------------------------------------------------
# Synthetic identity generation
# ---------------------------------------------------------------------------


def synth_identity(rng: np.random.Generator, index: int) -> dict[str, str]:
    """One registration payload; every field matches a redaction-covered grammar."""
    first = DEFAULT_FIRST_NAMES[int(rng.integers(len(DEFAULT_FIRST_NAMES)))]
    last = DEFAULT_LAST_NAMES[int(rng.integers(len(DEFAULT_LAST_NAMES)))]
    phone = f"613-555-{int(rng.integers(10000)):04d}"
    dob = (
        f"{int(rng.integers(1960, 2001))}-"
        f"{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
    )
    street_no = int(rng.integers(10, 900))
    street = STREET_NAMES[int(rng.integers(len(STREET_NAMES)))]
    suffix = STREET_SUFFIXES[int(rng.integers(len(STREET_SUFFIXES)))]
    return {
        "full_name": f"{first} {last}",
        "first_name": first,
        "last_name": last,
        "email": f"{first}.{last}{index}@example-mail.test".lower(),
        "phone": phone,
        "dob": dob,
        "address": f"{street_no} {street} {suffix}",
    }


# ---------------------------------------------------------------------------
# Synthetic message grammar
# ---------------------------------------------------------------------------

N_MESSAGE_VARIANTS = 10


def synth_message(
    variant: int, identity: Mapping[str, str], aux_id: int, lat_frac: int, lon_frac: int
) -> str:
    """Free-text post for one user; some variants self-disclose identifiers."""
    first = identity["first_name"]
    last = identity["last_name"]
    if variant == 0:
        return "solid week everyone, three workouts done and meals logged"
    if variant == 1:
        return "hit my step goal twice this week, feeling good about the plan"
    if variant == 2:
        return f"hi all, I'm {first}, glad to join this group"
    if variant == 3:
        return f"ping me at {identity['email']} if you want a walking buddy"
    if variant == 4:
        return f"text me at {identity['phone']} about saturday's session"
    if variant == 5:
        return f"pickup for the recipe swap is at {identity['address']}"
    if variant == 6:
        return f"born {identity['dob']} so this is my milestone year"
    if variant == 7:
        return f"support asked me to quote member id {aux_id:08d} in the thread"
    if variant == 8:
        return f"meet at 45.{lat_frac:04d}, -75.{lon_frac:04d} by the trailhead for the run"
    return f"thanks {first} {last} for the tips this week - {first}"
