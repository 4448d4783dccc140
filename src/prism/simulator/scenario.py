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
# numpy's Generator draws a standard normal by the ziggurat method. Its
# largest draws come from the tail, r + ln(1/u) / r with r = 3.654... and a
# uniform u of at least 2**-53, so no draw exceeds 13.8 in magnitude; the
# behaviour bounds below take 16.
NORMAL_DRAW_MAX = 16.0
# The largest weekly Poisson rate a user may have. exp(-700) is still a
# normal float, so the inverse-CDF draw (``poisson_from_uniform``) starts at
# full precision. Its float sum of the pmf stops growing by step 927 at this
# rate, below the draw's cap of 1000 steps, and a uniform above that sum is
# drawn where it stops, so no accepted rate reaches the cap.
POISSON_RATE_MAX = 700.0


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
        # A Poisson rate at or below 0 draws nothing (exp(-rate) >= 1), so a
        # cohort without a positive rate could never engage.
        if min(self.engagement_rate_means) < 0 or max(self.engagement_rate_means) <= 0:
            raise ValidationError(
                "engagement_rate_means must be non-negative with at least one positive rate"
            )
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
        # The mean rate of a goal-matched user must lie within the Poisson
        # draw's limit; the cohort also checks each user's drawn rates.
        if max(self.engagement_rate_means) * max(1.0, 1.0 + self.engagement_match_bonus) > (
            POISSON_RATE_MAX
        ):
            raise ValidationError(
                f"engagement_rate_means times 1 + engagement_match_bonus must be at most "
                f"{POISSON_RATE_MAX:g}"
            )
        # step_week's check-in logit is base_logit + match_uplift * match +
        # activity_uplift * active - fatigue_rate * epoch + noise, summed left
        # to right, with match and active in {0, 1}, epoch below horizon_weeks
        # and, for draws z of magnitude at most NORMAL_DRAW_MAX:
        # base_logit = base_logit_mean + base_logit_sd * z, fatigue_rate =
        # fatigue_mean times a uniform draw from [0.5, 1.5), and noise =
        # noise_sd * z. Each term's magnitude is at most the matching term
        # below, and rounding is monotone, so each partial sum of the logit
        # is at most the matching partial sum of this bound: while it is at
        # most the largest float, no week's logit overflows.
        logit_bound = (
            abs(self.base_logit_mean)
            + NORMAL_DRAW_MAX * abs(self.base_logit_sd)
            + abs(self.match_uplift)
            + abs(self.activity_uplift)
            + 1.5 * abs(self.fatigue_mean) * (self.horizon_weeks - 1)
            + NORMAL_DRAW_MAX * abs(self.noise_sd)
        )
        if not logit_bound <= sys.float_info.max:
            raise ValidationError(
                "base_logit_mean, base_logit_sd, match_uplift, activity_uplift, fatigue_mean "
                "and noise_sd can overflow the check-in logit"
            )
        # A weight starts at weight_start_mean + weight_start_sd * z and each
        # week moves by at most weight_drift_per_adherent_week (adherence lies
        # in [0, 1]) plus weight_noise_sd * z, so every weight is at most
        # weight_bound in magnitude, the report's weight delta at most twice
        # that, and the sum of n_users deltas behind its mean at most
        # 2 * n_users * weight_bound. The bound asks for twice that room,
        # which covers the rounding of the weekly sums.
        weekly_move = abs(self.weight_drift_per_adherent_week) + NORMAL_DRAW_MAX * abs(
            self.weight_noise_sd
        )
        weight_bound = (
            abs(self.weight_start_mean)
            + NORMAL_DRAW_MAX * abs(self.weight_start_sd)
            + self.horizon_weeks * weekly_move
        )
        if not 4 * self.n_users * weight_bound <= sys.float_info.max:
            raise ValidationError(
                "weight_start_mean, weight_start_sd, weight_drift_per_adherent_week and "
                "weight_noise_sd can overflow the weight trajectory"
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


# Per field, the integer range of its draw: first and last name, phone
# line, birth year, month and day, street number, street name and suffix.
_IDENTITY_LOWS = (0, 0, 0, 1960, 1, 1, 10, 0, 0)
_IDENTITY_HIGHS = (
    len(DEFAULT_FIRST_NAMES), len(DEFAULT_LAST_NAMES), 10000, 2001, 13, 29, 900,
    len(STREET_NAMES), len(STREET_SUFFIXES),
)


def synth_identities(rng: np.random.Generator, n: int) -> list[dict[str, str]]:
    """The registration payloads of rows 0 to ``n - 1``; every field matches
    a redaction-covered grammar, and row ``i``'s email carries ``i``.

    The nine integers of all ``n`` rows come from one ``(n, 9)``
    ``integers`` call, which draws them row by row, in field order, exactly
    as ``9 * n`` scalar calls would."""
    draws = rng.integers(_IDENTITY_LOWS, _IDENTITY_HIGHS, size=(n, len(_IDENTITY_LOWS)))
    identities = []
    for index, row in enumerate(draws):
        first_i, last_i, line, year, month, day, street_no, street_i, suffix_i = row.tolist()
        first = DEFAULT_FIRST_NAMES[first_i]
        last = DEFAULT_LAST_NAMES[last_i]
        identities.append({
            "full_name": f"{first} {last}",
            "first_name": first,
            "last_name": last,
            "email": f"{first}.{last}{index}@example-mail.test".lower(),
            "phone": f"613-555-{line:04d}",
            "dob": f"{year}-{month:02d}-{day:02d}",
            "address": f"{street_no} {STREET_NAMES[street_i]} {STREET_SUFFIXES[suffix_i]}",
        })
    return identities


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
