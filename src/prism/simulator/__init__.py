"""Synthetic behavioral cohort simulator and static-vs-adaptive comparison."""

from .experiment import (
    ComparisonTable,
    RunManifest,
    TraceLegend,
    compare_arms,
    run_experiment,
    run_paired,
)
from .scenario import POLICIES, POLICY_ADAPTIVE, POLICY_STATIC, Scenario
from .world import (
    SimClock,
    World,
    generate_cohort,
    group_activity_flags,
    poisson_from_uniform,
    sigmoid,
    step_messages,
    step_week,
    substream,
)

__all__ = [
    "ComparisonTable",
    "POLICIES",
    "POLICY_ADAPTIVE",
    "POLICY_STATIC",
    "RunManifest",
    "Scenario",
    "SimClock",
    "TraceLegend",
    "World",
    "compare_arms",
    "generate_cohort",
    "group_activity_flags",
    "poisson_from_uniform",
    "run_experiment",
    "run_paired",
    "sigmoid",
    "step_messages",
    "step_week",
    "substream",
]
