import numpy as np
import pytest

from prism.assignment import REASONS_OF_CODE
from prism.features import ACTION_TYPES, DAYS_PER_WEEK, UserEvents
from prism.vault import ENC_KEY_ENV, TOKEN_KEY_ENV, KeyRing, UserToken

TOKEN_KEY_HEX = "11" * 32
ENC_KEY_HEX = "22" * 32

# One line per acceptance criterion, printed after the run summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def keys() -> KeyRing:
    return KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX)


@pytest.fixture
def keys_env(monkeypatch) -> KeyRing:
    monkeypatch.setenv(TOKEN_KEY_ENV, TOKEN_KEY_HEX)
    monkeypatch.setenv(ENC_KEY_ENV, ENC_KEY_HEX)
    return KeyRing.from_hex(TOKEN_KEY_HEX, ENC_KEY_HEX)


@pytest.fixture
def any_token() -> UserToken:
    return UserToken("ab" * 32)


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def empty_events(horizon_weeks: int) -> UserEvents:
    """The event history of a user with no events over ``horizon_weeks``."""
    return UserEvents(
        checkins=np.zeros(horizon_weeks * DAYS_PER_WEEK, dtype=np.int8),
        action_counts=np.zeros((horizon_weeks, len(ACTION_TYPES)), dtype=np.int32),
        weights_kg=np.full(horizon_weeks, np.nan),
        first_day=-1,
    )


def solve_theta(model) -> np.ndarray:
    """A bandit model's coefficients from a direct solve of A theta = b."""
    return np.linalg.solve(model.A, model.b)


def registered_identity_strings(world) -> set[str]:
    """Raw and normalized identity values of a simulated cohort, for
    output-separation scans."""
    values: set[str] = set()
    for identity in world._raw_identities.values():
        for key, value in identity.items():
            values.add(value)
            if key in ("email", "full_name", "first_name", "last_name"):
                values.add(value.lower())
            if key == "phone":
                values.add("".join(ch for ch in value if ch.isdigit()))
    return values


def trace_dict(decision) -> dict:
    """A decision's rationale trace as a dict with one entry per group: the
    reference that each trace line must equal as
    ``json.dumps(trace_dict(decision), sort_keys=True)``."""
    scores = decision.scores
    scored = iter(zip(*(a.tolist() for a in scores)) if scores is not None else ())
    candidates = []
    for group_id, code in zip(decision.group_ids, decision.reason_codes.tolist()):
        mu, sigma, penalty, score = next(scored) if code == 0 else (None,) * 4
        candidates.append({
            "group": group_id,
            "mu": mu,
            "sigma": sigma,
            "penalty": penalty,
            "score": score,
            "feasible": code == 0,
            "reasons": list(REASONS_OF_CODE[code]),
        })
    return {
        "candidates": candidates,
        "epoch": decision.epoch,
        "user_token": decision.user_token,
        "chosen": decision.chosen,
        "changed": decision.changed,
    }
