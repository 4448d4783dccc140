"""End-to-end experiment: paired static vs adaptive arms on one seed, with
the full privacy pipeline (vault, redaction, drafts, review, audit) engaged.

Run:  python demos/05_static_vs_adaptive.py
"""

import os

os.environ.setdefault("PRISM_TOKEN_KEY", "5c" * 32)   # demo-only keys
os.environ.setdefault("PRISM_ENC_KEY", "9e" * 32)

from prism.simulator import Scenario, compare_arms, run_paired
from prism.vault import KeyRing

keys = KeyRing.from_env()

# 30% of users start in a goal-mismatched group; goal match carries a
# one-logit check-in uplift the adaptive policy has to discover and exploit
# under capacity, coach-load, and dwell constraints.
scenario = Scenario(
    name="demo",
    seed=2,
    n_users=200,
    n_groups=12,
    n_coaches=3,
    capacity_min=20,
    capacity_max=28,
    horizon_weeks=19,
    w_pre=8,
    w_post=11,
    match_uplift=1.0,
    misgroup_fraction=0.3,
)

static, adaptive = run_paired(scenario, keys)

print("side-by-side comparison")
print("-" * 50)
print(compare_arms(static, adaptive).render_text())

gov = adaptive.governance
print("\ngovernance:", gov["restoration_attempts"], "restoration attempts,",
      gov["audit_entries"], "audit entries,",
      f"analyst denials {gov['analyst_denials']}/{gov['analyst_attempts']},",
      "chain ok" if gov["audit_chain_ok"] else "CHAIN BROKEN")
a = adaptive.assistant
print("assistant :", a["drafts"], "drafts ->",
      a["approved"], "approved,", a["edited"], "edited,",
      a["discarded"], "discarded,", a["pending"], "pending;",
      a["delivered"], "delivered (leak rate", a["delivered_leak_rate"], ")")
