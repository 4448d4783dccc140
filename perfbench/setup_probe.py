"""Set-up as a user pays it: import prism, load keys, build the first cohort.

Usage: python3 setup_probe.py SCENARIO_JSON KEYS_JSON SEED, with ``src``
on PYTHONPATH. Prints ``ready BUSY_S FACTOR`` once the cohort is built:
the caller times process start to that line, and BUSY_S and FACTOR are
the host-speed kernel's time and factor over the set-up (see
``hostspeed.py``).
"""

import sys

import hostspeed

if __name__ == "__main__":
    scenario_path, keys_path, seed = sys.argv[1:]
    with hostspeed.Sampler() as sampler:
        import prism.cli  # noqa: F401  - the import a `prism` invocation pays
        from prism.simulator import Scenario, generate_cohort
        from prism.vault import KeyRing

        keys = KeyRing.from_config(keys_path)
        doc = Scenario.from_json_file(scenario_path).to_dict()
        generate_cohort(Scenario.from_dict({**doc, "seed": int(seed)}), keys)
    print(f"ready {sampler.busy_s!r} {sampler.factor!r}", flush=True)
