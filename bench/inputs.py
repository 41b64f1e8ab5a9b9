"""Registry-shaped two-arm CSV for the analyze workloads.

Built with plain numpy from the workload seed, never through
``rmtlkit.scenarios``, so a change to the simulator cannot change what
``analyze`` is measured on. Each arm has exponential cause-specific
hazards and independent exponential censoring sized for 15% censored
subjects; times are in years rounded to 3 decimals (about one day),
which gives a few thousand distinct event times per arm and heavy ties.
"""

from __future__ import annotations

import hashlib

import numpy as np

ROWS_PER_ARM = 20_000
CENSORED_SHARE = 0.15
# cause-1 and cause-2 hazards per year, control then treatment
HAZARD1 = (0.60, 0.45)
HAZARD2 = (0.25, 0.25)


def registry_arms(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(time, event) per arm; event 0 = censored, 1 = interest, 2 = competing."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    arms = []
    for h1, h2 in zip(HAZARD1, HAZARD2):
        total = h1 + h2
        censor_rate = CENSORED_SHARE / (1.0 - CENSORED_SHARE) * total
        t_event = rng.exponential(1.0 / total, ROWS_PER_ARM)
        cause = np.where(rng.random(ROWS_PER_ARM) < h1 / total, 1, 2)
        t_censor = rng.exponential(1.0 / censor_rate, ROWS_PER_ARM)
        time = np.maximum(np.round(np.minimum(t_event, t_censor), 3), 0.001)
        event = np.where(t_event <= t_censor, cause, 0)
        arms.append((time, event))
    return arms


def describe(arms) -> dict:
    """What the generated file holds, per arm."""
    out = {"rows": int(sum(t.size for t, _ in arms)), "arms": []}
    for time, event in arms:
        is_event = event != 0
        _, inverse, counts = np.unique(time, return_inverse=True, return_counts=True)
        tied = counts[inverse] > 1
        out["arms"].append({
            "rows": int(time.size),
            "distinct_event_times": int(np.unique(time[is_event]).size),
            "tie_share": float(np.mean(tied[is_event])),
            "censored_share": float(np.mean(~is_event)),
            "max_time": float(time.max()),
        })
    return out


def write_registry_csv(path, seed: int) -> dict:
    """Write the CSV for ``seed`` and return its description, including
    the file's SHA-256. Rows of the two arms are shuffled together."""
    arms = registry_arms(seed)
    time = np.concatenate([t for t, _ in arms])
    event = np.concatenate([e for _, e in arms])
    group = np.repeat([0, 1], [t.size for t, _ in arms])
    order = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(8,))).permutation(time.size)
    lines = ["time,event,group"]
    lines += [f"{t:.3f},{e},{g}" for t, e, g in zip(time[order], event[order], group[order])]
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    desc = describe(arms)
    desc["sha256"] = hashlib.sha256(data).hexdigest()
    return desc
