"""The benchmark's workloads: which scenario each round runs, on which config.

A run is a sequence of rounds.  Every round of a workload runs the same
scenario on the same config; only the ensemble's master seed changes, and it
is derived from the run's ``--seed`` and the round index, so one seed always
gives the same inputs.  Only the standard library is imported here.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    #: parse_config input without ``ensemble.master_seed`` and ``outputs.directory``
    config: dict

    def round_config(self, master_seed: int, directory: str) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["ensemble"]["master_seed"] = master_seed
        cfg["outputs"]["directory"] = directory
        return cfg


# The steep breaking profile (slope -4 at x = 0) under linear noise b = 0.5.
# About 95 % of paths cross the W^{1,inf} threshold 6 at ragged times between
# t = 0.04 and 0.5; the rest run to the horizon.  A horizon of 0.5 keeps a
# survivor worth about three breaking paths, so the work of a round varies
# little with the seed, and the barrier bound there (0.952) is still reached
# within 3 SE by 16 paths except with odds below 1e-4.
BREAKING_EM = Workload(
    name="breaking-em",
    scenario="blowup-slope",
    config={
        "grid": {"n": 512, "L": 20.0},
        "initial": {
            "u": {"kind": "breaking", "slope_target": -4.0, "c": 0.5, "b_sup": 0.25, "width": 0.6},
            "gamma": {"kind": "zero"},
        },
        "noise": {"family": "linear", "b": 0.5},
        "stepper": {"method": "euler-maruyama", "dt": 5.0e-4, "blowup_w1inf": 6.0},
        "ensemble": {"n_paths": 16, "horizon": 0.5},
        "outputs": {"stride": 10},
    },
)

# Strong state-dependent noise (theta = 1) on the same steep u, with a
# nonzero gaussian gamma so the drift takes its two-component branch.  Every
# path reaches the horizon, so every round does the same work.
STRONG_NOISE_MILSTEIN = Workload(
    name="strong-noise-milstein",
    scenario="strong-noise",
    config={
        "grid": {"n": 512, "L": 20.0},
        "initial": {
            "u": {"kind": "breaking", "slope_target": -4.0, "c": 0.5, "b_sup": 0.25, "width": 0.6},
            "gamma": {"kind": "gaussian", "amplitude": 0.5, "width": 2.0, "center": 3.0},
        },
        "noise": {"family": "nonlinear", "a": 1.0, "theta": 1.0},
        "stepper": {"method": "milstein-linear", "dt": 5.0e-4},
        "ensemble": {"n_paths": 4, "horizon": 0.5},
        "outputs": {"stride": 10},
    },
)

# Smoothed peakon (momentum 2 G_sigma > 0) in the transformed RK4 frame.  At
# n = 1024, L = 30 the scenario places 63 particles; interpolating them at
# the four RK4 stages is most of the time.  Every round does the same work.
PARTICLES_RK4 = Workload(
    name="particles-rk4",
    scenario="sign-preserve",
    config={
        "grid": {"n": 1024, "L": 30.0},
        "initial": {
            "u": {"kind": "peakon", "amplitude": 1.0, "smoothing": 0.5, "center": 0.0},
            "gamma": {"kind": "zero"},
        },
        "noise": {"family": "linear", "b": 0.5},
        "stepper": {"method": "transformed-rk4", "dt": 1.0e-3},
        "ensemble": {"n_paths": 4, "horizon": 0.05},
        "outputs": {"stride": 10},
    },
)

WORKLOADS = {w.name: w for w in (BREAKING_EM, STRONG_NOISE_MILSTEIN, PARTICLES_RK4)}


def master_seed(workload: str, seed: int, round_index: int) -> int:
    """The ensemble master seed of one round, a 48-bit hash of its inputs."""
    digest = hashlib.sha256(f"{workload}/{seed}/{round_index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")
