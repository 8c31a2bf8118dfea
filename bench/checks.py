"""Output checks.  Each one compares a round's outputs with values computed
apart from the program (closed forms, not FFTs), or with a property
the method must have.

Every check returns a list of ``(path_index, message)`` failures; an empty
list is a pass.  ``path_index`` is None for a failure of the ensemble as a
whole, which no single path can be blamed for.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

#: Relative agreement of the first ``energy`` row with the closed form.  The
#: data are resolved to rounding error, so the gap is ~1e-15 on all three
#: workloads.
ENERGY_RTOL = 1e-10
#: Transformed-frame energy drift allowed over a path (acceptance test 02).
DRIFT_TOL = 1e-6
#: A lone re-run must reproduce the ensemble's last row to this relative size.
RERUN_RTOL = 1e-12
#: Width, in standard errors, of every statistical check.
N_SE = 3.0
#: Broadie-Glasserman-Kou shift for a barrier watched at discrete times,
#: -zeta(1/2) / sqrt(2 pi).
BGK_SHIFT = 0.5826

COLUMNS = ("t", "Hs_u", "Hs_g", "w1inf_u", "w1inf_g", "min_ux", "energy", "beta")
BLOWUP_REASONS = ("blowup-w1inf", "blowup-hs")


@dataclass
class RoundOutputs:
    """What one ``run_scenario`` call wrote: summary.csv rows, the per-path
    CSV series by path index, the manifest, and the bytes written."""

    summary: list
    paths: dict
    manifest: dict
    n_bytes: int


def read_outputs(scenario_dir) -> RoundOutputs:
    scenario_dir = Path(scenario_dir)
    with open(scenario_dir / "summary.csv", newline="") as fh:
        summary = [
            {
                "index": int(row["index"]),
                "seed": int(row["seed"]),
                "stop_reason": row["stop_reason"],
                "stop_time": float(row["stop_time"]),
            }
            for row in csv.DictReader(fh)
        ]
    paths = {}
    for f in sorted(scenario_dir.glob("path_*.csv")):
        with open(f, newline="") as fh:
            rows = list(csv.reader(fh))
        if tuple(rows[0]) != COLUMNS:
            raise ValueError(f"{f.name}: unexpected columns {rows[0]}")
        data = np.array(rows[1:], dtype=float).reshape(-1, len(COLUMNS))
        paths[int(f.stem.split("_")[1])] = {c: data[:, j] for j, c in enumerate(COLUMNS)}
    manifest = yaml.safe_load((scenario_dir / "manifest.yaml").read_text())
    n_bytes = sum(f.stat().st_size for f in scenario_dir.iterdir())
    return RoundOutputs(summary=summary, paths=paths, manifest=manifest, n_bytes=n_bytes)


def path_steps(outputs: RoundOutputs, dt: float) -> int:
    """PDE micro-steps taken by all paths: sum of round(stop_time / dt)."""
    return sum(int(round(r["stop_time"] / dt)) for r in outputs.summary)


# ---------------------------------------------------------------------------
# Closed forms.


def profile_energy(profile: dict) -> float:
    """H^1 energy int f^2 + f_x^2 dx over the real line of one initial
    profile, in closed form (the profiles decay below 1e-12 inside [-L, L))."""
    kind = profile["kind"]
    if kind == "zero":
        return 0.0
    if kind == "gaussian":
        # f = A exp(-(x - x0)^2 / w^2)
        a, w = profile["amplitude"], profile["width"]
        return a * a * math.sqrt(math.pi / 2.0) * (w + 1.0 / w)
    if kind == "breaking":
        # f = s x exp(-x^2 / w^2); with p = 2 / w^2 the moments are
        # int x^2 e^{-p x^2} = sqrt(pi) / (2 p^{3/2}) and
        # int x^4 e^{-p x^2} = 3 sqrt(pi) / (4 p^{5/2}).
        s, w = profile["slope_target"], profile["width"]
        p = 2.0 / (w * w)
        m0 = math.sqrt(math.pi / p)
        m2 = math.sqrt(math.pi) / (2.0 * p**1.5)
        m4 = 3.0 * math.sqrt(math.pi) / (4.0 * p**2.5)
        return s * s * (m2 + m0 - 4.0 / w**2 * m2 + 4.0 / w**4 * m4)
    if kind == "peakon":
        # e^{-|x|} * G_sigma has momentum 2 G_sigma, so its H^1 energy is
        # <f, 2 G_sigma> = 2 e^{sigma^2} erfc(sigma) per unit amplitude^2.
        a, sig = profile["amplitude"], profile["smoothing"]
        return a * a * 2.0 * math.exp(sig * sig) * math.erfc(sig)
    raise ValueError(f"no closed-form energy for profile kind {kind!r}")


def initial_energy(config: dict) -> float:
    return profile_energy(config["initial"]["u"]) + profile_energy(config["initial"]["gamma"])


def reflection_value(b: float, c: float, dt: float, horizon: float) -> float:
    """P{min_t b W_t >= ln c on [0, horizon]} for a driftless Brownian
    barrier watched every dt, by the reflection principle with the BGK shift.
    This is the breaking-bound event when b_sup = b^2."""
    z = (math.log(1.0 / c) + BGK_SHIFT * b * math.sqrt(dt)) / (b * math.sqrt(horizon))
    return math.erf(z / math.sqrt(2.0))  # 2 Phi(z) - 1


# ---------------------------------------------------------------------------
# Checks on every workload.


def check_initial_energy(outputs: RoundOutputs, expected: float, rtol: float = ENERGY_RTOL):
    fails = []
    for i, cols in outputs.paths.items():
        e0 = float(cols["energy"][0])
        if not abs(e0 - expected) <= rtol * abs(expected):
            fails.append((i, f"path {i}: first energy {e0!r} is not the closed form {expected!r}"))
    return fails


def check_verdict(outputs: RoundOutputs):
    verdict = outputs.manifest["verdict"]
    if verdict.get("passed") is not True:
        return [(None, f"scenario verdict is not PASS: {verdict.get('detail')}")]
    return []


def check_rerun(index: int, ensemble: dict, alone: dict, rtol: float = RERUN_RTOL):
    """A path re-run alone through run_path against the same path in the
    ensemble.  Both records hold ``stop_reason``, ``stop_time`` and ``last``,
    the last recorded row."""
    fails = []
    if alone["stop_reason"] != ensemble["stop_reason"]:
        fails.append((index, f"path {index}: alone it stops by {alone['stop_reason']}, "
                             f"in the ensemble by {ensemble['stop_reason']}"))
    if alone["stop_time"] != ensemble["stop_time"]:
        fails.append((index, f"path {index}: alone it stops at {alone['stop_time']!r}, "
                             f"in the ensemble at {ensemble['stop_time']!r}"))
    a = np.asarray(alone["last"], dtype=float)
    e = np.asarray(ensemble["last"], dtype=float)
    both_nan = np.isnan(a) & np.isnan(e)
    close = np.abs(a - e) <= rtol * np.maximum(np.abs(a), np.abs(e))
    if a.shape != e.shape or not np.all(both_nan | close):
        fails.append((index, f"path {index}: last row alone {a.tolist()} differs from {e.tolist()}"))
    return fails


# ---------------------------------------------------------------------------
# breaking-em.


def check_threshold_on_stop_row(outputs: RoundOutputs, threshold: float):
    """The W^{1,inf} stop threshold is crossed on the stop row of a path that
    blew up through it, and on no other row."""
    reasons = {r["index"]: r["stop_reason"] for r in outputs.summary}
    fails = []
    for i, cols in outputs.paths.items():
        crossed = np.nonzero(cols["w1inf_u"] + cols["w1inf_g"] >= threshold)[0]
        want = [len(cols["t"]) - 1] if reasons.get(i) == "blowup-w1inf" else []
        if crossed.tolist() != want:
            fails.append((i, f"path {i} ({reasons.get(i)}): threshold {threshold} crossed on "
                             f"rows {crossed.tolist()}, expected {want}"))
    return fails


def check_blowup_fraction(outputs: RoundOutputs, n_se: float = N_SE):
    """The blow-up fraction, recounted from summary.csv, reaches the
    manifest's barrier bound within n_se standard errors."""
    n = len(outputs.summary)
    p = sum(r["stop_reason"] in BLOWUP_REASONS for r in outputs.summary) / n
    se = math.sqrt(p * (1.0 - p) / n)
    bound = float(outputs.manifest["verdict"]["bound"])
    if p + n_se * se < bound:
        return [(None, f"blow-up fraction {p:.4f} + {n_se:g} SE ({n_se * se:.4f}) "
                       f"is below the barrier bound {bound:.4f}")]
    return []


def check_barrier(bounds, n_mc: int, b: float, c: float, dt: float, horizon: float,
                  n_se: float = N_SE):
    """The barrier Monte Carlo values of a run's rounds, pooled, lie within
    n_se standard errors of the reflection-principle value."""
    ref = reflection_value(b, c, dt, horizon)
    pooled = float(np.mean(bounds))
    se = math.sqrt(ref * (1.0 - ref) / (n_mc * len(bounds)))
    if abs(pooled - ref) > n_se * se:
        return [(None, f"barrier MC {pooled:.5f} over {len(bounds)} rounds is not within "
                       f"{n_se:g} SE ({n_se * se:.5f}) of the reflection value {ref:.5f}")]
    return []


# ---------------------------------------------------------------------------
# strong-noise-milstein.


def check_completed(outputs: RoundOutputs, horizon: float):
    """Every path reaches the horizon, and every written row is finite
    (beta is NaN by design for nonlinear noise)."""
    fails = []
    for r in outputs.summary:
        if r["stop_reason"] != "completed" or r["stop_time"] != horizon:
            fails.append((r["index"], f"path {r['index']}: stopped by {r['stop_reason']} "
                                      f"at t = {r['stop_time']!r}, not at the horizon {horizon!r}"))
    for i, cols in outputs.paths.items():
        if not all(np.all(np.isfinite(cols[c])) for c in COLUMNS if c != "beta"):
            fails.append((i, f"path {i}: a written row is not finite"))
    return fails


# ---------------------------------------------------------------------------
# particles-rk4.


def check_signs_positive(signatures: dict):
    """Momentum 2 G_sigma > 0 everywhere, and its sign is carried along
    characteristics: every particle's sign is +1 at every sample.
    ``signatures`` maps a path index to its (samples, particles) array."""
    fails = []
    for i, sig in signatures.items():
        sig = np.asarray(sig)
        if sig.size == 0 or not np.all(sig == 1):
            bad = int(np.sum(sig != 1))
            fails.append((i, f"path {i}: {bad} particle samples have a sign other than +1"))
    return fails


def check_energy_drift(outputs: RoundOutputs, tol: float = DRIFT_TOL):
    fails = []
    for i, cols in outputs.paths.items():
        e = cols["energy"]
        drift = float(np.max(np.abs(e / e[0] - 1.0)))
        if not drift < tol:
            fails.append((i, f"path {i}: transformed energy drifts by {drift:.3e} (tolerance {tol:g})"))
    return fails
