"""Each output check passes on real outputs and fails on a perturbed copy.

The real outputs come from one short round of each workload (fewer paths and
a shorter horizon than the benchmark's), run once per pytest session.

    python3 -m pytest bench/tests -q
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import checks
import worker
from workloads import BREAKING_EM, PARTICLES_RK4, STRONG_NOISE_MILSTEIN

smch2 = worker.import_smch2()
CAPTURE = worker.PathCapture(smch2.ensemble)


def small(workload, n_paths, horizon):
    cfg = copy.deepcopy(workload.config)
    cfg["ensemble"].update(n_paths=n_paths, horizon=horizon)
    return dataclasses.replace(workload, config=cfg)


def one_round(workload, tmp_path_factory):
    out = tmp_path_factory.mktemp(workload.name)
    cfg, config, manifest, _ = worker.run_round(smch2, workload, 2024, out)
    return {"cfg": cfg, "config": config, "outputs": checks.read_outputs(manifest.out_dir),
            "records": CAPTURE.take()}


@pytest.fixture(scope="session")
def breaking(tmp_path_factory):
    return one_round(small(BREAKING_EM, 8, 0.5), tmp_path_factory)


@pytest.fixture(scope="session")
def strong(tmp_path_factory):
    return one_round(small(STRONG_NOISE_MILSTEIN, 2, 0.05), tmp_path_factory)


@pytest.fixture(scope="session")
def particles(tmp_path_factory):
    return one_round(small(PARTICLES_RK4, 2, 0.02), tmp_path_factory)


# --- closed forms against quadrature ----------------------------------------------


def quad_energy(f, fx):
    # every profile here is below 1e-30 outside [-40, 40]
    return quad(lambda x: f(x) ** 2 + fx(x) ** 2, -40.0, 40.0, points=(0.0, 3.0),
                epsabs=1e-13, epsrel=1e-12, limit=400)[0]


def test_closed_form_energies_match_quadrature():
    a, w, c = 0.5, 2.0, 3.0
    gauss = quad_energy(lambda x: a * math.exp(-((x - c) / w) ** 2),
                        lambda x: -2 * a * (x - c) / w**2 * math.exp(-((x - c) / w) ** 2))
    assert checks.profile_energy({"kind": "gaussian", "amplitude": a, "width": w, "center": c}) == \
        pytest.approx(gauss, rel=1e-10)

    s, w = -4.0, 0.6
    brk = quad_energy(lambda x: s * x * math.exp(-(x / w) ** 2),
                      lambda x: s * (1 - 2 * x * x / w**2) * math.exp(-(x / w) ** 2))
    assert checks.profile_energy({"kind": "breaking", "slope_target": s, "width": w}) == \
        pytest.approx(brk, rel=1e-10)

    sig = 0.5
    zs = sig / math.sqrt(2)

    def pk(x, sign):
        z = x / (sig * math.sqrt(2))
        return 0.5 * math.exp(sig * sig / 2) * (
            sign * math.exp(-x) * math.erfc(zs - z) + math.exp(x) * math.erfc(zs + z))

    peak = quad_energy(lambda x: pk(x, 1.0), lambda x: pk(x, -1.0))
    assert checks.profile_energy({"kind": "peakon", "amplitude": 1.0, "smoothing": sig}) == \
        pytest.approx(peak, rel=1e-9)
    assert checks.profile_energy({"kind": "peakon", "amplitude": 1.0, "smoothing": 0.5}) == \
        pytest.approx(1.23138, abs=1e-5)


# --- all workloads ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["breaking", "strong", "particles"])
def test_initial_energy(name, request):
    rd = request.getfixturevalue(name)
    expected = checks.initial_energy(rd["cfg"])
    assert checks.check_initial_energy(rd["outputs"], expected) == []
    bad = copy.deepcopy(rd["outputs"])
    bad.paths[0]["energy"][0] *= 1.0 + 10 * checks.ENERGY_RTOL
    assert [i for i, _ in checks.check_initial_energy(bad, expected)] == [0]


def test_verdict(strong):
    assert checks.check_verdict(strong["outputs"]) == []
    bad = copy.deepcopy(strong["outputs"])
    bad.manifest["verdict"]["passed"] = False
    assert checks.check_verdict(bad)


def rerun(rd, workload, index):
    config = rd["config"]
    row = rd["outputs"].summary[index]
    grid = config.build_grid()
    u0, g0 = config.build_initial(grid)
    res = smch2.run_path(u0, g0, config.noise.make(), config.stepper_config(), row["seed"],
                         **worker.path_kwargs(smch2, workload.scenario, u0))
    cols = rd["outputs"].paths[index]
    ensemble = {"stop_reason": row["stop_reason"], "stop_time": row["stop_time"],
                "last": [float(cols[c][-1]) for c in checks.COLUMNS]}
    return ensemble, worker.path_record(res)


def test_rerun_matches_ensemble(breaking):
    ensemble, alone = rerun(breaking, BREAKING_EM, 0)
    assert checks.check_rerun(0, ensemble, alone) == []
    assert checks.check_rerun(0, ensemble, breaking["records"][alone["seed"]]) == []

    other = "completed" if ensemble["stop_reason"] != "completed" else "blowup-w1inf"
    assert checks.check_rerun(0, dict(ensemble, stop_reason=other), alone)
    assert checks.check_rerun(0, dict(ensemble, stop_time=ensemble["stop_time"] + 5e-4), alone)
    last = list(ensemble["last"])
    last[1] *= 1.0 + 1e-10
    assert checks.check_rerun(0, dict(ensemble, last=last), alone)


# --- breaking-em --------------------------------------------------------------------


def test_threshold_on_stop_row(breaking):
    out = breaking["outputs"]
    thr = breaking["cfg"]["stepper"]["blowup_w1inf"]
    assert checks.check_threshold_on_stop_row(out, thr) == []
    bad = copy.deepcopy(out)
    bad.paths[0]["w1inf_u"][0] = thr
    assert [i for i, _ in checks.check_threshold_on_stop_row(bad, thr)] == [0]


def test_blowup_fraction(breaking):
    out = breaking["outputs"]
    assert checks.check_blowup_fraction(out) == []
    bad = copy.deepcopy(out)
    for row in bad.summary:
        row["stop_reason"] = "completed"
    assert checks.check_blowup_fraction(bad)


def test_barrier_against_reflection(breaking):
    cfg = breaking["cfg"]
    args = (smch2.cli.BOUND_MC_PATHS, cfg["noise"]["b"], cfg["initial"]["u"]["c"],
            cfg["stepper"]["dt"], cfg["ensemble"]["horizon"])
    bound = float(breaking["outputs"].manifest["verdict"]["bound"])
    assert checks.check_barrier([bound], *args) == []
    ref = checks.reflection_value(*args[1:])
    se = math.sqrt(ref * (1 - ref) / args[0])
    assert checks.check_barrier([bound + 5 * se], *args)
    assert checks.check_barrier([bound - 5 * se], *args)


def test_reflection_value_at_horizon_five():
    # the figure quoted for the 16-path reference run: 0.4686 against 0.4697
    assert checks.reflection_value(0.5, 0.5, 5e-4, 5.0) == pytest.approx(0.4686, abs=1e-4)


# --- strong-noise-milstein ------------------------------------------------------------


def test_completed(strong):
    out = strong["outputs"]
    horizon = strong["cfg"]["ensemble"]["horizon"]
    assert checks.check_completed(out, horizon) == []
    bad = copy.deepcopy(out)
    bad.summary[1]["stop_reason"] = "blowup-w1inf"
    assert [i for i, _ in checks.check_completed(bad, horizon)] == [1]
    bad = copy.deepcopy(out)
    bad.paths[0]["Hs_g"][-1] = math.nan
    assert [i for i, _ in checks.check_completed(bad, horizon)] == [0]


# --- particles-rk4 --------------------------------------------------------------------


def signatures(rd):
    return {r["index"]: rd["records"][r["seed"]]["signatures"] for r in rd["outputs"].summary}


def test_signs_positive(particles):
    sigs = signatures(particles)
    assert len(sigs) == 2 and all(s.shape[1] == 63 for s in sigs.values())
    assert checks.check_signs_positive(sigs) == []
    bad = {i: s.copy() for i, s in sigs.items()}
    bad[1][-1, 7] = -1
    assert [i for i, _ in checks.check_signs_positive(bad)] == [1]


def test_energy_drift(particles):
    out = particles["outputs"]
    assert checks.check_energy_drift(out) == []
    bad = copy.deepcopy(out)
    bad.paths[0]["energy"][1:] *= 1.0 + 1e-5
    assert [i for i, _ in checks.check_energy_drift(bad)] == [0]
