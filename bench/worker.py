"""One benchmark process: set up, run whole rounds of one workload, check the
outputs, and print one JSON object as the last line of stdout.

run.py starts this file in a fresh interpreter and passes ``--t0``, its
monotonic clock just before the start, so ``setup_s`` covers interpreter
start, ``import smch2``, ``parse_config`` and building the initial data.

With ``--trace 1`` the numpy FFT entry points are wrapped before smch2 is
imported and spans are recorded around the layer functions while a round
runs; without it nothing of the program is wrapped except one pass-through
hook on ``smch2.ensemble.run_path`` that keeps each path's stop, last row
and sign signatures for the checks (one extra Python call per path).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

import checks
from spans import Tracer, layer_totals, write_spans
from workloads import WORKLOADS, master_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"


def import_smch2():
    """Import smch2 from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import smch2

    if Path(smch2.__file__).resolve().parent != (src / "smch2").resolve():
        raise ImportError(f"smch2 was imported from {smch2.__file__}, not from {src}")
    return smch2


class PathCapture:
    """Wraps ``smch2.ensemble.run_path`` to keep, by path seed, what a lone
    re-run of the path must reproduce."""

    def __init__(self, ensemble_module):
        self.records = {}
        self._lock = threading.Lock()
        orig = getattr(ensemble_module, "run_path", None)
        if orig is None:
            print("note: smch2.ensemble.run_path is absent; path records come from the re-runs only")
            return

        def captured(*args, **kwargs):
            res = orig(*args, **kwargs)
            rec = path_record(res)
            with self._lock:
                self.records[rec["seed"]] = rec
            return res

        ensemble_module.run_path = captured

    def take(self) -> dict:
        with self._lock:
            recs, self.records = self.records, {}
        return recs


def path_record(res) -> dict:
    cols = (res.times, res.hs_u, res.hs_g, res.w1inf_u, res.w1inf_g, res.min_ux, res.energy, res.beta)
    return {
        "seed": int(res.seed),
        "stop_reason": res.stop_reason.value,
        "stop_time": float(res.stop_time),
        "last": [float(c[-1]) for c in cols],
        "signatures": res.signatures,
    }


def path_kwargs(smch2, scenario: str, u0) -> dict:
    """The extra run_path arguments the scenario gives every path."""
    if scenario == "blowup-slope":
        x_star = float(u0.grid.x[int(np.argmin(smch2.derivative(u0).values))])
        return {
            "particles0": smch2.make_particles(np.array([x_star])),
            "monitor_kind": smch2.MonitorKind.SLOPE_G,
            "monitor_index": 0,
        }
    if scenario == "sign-preserve":
        return {"particles0": smch2.place_particles(u0)}
    return {}


def run_round(smch2, workload, master: int, directory: Path, tracer=None):
    """parse_config, then one timed run_scenario.  Returns the parsed config
    dict, the config, the manifest, and the wall time of run_scenario."""
    cfg = workload.round_config(master, str(directory))
    config = smch2.parse_config(yaml.safe_dump(cfg))
    if tracer is not None:
        tracer.active = True
    try:
        with tracer.span("cli.run_scenario") if tracer is not None else contextlib.nullcontext():
            t = time.perf_counter()
            manifest = smch2.run_scenario(workload.scenario, config)
            wall = time.perf_counter() - t
    finally:
        if tracer is not None:
            tracer.active = False
    return cfg, config, manifest, wall


def check_round(workload, cfg: dict, outputs, records: dict) -> list:
    """The per-round checks of one workload; returns (path index, message)."""
    fails = checks.check_verdict(outputs)
    fails += checks.check_initial_energy(outputs, checks.initial_energy(cfg))
    if workload.scenario == "blowup-slope":
        fails += checks.check_threshold_on_stop_row(outputs, cfg["stepper"]["blowup_w1inf"])
        fails += checks.check_blowup_fraction(outputs)
    elif workload.scenario == "strong-noise":
        fails += checks.check_completed(outputs, cfg["ensemble"]["horizon"])
    elif workload.scenario == "sign-preserve":
        fails += checks.check_energy_drift(outputs)
        sigs = {r["index"]: records[r["seed"]]["signatures"] for r in outputs.summary
                if r["seed"] in records}
        if len(sigs) != len(outputs.summary):
            print("note: the run_path hook saw only some paths; signs are checked on those and the re-runs")
        fails += checks.check_signs_positive(sigs)
    return fails


def choose_reruns(workload, rounds: list) -> list:
    """Two (round, summary row) pairs to re-run alone.  breaking-em takes the
    first path that blew up and the first that survived; the others take the
    first and the last path of the first round."""
    if workload.scenario != "blowup-slope":
        rows = rounds[0]["outputs"].summary
        return [(rounds[0], rows[0]), (rounds[0], rows[-1])]
    picks = {}
    for rd in rounds:
        for row in rd["outputs"].summary:
            kind = "completed" if row["stop_reason"] == "completed" else "stopped"
            picks.setdefault(kind, (rd, row))
    return [picks[k] for k in ("stopped", "completed") if k in picks]


def rerun_checks(smch2, workload, rounds: list) -> list:
    """Re-run the chosen paths alone through run_path; returns failures as
    (round, path index, message)."""
    fails = []
    picked = choose_reruns(workload, rounds)
    if len(picked) < 2:
        print("note: no path of this run survived to the horizon; re-ran one path only")
    for rd, row in picked:
        config, r = rd["config"], rd["round"]
        i, seed = row["index"], row["seed"]
        if seed != smch2.path_seed(config.ensemble.master_seed, i):
            fails.append((r, i, f"path {i}: summary seed {seed} is not path_seed(master, {i})"))
            continue
        grid = config.build_grid()
        u0, g0 = config.build_initial(grid)
        res = smch2.run_path(u0, g0, config.noise.make(), config.stepper_config(), seed,
                             **path_kwargs(smch2, workload.scenario, u0))
        alone = path_record(res)
        cols = rd["outputs"].paths.get(i)
        if cols is not None:
            last = [float(cols[c][-1]) for c in checks.COLUMNS]
        elif seed in rd["records"]:
            last = rd["records"][seed]["last"]
        else:
            print(f"note: path {i} was neither written nor seen by the hook; its last row is not compared")
            last = alone["last"]
        ensemble = {"stop_reason": row["stop_reason"], "stop_time": row["stop_time"], "last": last}
        found = checks.check_rerun(i, ensemble, alone)
        if workload.scenario == "sign-preserve":
            found += checks.check_signs_positive({i: alone["signatures"]})
        fails += [(r, idx, msg) for idx, msg in found]
    return fails


def trace_metrics(rounds: list, setup: dict) -> dict:
    """Per-layer metrics from the traced rounds' spans and FFT counts."""
    per_round = [layer_totals(rd["spans"]) for rd in rounds]
    zero = {"calls": 0, "ns": 0, "self_ns": 0, "work": 0}

    def total(name, key):
        return sum(t.get(name, zero)[key] for t in per_round)

    def median_s(name, key):
        return statistics.median(t.get(name, zero)[key] for t in per_round) / 1e9

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    steps = sum(rd["steps"] for rd in rounds)
    fft_calls = sum(rd["fft_calls"] for rd in rounds)
    fft_bytes = sum(rd["fft_bytes"] for rd in rounds)
    m = {
        "grid.fft_calls_per_path_step": (ratio(fft_calls, steps), "count"),
        "grid.fft_bytes_per_path_step": (ratio(fft_bytes, steps), "B"),
        "grid.evaluate_at.self_s": (median_s("grid.evaluate_at", "self_ns"), "s"),
        "rhs.drift_arrays.calls_per_path_step": (ratio(total("rhs.drift_arrays", "calls"), steps), "count"),
        "rhs.drift_arrays.us_per_call": (
            ratio(total("rhs.drift_arrays", "ns"), total("rhs.drift_arrays", "calls"), 1e-3), "us"),
        "stepping.run_path.self_us_per_path_step": (
            ratio(total("stepping.run_path", "self_ns"), steps, 1e-3), "us"),
        "particles.advect_stages.us_per_call": (
            ratio(total("particles.advect_stages", "ns"), total("particles.advect_stages", "calls"), 1e-3),
            "us"),
        "particles.advect_stages.self_s": (median_s("particles.advect_stages", "self_ns"), "s"),
        "particles.sign_signature.self_s": (median_s("particles.sign_signature", "self_ns"), "s"),
        "particles.momentum.self_s": (median_s("particles.momentum", "self_ns"), "s"),
        "noise.sample_brownian.self_s": (median_s("noise.sample_brownian", "self_ns"), "s"),
        "ensemble.run_ensemble.s": (median_s("ensemble.run_ensemble", "ns"), "s"),
        "ensemble.breaking_bound_mc.s": (median_s("ensemble.breaking_bound_mc", "ns"), "s"),
        "ensemble.breaking_bound_mc.ns_per_path_step": (
            ratio(total("ensemble.breaking_bound_mc", "ns"), total("ensemble.breaking_bound_mc", "work")),
            "ns"),
        "smch2.import_s": (setup["import_s"], "s"),
        "cli.parse_config.ms": (setup["parse_s"] * 1e3, "ms"),
        "cli.make_initial_data.ms": (setup["initial_s"] * 1e3, "ms"),
        "cli.write_path_csv.ms": (median_s("cli.write_path_csv", "ns") * 1e3, "ms"),
        "cli.output_bytes": (statistics.median(rd["outputs"].n_bytes for rd in rounds), "B"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def install_tracer(smch2, tracer) -> None:
    mc = getattr(smch2.cli, "breaking_bound_mc", None)

    def mc_path_steps(args, kwargs):
        a = inspect.signature(mc).bind_partial(*args, **kwargs).arguments
        try:
            return a["n_paths"] * int(round(a["horizon"] / a["dt"]))
        except KeyError:  # the signature changed: the per-path-step figure reads 0
            return 0

    for module, attr, name, work in (
        (smch2.cli, "run_ensemble", "ensemble.run_ensemble", None),
        (smch2.cli, "breaking_bound_mc", "ensemble.breaking_bound_mc", mc_path_steps),
        (smch2.cli, "write_path_csv", "cli.write_path_csv", None),
        (smch2.cli, "make_initial_data", "cli.make_initial_data", None),
        (smch2.ensemble, "run_path", "stepping.run_path", None),
        (smch2.stepping, "drift_arrays", "rhs.drift_arrays", None),
        (smch2.stepping, "advect_stages", "particles.advect_stages", None),
        (smch2.stepping, "sign_signature", "particles.sign_signature", None),
        (smch2.stepping, "momentum", "particles.momentum", None),
        (smch2.stepping, "evaluate_at", "grid.evaluate_at", None),
        (smch2.stepping, "sample_brownian", "noise.sample_brownian", None),
        (smch2.particles, "evaluate_at", "grid.evaluate_at", None),
    ):
        tracer.wrap(module, attr, name, work)


def finish_round(workload, r, cfg, config, manifest, wall, capture, tracer, failed, ensemble_fails):
    """Read and check one round's outputs; failures go into ``failed`` as
    (round, path index) and into ``ensemble_fails`` as messages."""
    rd = {"round": r, "cfg": cfg, "config": config, "wall": wall, "records": capture.take()}
    if tracer is not None:
        rd["spans"], rd["fft_calls"], rd["fft_bytes"] = tracer.harvest()
    rd["outputs"] = checks.read_outputs(Path(manifest.out_dir))
    rd["steps"] = checks.path_steps(rd["outputs"], cfg["stepper"]["dt"])
    for row in rd["outputs"].summary:
        if row["stop_reason"] == "non-finite":
            failed.add((r, row["index"]))
    for idx, msg in check_round(workload, cfg, rd["outputs"], rd["records"]):
        print(f"check failed (round {r}): {msg}")
        if idx is None:
            ensemble_fails.append(msg)
        else:
            failed.add((r, idx))
    return rd


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="launcher's time.monotonic() at start")
    ap.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds (0: fill --seconds)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.wrap_fft(np.fft)

    # --- set-up: import, parse_config, initial data --------------------------
    t = time.perf_counter()
    smch2 = import_smch2()
    import_s = time.perf_counter() - t

    t = time.perf_counter()
    config0 = smch2.parse_config(yaml.safe_dump(workload.round_config(master_seed(workload.name, args.seed, 0), "")))
    parse_s = time.perf_counter() - t
    t = time.perf_counter()
    grid = config0.build_grid()
    config0.build_initial(grid)
    initial_s = time.perf_counter() - t
    setup_s = time.monotonic() - args.t0
    setup = {"import_s": import_s, "parse_s": parse_s, "initial_s": initial_s}

    # --- timed rounds ---------------------------------------------------------
    capture = PathCapture(smch2.ensemble)
    if tracer is not None:
        install_tracer(smch2, tracer)
        tracer.harvest()
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    rounds = []
    failed = set()  # (round, path index)
    raised = 0  # paths of rounds whose run_scenario raised
    ensemble_fails = []
    try:
        loop_start = time.perf_counter()
        for r in itertools.count():
            try:
                cfg, config, manifest, wall = run_round(
                    smch2, workload, master_seed(workload.name, args.seed, r), tmp / f"r{r}", tracer)
            except Exception:  # a program fault loses every path of the round
                traceback.print_exc(file=sys.stdout)
                raised += workload.config["ensemble"]["n_paths"]
                capture.take()
                if tracer is not None:
                    tracer.harvest()
            else:
                rounds.append(finish_round(workload, r, cfg, config, manifest, wall, capture, tracer,
                                           failed, ensemble_fails))
                shutil.rmtree(tmp / f"r{r}")
            n_rounds = r + 1
            if args.rounds:
                if n_rounds >= args.rounds:
                    break
            else:
                elapsed = time.perf_counter() - loop_start
                if elapsed + elapsed / n_rounds > args.seconds:
                    break
        if not rounds:
            raise RuntimeError("every round raised")
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # --- checks outside the timed rounds ---------------------------------------
    if workload.scenario == "blowup-slope":
        stepper, ens = workload.config["stepper"], workload.config["ensemble"]
        u = workload.config["initial"]["u"]
        for msg in checks.check_barrier(
            [rd["outputs"].manifest["verdict"]["bound"] for rd in rounds], smch2.cli.BOUND_MC_PATHS,
            workload.config["noise"]["b"], u["c"], stepper["dt"], ens["horizon"],
        ):
            print(f"check failed: {msg[1]}")
            ensemble_fails.append(msg[1])
    for r, idx, msg in rerun_checks(smch2, workload, rounds):
        print(f"check failed (round {r}, re-run alone): {msg}")
        failed.add((r, idx))

    attempted = sum(len(rd["outputs"].summary) for rd in rounds) + raised
    walls = [rd["wall"] for rd in rounds]
    result = {
        "correct": not ensemble_fails,
        "attempted": attempted,
        "failed": len(failed) + raised,
        "rounds": n_rounds,
        "walls": walls,
        "steps": [rd["steps"] for rd in rounds],
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(walls) / len(walls), "unit": "s"},
            "path_steps_per_s": {"value": sum(rd["steps"] for rd in rounds) / sum(walls), "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    else:
        result["metrics"] = trace_metrics(rounds, setup)
        result["absent"] = tracer.absent
        write_spans(OUT / f"trace_{workload.name}_{args.seed}.jsonl.gz", [rd["spans"] for rd in rounds])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
