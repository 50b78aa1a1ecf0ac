"""Campaign harness: config files, seeds, CSV outputs, summaries, complexity."""

import contextlib
import csv
import gc
import logging
import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import helpers
from ibfdsim import harness, jpaim
from ibfdsim.harness import (CampaignConfig, ConfigError, complexity_estimate,
                             derive_seed, load_config, parse_config, run_campaign,
                             save_config, summarize)
from ibfdsim.model import ScenarioConfig


SMALL = """
scenario.cells = 1
scenario.dl_users = 1
scenario.ul_users = 1
scenario.bs_tx_antennas = 4
scenario.bs_rx_antennas = 4
scenario.dl_streams = 1
scenario.ul_streams = 1
solver.max_iterations = 8
campaign.realizations = 3
campaign.base_seed = 7
"""


def test_derive_seed_reference_vectors():
    # stateless splitmix64: base 0 must reproduce the published sequence
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
    assert derive_seed(0, 2) == 0x06C45D188009454F
    # extending a campaign never reshuffles earlier seeds
    first = [derive_seed(99, i) for i in range(10)]
    assert [derive_seed(99, i) for i in range(6)] == first[:6]
    assert len(set(first)) == 10
    assert all(0 <= s < 2 ** 64 for s in first)


def test_parse_config_empty_gives_defaults():
    assert parse_config("") == CampaignConfig()
    assert parse_config("# only a comment\n\n") == CampaignConfig()


def test_parse_config_sections():
    cfg = parse_config("""
        scenario.cells = 3
        scenario.asic_db = 30.0
        scenario.swap_los_fading = yes
        solver.nu = 0.5
        solver.max_iterations = 17
        campaign.algorithms = jpaim, half-duplex
        campaign.workers = 2
        campaign.trace = true
        campaign.output_dir = results/run a
    """)
    assert cfg.scenario.cells == 3
    assert cfg.scenario.asic_db == 30.0
    assert cfg.scenario.swap_los_fading is True
    assert cfg.solver.nu == 0.5
    assert cfg.solver.max_iterations == 17
    assert cfg.algorithms == ("jpaim", "half-duplex")
    assert cfg.workers == 2
    assert cfg.trace is True
    assert cfg.output_dir == "results/run a"


def test_parse_config_nu_forms():
    assert parse_config("solver.nu = auto").solver.nu is None
    assert parse_config("solver.nu = 1e-6").solver.nu == 1e-6
    assert parse_config("solver.nu = AUTO").solver.nu is None


def test_parse_config_errors_name_the_key():
    for text, needle in [
        ("scenario.bogus = 1", "scenario.bogus"),
        ("solver.bogus = 1", "solver.bogus"),
        ("campaign.bogus = 1", "campaign.bogus"),
        ("nsp.bogus = 1", "nsp.bogus"),
        # removed keys are unknown keys
        ("solver.init_seed = 0", "solver.init_seed"),
        ("nsp.subspace_dim = 4", "nsp.subspace_dim"),
        ("weird.cells = 1", "weird"),
        ("justakey = 1", "justakey"),
        ("scenario.cells 3", "key = value"),
        ("solver.max_iterations = many", "solver.max_iterations"),
        ("campaign.trace = maybe", "campaign.trace"),
        ("solver.nu = -1", "solver.nu"),
        ("solver.nu = nan", "solver.nu"),
        ("solver.nu = inf", "solver.nu"),
        ("solver.nu = abc", "solver.nu"),
        # nu is auto or one number, with no per-cell list
        ("solver.nu = 0.1, 0.2", "solver.nu"),
        ("solver.nu = 0.5,", "solver.nu"),
        ("solver.nu = auto,", "solver.nu"),
        ("campaign.algorithms = jpaim, jpaim", "campaign.algorithms"),
        # no item of a list may be empty, the last one included
        ("campaign.algorithms = jpaim,,half-duplex", "campaign.algorithms"),
        ("campaign.algorithms = jpaim, half-duplex,", "campaign.algorithms"),
        ("campaign.algorithms = jpaim,", "campaign.algorithms"),
        ("campaign.algorithms = ,jpaim", "campaign.algorithms"),
        # a repeated key names both lines, rather than the later one winning
        ("solver.nu = 1.0\nscenario.cells = 2\n# a comment\nsolver.nu = 0.0",
         "line 4: key solver.nu repeats line 1"),
        # an empty directory would write realizations.csv into the working directory
        ("campaign.output_dir =", "campaign.output_dir"),
        # values every draw would reject
        ("scenario.bandwidth_hz = 0", "bandwidth_hz"),
        ("scenario.carrier_ghz = -1", "carrier_ghz"),
        ("scenario.adc_bits = 0", "adc_bits"),
        ("scenario.inter_site_distance_m = 5", "min_bs_user_distance_m"),
        ("scenario.rician_k_db = nan", "rician_k_db"),
        ("scenario.bs_power_dbm = nan", "bs_power_dbm"),
        ("scenario.asic_db = nan", "asic_db"),
        # every float but an ideal converter or an ideal cancellation must be finite
        ("scenario.bs_power_dbm = inf", "bs_power_dbm"),
        ("scenario.csi_error_factor = inf", "csi_error_factor"),
        ("scenario.rician_k_db = inf", "rician_k_db"),
        ("scenario.noise_density_dbm_hz = -inf", "noise_density_dbm_hz"),
        ("scenario.ue_power_dbm = -inf", "ue_power_dbm"),
        ("scenario.asic_db = -inf", "asic_db"),
        ("scenario.adc_bits = -inf", "adc_bits"),
        ("scenario.carrier_ghz = inf", "carrier_ghz"),
        ("scenario.bandwidth_hz = inf", "bandwidth_hz"),
        ("scenario.inter_site_distance_m = inf", "inter_site_distance_m"),
        ("scenario.bs_noise_figure_db = -inf", "bs_noise_figure_db"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert needle in str(err.value)


def test_parse_config_keeps_ideal_hardware_infinities():
    # an ideal converter and an ideal SI cancellation are the two infinite floats
    config = parse_config("scenario.adc_bits = inf\nscenario.asic_db = inf")
    assert config.scenario.adc_bits == config.scenario.asic_db == math.inf


def test_parse_config_rejects_the_removed_search_keys():
    # the multiplier search's tolerance and step cap are jpaim constants, not keys
    for key, value in (("solver.bisection_rel_tol", "1e-8"), ("solver.bisection_max_steps", "200")):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = {value}")


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Config files", 1)[1].split("```", 2)[1]
    config = parse_config(block)
    assert config.scenario.cells == 3
    assert config.solver.nu is None
    assert config.algorithms == ("jpaim", "nsp-jpaim", "half-duplex")
    # and what it documents survives save_config
    save_config(config, tmp_path / "readme.cfg")
    assert load_config(tmp_path / "readme.cfg") == config
    # the prose outside the example names only keys that exist, too
    named = set(re.findall(r"`((?:scenario|solver|nsp|campaign)\.\w+)", readme))
    assert "solver.nu" in named and sorted(named - set(harness._KEYS)) == []


def test_campaign_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(realizations=0)
    with pytest.raises(ConfigError):
        CampaignConfig(workers=0)
    with pytest.raises(ConfigError):
        CampaignConfig(base_seed=-1)
    with pytest.raises(ConfigError):
        CampaignConfig(algorithms=())
    with pytest.raises(ConfigError):
        CampaignConfig(algorithms=("jpaim", "mystery"))
    with pytest.raises(ConfigError):
        parse_config("scenario.cells = 0")
    for name, value in (("realizations", 2.5), ("workers", 2.0), ("base_seed", True)):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            CampaignConfig(**{name: value})
    CampaignConfig(realizations=np.int64(2), workers=np.int16(4))


def test_save_load_config_roundtrip(tmp_path):
    cfg = parse_config(SMALL.replace("cells = 1", "cells = 2") + "solver.nu = 0.25\n"
                       + "campaign.trace = true\n")
    path = tmp_path / "campaign.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg
    auto = parse_config("solver.nu = auto")
    save_config(auto, path)
    assert load_config(path) == auto


def test_save_load_config_roundtrip_of_every_key(tmp_path):
    scenario = ScenarioConfig(
        cells=3, dl_users=1, ul_users=3, bs_tx_antennas=6, bs_rx_antennas=5,
        ue_tx_antennas=3, ue_rx_antennas=4, dl_streams=1, ul_streams=3,
        inter_site_distance_m=150.5, min_bs_user_distance_m=12.25, carrier_ghz=3.5,
        bandwidth_hz=2e7, bs_power_dbm=30.0, ue_power_dbm=20.0, noise_density_dbm_hz=-170.0,
        bs_noise_figure_db=7.0, ue_noise_figure_db=5.0, adc_bits=10.0, csi_error_factor=1e-6,
        rician_k_db=3.0, asic_db=60.0, swap_los_fading=True)
    solver = jpaim.SolverConfig(nu=0.3, threshold=5e-5, max_iterations=7)
    cfg = CampaignConfig(scenario=scenario, solver=solver, realizations=9, base_seed=0,
                         algorithms=("half-duplex", "nsp-jpaim"), workers=3,
                         output_dir="runs/every key", measure_timing=True, trace=True)
    # every field differs from its default, so a key that save_config drops shows
    default = CampaignConfig()
    for ours, theirs in ((cfg, default), (cfg.scenario, default.scenario),
                         (cfg.solver, default.solver)):
        assert all(getattr(ours, f.name) != getattr(theirs, f.name) for f in fields(ours))
    path = tmp_path / "campaign.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("nu", [np.float64(0.5), 2, np.int64(0)],
                         ids=["float64", "int", "int64"])
def test_save_load_config_roundtrip_of_numeric_nu_forms(tmp_path, nu):
    # SolverConfig keeps any number as a float, which save_config writes in a
    # form load_config reads back
    cfg = CampaignConfig(solver=jpaim.SolverConfig(nu=nu))
    assert type(cfg.solver.nu) is float and cfg.solver.nu == nu
    path = tmp_path / "campaign.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# schema: ")
    return lines[0], list(csv.DictReader(lines[1:]))


def test_run_campaign_bytes_do_not_depend_on_workers(tmp_path):
    text = SMALL.replace("cells = 1", "cells = 2").replace("antennas = 4", "antennas = 8")
    cfg = replace(parse_config(text), realizations=4, trace=True,
                  algorithms=("jpaim", "nsp-jpaim", "half-duplex"))
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        run_campaign(replace(cfg, workers=workers, output_dir=str(out)))
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 7    # realizations.csv and three iteration and state CSVs
    assert outputs[0] == outputs[1]


def test_one_realization_campaign_solves_in_the_calling_process(tmp_path, monkeypatch):
    # no more workers start than there are realizations, so one realization
    # with four workers runs here, where the patched solver sees its solve
    cfg = replace(parse_config(SMALL), realizations=1, trace=True)
    solves, true_run = [], jpaim.run

    def counted(*args, **kwargs):
        solves.append(os.getpid())
        return true_run(*args, **kwargs)

    monkeypatch.setattr(jpaim, "run", counted)
    outputs = []
    for workers in (4, 1):
        out = tmp_path / f"workers{workers}"
        run_campaign(replace(cfg, workers=workers, output_dir=str(out)))
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert solves == [os.getpid()] * 2
    assert outputs[0] == outputs[1] and len(outputs[0]) == 3


def test_one_worker_campaign_never_imports_multiprocessing(tmp_path):
    # only a campaign with a worker pool loads multiprocessing, so a fresh
    # interpreter that runs a one-worker campaign leaves it out
    script = ("import sys\nfrom dataclasses import replace\n"
              "from ibfdsim.harness import parse_config, run_campaign\n"
              f"run_campaign(replace(parse_config({SMALL!r}), workers=1, "
              f"output_dir={str(tmp_path / 'out')!r}))\n"
              "print('multiprocessing' in sys.modules)\n")
    src = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    assert (tmp_path / "out" / "realizations.csv").exists()
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_campaign_logs_progress(tmp_path, monkeypatch, caplog, workers):
    # one INFO line per finished realization, in index order, whatever the
    # worker count; a failed draw counts its errors
    cfg = replace(parse_config(SMALL + "campaign.algorithms = jpaim, half-duplex\n"),
                  output_dir=str(tmp_path / "out"), workers=workers)
    bad_seed = derive_seed(cfg.base_seed, 1)
    true_build = harness.build_realization

    def flaky(scenario, seed):
        if seed == bad_seed:
            raise ValueError("synthetic draw failure")
        return true_build(scenario, seed)

    if workers == 1:
        monkeypatch.setattr(harness, "build_realization", flaky)
    csv_path = Path(cfg.output_dir) / "realizations.csv"
    on_disk = []    # realizations.csv as each INFO line is logged

    def snapshot(record):
        if record.levelno == logging.INFO:
            on_disk.append(csv_path.read_text())

    with caplog.at_level("INFO", logger="ibfdsim.harness"), _log_hook(snapshot):
        run_campaign(cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "ibfdsim.harness" and r.levelname == "INFO"]
    errors = [0, 2, 0] if workers == 1 else [0, 0, 0]
    assert lines == [f"realization {i + 1}/3 finished: seed {derive_seed(7, i)}, "
                     f"{errors[i]} error(s)" for i in range(3)]
    # each line is logged once its seed's rows are on disk, so `tail -f` keeps pace
    assert on_disk == [_through_seed(csv_path.read_text(), cfg, i) for i in range(3)]


@contextlib.contextmanager
def _log_hook(emit):
    """Call emit(record) on every INFO or higher record of the harness logger."""
    hook = logging.Handler()
    hook.emit = emit
    logger = logging.getLogger("ibfdsim.harness")
    level = logger.level
    logger.addHandler(hook)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(hook)
        logger.setLevel(level)


def _through_seed(text, cfg, last):
    """A written CSV's text cut to its two header lines and the lines of
    seed indexes 0 to `last`."""
    lines = text.splitlines(keepends=True)
    seeds = {str(derive_seed(cfg.base_seed, i)) for i in range(last + 1)}
    return "".join(lines[:2] + [line for line in lines[2:] if line.split(",", 1)[0] in seeds])


def _lines_by_run(outdir):
    """The realization lines of a written campaign by (seed, algorithm)."""
    lines = (Path(outdir) / "realizations.csv").read_text().splitlines()[2:]
    return {tuple(line.split(",", 2)[:2]): line for line in lines}


def test_run_campaign_writes_contractual_csv(tmp_path):
    cfg = parse_config(SMALL)
    cfg = replace(cfg, algorithms=("jpaim", "nsp-jpaim", "half-duplex"),
                  trace=True, output_dir=str(tmp_path / "out"))
    summary = run_campaign(cfg)

    schema, rows = _read_csv(tmp_path / "out" / "realizations.csv")
    assert schema == "# schema: ibfdsim-realizations-v2"
    assert len(rows) == 9
    # the full header, per-cell columns included, of a one- and a two-cell campaign
    common = ["seed", "algorithm", "digest", "converged", "iterations", "loss",
              "sum_mse_dl", "sum_mse_ul", "sum_rate", "sum_rate_dl", "sum_rate_ul"]
    assert list(rows[0].keys()) == common + ["rsi_w_0", "asic_db_0", "elapsed_ms"]
    run_campaign(replace(cfg, scenario=replace(cfg.scenario, cells=2), realizations=1,
                         trace=False, output_dir=str(tmp_path / "two")))
    header = (tmp_path / "two" / "realizations.csv").read_text().splitlines()[1]
    assert header.split(",") == common + ["rsi_w_0", "rsi_w_1", "asic_db_0", "asic_db_1",
                                          "elapsed_ms"]
    seeds = [derive_seed(7, i) for i in range(3)]
    assert [int(r["seed"]) for r in rows] == [s for s in seeds for _ in range(3)]
    assert [r["algorithm"] for r in rows[:3]] == ["jpaim", "nsp-jpaim", "half-duplex"]
    for r in rows:
        assert r["converged"] in ("0", "1")
        assert len(r["digest"]) == 64
        assert float(r["elapsed_ms"]) == 0.0  # timing off -> deterministic bytes
        assert float(r["sum_rate"]) == pytest.approx(
            float(r["sum_rate_dl"]) + float(r["sum_rate_ul"]), rel=1e-9)
    for i in range(3):
        assert len({r["digest"] for r in rows[3 * i:3 * i + 3]}) == 1  # same realization
    # a row is its own run's: the algorithms in another order, or one alone,
    # write the same line for every (seed, algorithm) both campaigns ran
    full = _lines_by_run(tmp_path / "out")
    for algorithms in (("half-duplex", "nsp-jpaim", "jpaim"), ("half-duplex",)):
        out = tmp_path / "_".join(algorithms)
        run_campaign(replace(cfg, algorithms=algorithms, output_dir=str(out)))
        mine = _lines_by_run(out)
        assert len(mine) == 3 * len(algorithms)
        assert {key: full[key] for key in mine} == mine
    # half-duplex rows: no RSI, no ASIC depth, each direction's MSE from its
    # own phase, and the iterations of both phases
    phase_rows = [_read_csv(tmp_path / "out" / f"iterations_half_duplex_{d}.csv")[1]
                  for d in ("dl", "ul")]
    for r in rows[2::3]:
        assert float(r["rsi_w_0"]) == 0.0
        assert r["asic_db_0"] == "nan"
        mse = float(r["sum_mse_dl"]), float(r["sum_mse_ul"])
        assert np.isfinite(mse).all()
        assert sum(mse) == pytest.approx(float(r["loss"]), rel=1e-12)
        # each phase trace has a record 0 before its first iteration
        assert int(r["iterations"]) == sum(
            sum(int(p["seed"]) == int(r["seed"]) for p in phase) - 1 for phase in phase_rows)

    # nsp-jpaim's trace is the seed's jpaim solve, written once; a solve has
    # columns only for the transmitters that send and the SI links it has:
    # the downlink phase has no uplink user and no BS receive chain, the
    # uplink phase no BS that sends, so neither has an SI link
    assert not (tmp_path / "out" / "iterations_nsp_jpaim.csv").exists()
    full = ["seed", "iter", "loss", "sum_mse", "rsi_watts_0", "sum_rate", "elapsed_ms",
            "dl_cell_power_0", "ul_user_power_0", "dl_precoder_multipliers_0",
            "ul_precoder_multipliers_0", "multiplier_evaluations", "combiner_ms", "precoder_ms",
            "trial_ms"]
    absent = {"jpaim": (), "half_duplex_dl": ("ul_", "rsi_watts_"),
              "half_duplex_ul": ("dl_", "rsi_watts_")}
    for name, prefixes in absent.items():
        schema, irows = _read_csv(tmp_path / "out" / f"iterations_{name}.csv")
        assert schema == "# schema: ibfdsim-iterations-v3"
        assert list(irows[0].keys()) == [
            column for column in full if not column.startswith(prefixes)], name
        per_seed = [r for r in irows if int(r["seed"]) == seeds[0]]
        assert [int(r["iter"]) for r in per_seed] == list(range(len(per_seed)))
        losses = [float(r["loss"]) for r in per_seed]
        assert all(b <= a + 1e-8 for a, b in zip(losses, losses[1:]))
    # a full-duplex network without downlink users: no BS sends, so no
    # dl_* and no rsi_watts_* column
    run_campaign(replace(cfg, scenario=replace(cfg.scenario, dl_users=0), realizations=1,
                         algorithms=("jpaim",), output_dir=str(tmp_path / "no_dl")))
    schema, irows = _read_csv(tmp_path / "no_dl" / "iterations_jpaim.csv")
    assert schema == "# schema: ibfdsim-iterations-v3"
    assert list(irows[0].keys()) == [
        column for column in full if not column.startswith(absent["half_duplex_ul"])]

    # the returned summary holds the figures of the written rows
    for algo in summary.algorithms:
        mine = [r for r in rows if r["algorithm"] == algo.algorithm]
        assert algo.realizations == len(mine) == 3
        assert algo.converged_fraction == pytest.approx(
            sum(r["converged"] == "1" for r in mine) / len(mine), rel=1e-12)
        for name in ("sum_rate", "loss", "iterations"):
            assert algo.metrics[name].mean == pytest.approx(
                sum(float(r[name]) for r in mine) / len(mine), rel=1e-12), name
    names = [a.algorithm for a in summary.algorithms]
    assert names == sorted(["jpaim", "nsp-jpaim", "half-duplex"])
    assert "sum_rate" in summary.algorithms[0].metrics
    assert summary.table()


def test_traced_campaign_writes_only_finite_numbers(tmp_path):
    # every cell of every iteration and state CSV, apart from a state row's
    # array name, is a finite number.  The benchmark's output check still
    # allows a nan half-duplex sum_rate, so this is the check that no
    # record's rate goes back to nan
    cfg = parse_config(SMALL)
    run_campaign(replace(cfg, scenario=replace(cfg.scenario, csi_error_factor=1e-2),
                         algorithms=("jpaim", "nsp-jpaim", "half-duplex"), trace=True,
                         output_dir=str(tmp_path)))
    files = sorted(tmp_path.glob("iterations_*.csv")) + sorted(tmp_path.glob("state_*.csv"))
    assert [path.stem for path in files] == [
        f"{kind}_{name}" for kind in ("iterations", "state")
        for name in ("half_duplex_dl", "half_duplex_ul", "jpaim")]
    for path in files:
        rows = _read_csv(path)[1]
        assert rows, path.name
        bad = [(n, key, value) for n, row in enumerate(rows) for key, value in row.items()
               if key != "array" and not math.isfinite(float(value))]
        assert bad == [], path.name


def _bits(values: np.ndarray) -> bytes:
    """The bytes of a float array, every nan as the one nan."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


def test_iteration_csv_is_the_solves_record_table(tmp_path, monkeypatch):
    # each iteration CSV holds seed, iter, then every record field in dtype
    # order, one <field>_<i> column per entry of a per-cell or per-user
    # field, and each cell reads back as its record's value bit for bit; the
    # wall times read 0.0 unless timing is on, and then the block times fit
    # inside the iteration's
    captured = {}
    dispatch = harness._run_algorithm

    def capture(config, realization, algo, solve):
        report, traces = dispatch(config, realization, algo, solve)
        captured.update({(realization.seed, name): trace for name, trace in traces.items()})
        return report, traces

    monkeypatch.setattr(harness, "_run_algorithm", capture)
    cfg = replace(parse_config(SMALL), algorithms=("jpaim", "nsp-jpaim", "half-duplex"),
                  trace=True)
    seeds = [derive_seed(cfg.base_seed, i) for i in range(cfg.realizations)]
    names = ("jpaim", "half_duplex_dl", "half_duplex_ul")
    wall_times = ["elapsed_ms", "combiner_ms", "precoder_ms", "trial_ms"]
    for timed in (False, True):
        captured.clear()
        out = tmp_path / f"timed_{timed}"
        run_campaign(replace(cfg, measure_timing=timed, output_dir=str(out)))
        assert sorted(captured) == sorted((seed, name) for seed in seeds for name in names)
        for (seed, name), trace in captured.items():
            records = trace.records
            columns = {field: [f"{field}_{i}" for i in range(math.prod(records.dtype[field].shape))]
                       if records.dtype[field].shape else [field]
                       for field in records.dtype.names}
            _, rows = _read_csv(out / f"iterations_{name}.csv")
            assert list(rows[0]) == ["seed", "iter", *(c for cs in columns.values() for c in cs)]
            assert [c for c in rows[0] if c.endswith("_ms")] == wall_times
            assert name != "half_duplex_dl" or not [c for c in rows[0] if c.startswith("ul_")]
            mine = [row for row in rows if int(row["seed"]) == seed]
            assert [int(row["iter"]) for row in mine] == list(range(len(records)))
            for field, cs in columns.items():
                if field in wall_times and not timed:
                    assert all(row[c] == "0.0" for row in mine for c in cs)
                    continue
                written = np.array([[float(row[c]) for c in cs] for row in mine])
                expected = np.asarray(records[field], dtype=float).reshape(written.shape)
                assert _bits(written) == _bits(expected), (name, field)
            if timed:
                ms = {c: np.array([float(row[c]) for row in mine]) for c in wall_times}
                assert (ms["combiner_ms"] + ms["precoder_ms"] + ms["trial_ms"]
                        <= ms["elapsed_ms"]).all()
                assert (ms["elapsed_ms"] > 0.0).all()

    # a solve of no iteration writes its record 0 alone
    run_campaign(replace(cfg, solver=replace(cfg.solver, max_iterations=0),
                         output_dir=str(tmp_path / "none")))
    for name in names:
        _, rows = _read_csv(tmp_path / "none" / f"iterations_{name}.csv")
        assert [(int(row["seed"]), row["iter"]) for row in rows] == [(s, "0") for s in seeds]


def test_state_csv_holds_the_final_states_of_the_campaigns_solves(tmp_path, monkeypatch):
    # the campaign's own jpaim solve stops after two iterations: each state
    # CSV holds, for every seed, the final state of the solve the campaign
    # made, one row per entry of each array by its flattened index, and
    # each cell reads back as that entry bit for bit
    solved = {}
    dispatch = harness._run_algorithm

    def two_iterations(config, realization, algo, solve):
        short = replace(config.solver, max_iterations=2)
        report, traces = dispatch(config, realization, algo,
                                  lambda: jpaim.run(realization, short))
        solved.update({(realization.seed, name): trace for name, trace in traces.items()})
        return report, traces

    monkeypatch.setattr(harness, "_run_algorithm", two_iterations)
    cfg = replace(parse_config(SMALL), realizations=2, trace=True,
                  algorithms=("jpaim", "half-duplex"), output_dir=str(tmp_path))
    run_campaign(cfg)
    seeds = [derive_seed(cfg.base_seed, index) for index in range(2)]
    assert solved[seeds[0], "jpaim"].iterations == 2
    arrays = ("dl_beams", "dl_combiners", "ul_beams", "ul_combiners")
    for name in ("jpaim", "half_duplex_dl", "half_duplex_ul"):
        schema, header, *lines = (tmp_path / f"state_{name}.csv").read_text().splitlines()
        assert schema == "# schema: ibfdsim-states-v1"
        assert header == "seed,array,index,real,imag"
        rows = [line.split(",") for line in lines]
        entries = [(seed, array, getattr(solved[seed, name].final_state, array).ravel())
                   for seed in seeds for array in arrays]
        assert [row[:3] for row in rows] == [[str(seed), array, str(index)]
                                              for seed, array, values in entries
                                              for index in range(values.size)]
        expected = np.concatenate([values for _, _, values in entries])
        assert _bits(np.array([[float(row[3]), float(row[4])] for row in rows])) == _bits(
            np.stack([expected.real, expected.imag], axis=-1))


def test_run_campaign_is_order_independent():
    rows = [
        {"seed": 2, "algorithm": "jpaim", "converged": True, "iterations": 4,
         "loss": 1.0, "sum_rate": 10.0, "rsi_total_w": 0.1, "asic_mean_db": 30.0,
         "elapsed_ms": 0.0},
        {"seed": 1, "algorithm": "jpaim", "converged": False, "iterations": 8,
         "loss": 2.0, "sum_rate": 20.0, "rsi_total_w": 0.2, "asic_mean_db": 40.0,
         "elapsed_ms": 0.0},
        {"seed": 3, "algorithm": "jpaim", "converged": True, "iterations": 6,
         "loss": 3.0, "sum_rate": 30.0, "rsi_total_w": 0.3, "asic_mean_db": 50.0,
         "elapsed_ms": 0.0},
    ]
    a = harness._summarize_rows(list(rows))
    b = harness._summarize_rows(list(reversed(rows)))
    assert a == b
    alg = a.algorithms[0]
    assert alg.realizations == 3
    assert alg.converged_fraction == pytest.approx(2.0 / 3.0)
    assert alg.metrics["sum_rate"].mean == pytest.approx(20.0)
    assert alg.metrics["sum_rate"].std == pytest.approx(np.std([10.0, 20.0, 30.0]))
    half = 1.96 * alg.metrics["sum_rate"].std / np.sqrt(3.0)
    assert alg.metrics["sum_rate"].ci95_low == pytest.approx(20.0 - half)
    assert alg.metrics["sum_rate"].ci95_high == pytest.approx(20.0 + half)


def test_summary_single_row_has_zero_std():
    rows = [{"seed": 1, "algorithm": "jpaim", "converged": True, "iterations": 4,
             "loss": 1.0, "sum_rate": 10.0, "rsi_total_w": 0.1, "asic_mean_db": 30.0,
             "elapsed_ms": 0.0}]
    summary = harness._summarize_rows(rows)
    m = summary.algorithms[0].metrics["sum_rate"]
    assert m.std == 0.0
    assert m.ci95_low == m.ci95_high == m.mean == 10.0


def test_summarize_errors():
    with pytest.raises(ValueError) as err:
        harness._summarize_rows([])
    assert "no data" in str(err.value)
    with pytest.raises(ValueError):
        summarize("/nonexistent/place")


def test_summarize_rejects_wrong_schema(tmp_path):
    # v1 is the schema whose rows carried sum_rate_delta
    path = tmp_path / "realizations.csv"
    for schema in ("something-else-v9", "ibfdsim-realizations-v1"):
        path.write_text(f"# schema: {schema}\nseed\n1\n")
        with pytest.raises(ValueError, match="unrecognized schema line"):
            summarize(tmp_path)


def test_run_campaign_records_failures_and_continues(tmp_path, monkeypatch):
    cfg = parse_config(SMALL)
    cfg = replace(cfg, output_dir=str(tmp_path / "out"))
    bad_seed = derive_seed(cfg.base_seed, 1)
    true_run = jpaim.run

    def flaky(realization, config):
        if realization.seed == bad_seed:
            raise RuntimeError("synthetic failure")
        return true_run(realization, config)

    monkeypatch.setattr(harness.jpaim, "run", flaky)
    summary = run_campaign(cfg)
    _, rows = _read_csv(tmp_path / "out" / "realizations.csv")
    assert len(rows) == 2  # the failed realization is skipped, not fatal
    assert bad_seed not in [int(r["seed"]) for r in rows]
    log = (tmp_path / "out" / "errors.log").read_text()
    assert f"{bad_seed},jpaim,RuntimeError: synthetic failure" in log
    assert summary.algorithms[0].realizations == 2


def test_a_failed_solve_leaves_the_seeds_other_rows_as_they_are(tmp_path, monkeypatch):
    # the seed's full-duplex solve fails, so jpaim and nsp-jpaim write no
    # row for it; its half-duplex row is the line a half-duplex campaign
    # alone writes
    cfg = replace(parse_config(SMALL + "campaign.algorithms = jpaim, nsp-jpaim, half-duplex\n"),
                  output_dir=str(tmp_path / "all"))
    bad_seed = derive_seed(cfg.base_seed, 1)
    true_run = jpaim.run

    def flaky(realization, config):
        ch = realization.channels
        if realization.seed == bad_seed and ch.k_d and ch.k_u:    # not a half-duplex phase
            raise RuntimeError("synthetic failure")
        return true_run(realization, config)

    with monkeypatch.context() as patch:
        patch.setattr(harness.jpaim, "run", flaky)
        run_campaign(cfg)
    run_campaign(replace(cfg, algorithms=("half-duplex",), output_dir=str(tmp_path / "hd")))
    rows, alone = _lines_by_run(tmp_path / "all"), _lines_by_run(tmp_path / "hd")
    assert [key for key in rows if key[0] == str(bad_seed)] == [(str(bad_seed), "half-duplex")]
    assert rows[str(bad_seed), "half-duplex"] == alone[str(bad_seed), "half-duplex"]
    assert (tmp_path / "all" / "errors.log").read_text().splitlines() == [
        f"{bad_seed},{algo},RuntimeError: synthetic failure" for algo in ("jpaim", "nsp-jpaim")]


def test_run_campaign_removes_an_earlier_campaigns_files(tmp_path, monkeypatch):
    # a traced campaign with one failed jpaim solve, then an untraced clean
    # one into the same directory: no file of the first may pass as the
    # second's, its state CSVs included, and neither may an iteration CSV
    # that no campaign writes now
    first = replace(parse_config(SMALL + "campaign.algorithms = jpaim, nsp-jpaim, half-duplex\n"
                                 + "campaign.trace = true\n"), output_dir=str(tmp_path))
    (tmp_path / "iterations_nsp_jpaim.csv").write_text("an earlier version's trace\n")
    bad_seed = derive_seed(first.base_seed, 1)
    true_run = jpaim.run

    def flaky(realization, config):
        if realization.seed == bad_seed:
            raise RuntimeError("synthetic failure")
        return true_run(realization, config)

    with monkeypatch.context() as patch:
        patch.setattr(harness.jpaim, "run", flaky)
        run_campaign(first)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "errors.log", "iterations_half_duplex_dl.csv", "iterations_half_duplex_ul.csv",
        "iterations_jpaim.csv", "realizations.csv", "state_half_duplex_dl.csv",
        "state_half_duplex_ul.csv", "state_jpaim.csv"]
    run_campaign(replace(first, trace=False))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["realizations.csv"]


def test_an_interrupted_campaign_leaves_its_finished_seeds_whole(tmp_path, monkeypatch):
    # seed index 3's first solve raises KeyboardInterrupt, which _run_seed
    # does not catch, so the campaign ends there: each file it leaves is a
    # byte prefix of the full run's, holding exactly seed indexes 0-2, and an
    # earlier campaign's errors.log is gone
    cfg = replace(parse_config(SMALL + "campaign.algorithms = jpaim, nsp-jpaim, half-duplex\n"
                               "campaign.trace = true\n"), realizations=5)
    run_campaign(replace(cfg, output_dir=str(tmp_path / "full")))
    full = {p.name: p.read_text() for p in (tmp_path / "full").iterdir()}
    out = tmp_path / "cut"
    out.mkdir()
    (out / "errors.log").write_text("an earlier campaign's error\n")
    stop_seed, true_run = derive_seed(cfg.base_seed, 3), jpaim.run

    def interrupted(realization, config):
        if realization.seed == stop_seed:
            raise KeyboardInterrupt
        return true_run(realization, config)

    monkeypatch.setattr(harness.jpaim, "run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(replace(cfg, output_dir=str(out)))
    cut = {p.name: p.read_text() for p in out.iterdir()}
    assert sorted(cut) == sorted(full) and len(cut) == 7
    for name, text in full.items():
        assert text.startswith(cut[name])
        assert cut[name] == _through_seed(text, cfg, 2) != _through_seed(text, cfg, 1)


def test_an_interrupted_pool_campaign_leaves_no_worker(tmp_path):
    # the parent is interrupted as it logs seed index 1's INFO line: the
    # files hold seed indexes 0 and 1, and the pool closes on the way out
    cfg = replace(parse_config(SMALL + "campaign.trace = true\n"), realizations=4, workers=2)
    run_campaign(replace(cfg, workers=1, output_dir=str(tmp_path / "full")))

    def interrupt(record):
        if record.getMessage().startswith("realization 2/"):
            raise KeyboardInterrupt

    with _log_hook(interrupt), pytest.raises(KeyboardInterrupt):
        run_campaign(replace(cfg, output_dir=str(tmp_path / "cut")))
    assert multiprocessing.active_children() == []
    cut = {p.name: p.read_text() for p in (tmp_path / "cut").iterdir()}
    assert sorted(cut) == ["iterations_jpaim.csv", "realizations.csv", "state_jpaim.csv"]
    for name, text in cut.items():
        assert text == _through_seed((tmp_path / "full" / name).read_text(), cfg, 1)


def test_a_campaign_holds_no_finished_seed(tmp_path, monkeypatch):
    # as seed index k starts, no list holds a line of a seed before k - 1
    # (the loop still names seed k - 1's result while it waits for seed k)
    cfg = replace(parse_config(SMALL + "campaign.algorithms = jpaim, nsp-jpaim, half-duplex\n"
                               "campaign.trace = true\n"),
                  realizations=6, output_dir=str(tmp_path))
    true_seed, held = harness._run_seed, []

    def watched(args):
        gone = tuple(f"{derive_seed(cfg.base_seed, i)}," for i in range(args[1] - 1))
        gc.collect()
        held.append(sum(type(obj) is list and bool(obj) and type(obj[0]) is str
                        and obj[0].startswith(gone) for obj in gc.get_objects()))
        return true_seed(args)

    monkeypatch.setattr(harness, "_run_seed", watched)
    run_campaign(cfg)
    assert held == [0] * 6


def test_automatic_nsp_dimension_is_at_least_one(tmp_path):
    # with one BS transmit antenna, half of it rounds down to 0, which
    # nsp_project would refuse
    text = (SMALL.replace("bs_tx_antennas = 4", "bs_tx_antennas = 1")
            + "campaign.algorithms = nsp-jpaim\n")
    run_campaign(replace(parse_config(text), output_dir=str(tmp_path)))
    assert not (tmp_path / "errors.log").exists()
    assert len((tmp_path / "realizations.csv").read_bytes().splitlines()) == 2 + 3


def test_run_campaign_solves_jpaim_once_for_nsp(tmp_path, monkeypatch):
    # nsp-jpaim projects jpaim's own solution: with both configured, one
    # jpaim.run per seed serves both, plus the two half-duplex phases
    cfg = replace(parse_config(SMALL + "campaign.algorithms = jpaim, nsp-jpaim, half-duplex\n"
                               "campaign.trace = true\n"),
                  output_dir=str(tmp_path / "all"))
    true_run = jpaim.run
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].seed)
        return true_run(*args, **kwargs)

    monkeypatch.setattr(harness.jpaim, "run", counted)
    run_campaign(cfg)
    assert len(calls) == cfg.realizations * 3

    # alone, nsp-jpaim makes the same one solve per seed
    calls.clear()
    alone = replace(cfg, algorithms=("nsp-jpaim",), output_dir=str(tmp_path / "nsp"))
    run_campaign(alone)
    assert calls == [derive_seed(cfg.base_seed, i) for i in range(cfg.realizations)]
    _, rows = _read_csv(tmp_path / "all" / "realizations.csv")
    _, nsp_rows = _read_csv(tmp_path / "nsp" / "realizations.csv")
    shared = [r for r in rows if r["algorithm"] == "nsp-jpaim"]
    assert len(shared) == len(nsp_rows) == cfg.realizations
    assert shared == nsp_rows


def test_nsp_only_campaign_writes_its_solve_as_the_jpaim_trace(tmp_path):
    # the solve nsp-jpaim projects is the jpaim solve, so a campaign of
    # nsp-jpaim alone writes iterations_jpaim.csv and state_jpaim.csv, byte
    # for byte the files of a campaign with all three algorithms, rates
    # included
    cfg = replace(parse_config(SMALL + "campaign.algorithms = jpaim, nsp-jpaim, half-duplex\n"
                               "campaign.trace = true\n"),
                  output_dir=str(tmp_path / "all"))
    run_campaign(cfg)
    run_campaign(replace(cfg, algorithms=("nsp-jpaim",), output_dir=str(tmp_path / "nsp")))
    assert sorted(p.name for p in (tmp_path / "nsp").iterdir()) == [
        "iterations_jpaim.csv", "realizations.csv", "state_jpaim.csv"]
    for name in ("iterations_jpaim.csv", "state_jpaim.csv"):
        assert (tmp_path / "nsp" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
    _, irows = _read_csv(tmp_path / "nsp" / "iterations_jpaim.csv")
    assert all(np.isfinite(float(r["sum_rate"])) for r in irows)


def test_run_campaign_records_a_failed_draw_and_continues(tmp_path, monkeypatch):
    cfg = replace(parse_config(SMALL + "campaign.algorithms = jpaim, half-duplex\n"),
                  output_dir=str(tmp_path / "out"))
    bad_seed = derive_seed(cfg.base_seed, 1)
    true_build = harness.build_realization

    def flaky(scenario, seed):
        if seed == bad_seed:
            raise ValueError("synthetic draw failure")
        return true_build(scenario, seed)

    monkeypatch.setattr(harness, "build_realization", flaky)
    summary = run_campaign(cfg)
    _, rows = _read_csv(tmp_path / "out" / "realizations.csv")
    assert sorted({int(r["seed"]) for r in rows}) == sorted(
        derive_seed(cfg.base_seed, i) for i in (0, 2))
    log = (tmp_path / "out" / "errors.log").read_text().splitlines()
    assert log == [f"{bad_seed},jpaim,ValueError: synthetic draw failure",
                   f"{bad_seed},half-duplex,ValueError: synthetic draw failure"]
    assert [a.realizations for a in summary.algorithms] == [2, 2]


def test_complexity_estimator_hand_goldens():
    # all-ones case expanded by hand from the counting polynomials:
    # precoder: 1*1*(3*1 + 1*(2+3+6) + 1*(1+2) + 1) + (1 + 1 + 1)
    #         = (3 + 11 + 3 + 1) + 3 = 21
    # power:    1*1*(2*1 + 1*(1+5+2) + 1*(1+4+1) + 1 + 2 + 2) + (1 + 1 + 1)
    #         = (2 + 8 + 6 + 5) + 3 = 24
    est = complexity_estimate(1, 1, 1, 1, 1)
    assert (est.precoder_multiplications, est.power_multiplications,
            est.total) == (21, 24, 45)
    est = complexity_estimate(2, 2, 16, 2, 2)
    assert (est.precoder_multiplications, est.power_multiplications,
            est.total) == (71008, 49376, 120384)
    est = complexity_estimate(4, 10, 16, 1, 1)
    assert (est.precoder_multiplications, est.power_multiplications,
            est.total) == (610488, 413928, 1024416)
    assert est.order == "O(G K A_b^3)"
    assert "eigendecomposition" in est.note


def test_complexity_estimator_validation():
    with pytest.raises(ValueError):
        complexity_estimate(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        complexity_estimate(1, 1, 1, 1, 0)
