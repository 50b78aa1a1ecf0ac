"""Command-line interface: subcommands, the config file as simulate's one
input for campaign values (with `--out` for its output directory), and exit
codes."""

import re
from pathlib import Path

import pytest

from ibfdsim import jpaim
from ibfdsim.cli import main

CFG = """
scenario.cells = 1
scenario.dl_users = 1
scenario.ul_users = 1
scenario.bs_tx_antennas = 4
scenario.bs_rx_antennas = 4
scenario.dl_streams = 1
scenario.ul_streams = 1
solver.max_iterations = 5
campaign.realizations = 2
"""
ONE_REALIZATION = CFG.replace("campaign.realizations = 2", "campaign.realizations = 1")


def test_complexity_subcommand(capsys):
    code = main(["complexity", "--cells", "2", "--users", "2", "--bs-antennas", "16",
                 "--ue-antennas", "2", "--streams", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "precoder_multiplications = 71008" in out
    assert "power_multiplications = 49376" in out
    assert "total = 120384" in out
    assert "order = O(G K A_b^3)" in out


def test_complexity_rejects_bad_counts(capsys):
    code = main(["complexity", "--cells", "0", "--users", "1", "--bs-antennas", "1",
                 "--ue-antennas", "1", "--streams", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_and_summarize_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG + "campaign.trace = true\ncampaign.algorithms = jpaim, half-duplex\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert (out / "realizations.csv").is_file()
    assert (out / "iterations_jpaim.csv").is_file()
    assert (out / "iterations_half_duplex_dl.csv").is_file()
    assert "algorithm" in stdout
    assert f"wrote {out}/realizations.csv" in stdout

    code = main(["summarize", "--in", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "jpaim" in stdout and "half-duplex" in stdout
    # summarize reads a campaign directory, not the CSV in it
    assert main(["summarize", "--in", str(out / "realizations.csv")]) == 1
    assert "no data to summarize" in capsys.readouterr().err


def test_simulate_overrides(tmp_path):
    # the config file sets every campaign value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ONE_REALIZATION + "campaign.base_seed = 3\nscenario.asic_db = 20\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    body = (out / "realizations.csv").read_text().splitlines()
    assert len(body) == 3  # schema + header + one row
    from ibfdsim.harness import derive_seed
    assert body[2].startswith(str(derive_seed(3, 0)))
    # 0 is a seed like any other
    cfg.write_text(ONE_REALIZATION + "campaign.base_seed = 0\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    body = (out / "realizations.csv").read_text().splitlines()
    assert body[2].startswith(str(derive_seed(0, 0)))


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--realizations", "1"],
                                  ["--algorithm", "jpaim"], ["--asic-db", "20"],
                                  ["--workers", "1"], ["--trace"]])
def test_simulate_has_no_flag_for_a_config_value(tmp_path, capsys, flag):
    # a campaign value has one input path, the config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), *flag]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (out / "realizations.csv").exists()


def test_exit_code_validation_errors(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.cells = -3\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    capsys.readouterr()
    assert main(["summarize", "--in", str(tmp_path / "void")]) == 1
    capsys.readouterr()
    # argparse misuse (an unknown option) also maps to 1
    assert main(["simulate", "--algorithm", "mystery"]) == 1
    capsys.readouterr()


def test_simulate_refuses_a_scenario_without_linear_units(tmp_path, capsys):
    # each of these used to load, run every seed and fail each one's draw
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    for line, quantity in (("bs_power_dbm = 4000", "p_bs_w"),
                           ("rician_k_db = 4000", "rician_k"),
                           ("asic_db = -4000", "si_gain"),
                           ("ue_noise_figure_db = 4000", "noise_ue_w"),
                           ("noise_density_dbm_hz = -4000", "noise_bs_w"),
                           ("bs_power_dbm = -4000", "p_bs_w")):
        cfg.write_text(CFG + f"scenario.{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {quantity} " in capsys.readouterr().err
        assert not out.exists()


def test_simulate_rejects_an_empty_out(tmp_path, capsys, monkeypatch):
    # `--out ""` used to write realizations.csv into the working directory
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ONE_REALIZATION)
    assert main(["simulate", "--config", str(cfg), "--out", ""]) == 1
    assert "campaign.output_dir" in capsys.readouterr().err
    assert not (tmp_path / "realizations.csv").exists()


def test_exit_code_runtime_failure(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "block"
    blocker.write_text("a plain file where a directory must go")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(blocker / "nested")])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err
    # every run fails (no multiplier search may finish): both files are
    # written, and the exit names the count
    monkeypatch.setattr(jpaim, "SEARCH_MAX_EVALUATIONS", 1)
    cfg.write_text("campaign.realizations = 2\ncampaign.algorithms = jpaim, half-duplex\n")
    out = tmp_path / "failed"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime failure" in err and "all 4 run(s) failed" in err and "errors.log" in err
    assert len((out / "errors.log").read_text().splitlines()) == 4
    assert len((out / "realizations.csv").read_text().splitlines()) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out
    # simulate's options are the config file and the output directory
    assert main(["simulate", "--help"]) == 0
    assert re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M) == ["--config", "--out"]
    assert main([]) == 1  # a subcommand is required
    capsys.readouterr()
