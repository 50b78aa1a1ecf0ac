"""Command-line interface: subcommands, overrides, and exit codes."""

from pathlib import Path

import pytest

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
    cfg.write_text(CFG)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--trace",
                 "--algorithm", "jpaim", "--algorithm", "half-duplex"])
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

    # CSV-path form works too
    assert main(["summarize", "--in", str(out / "realizations.csv")]) == 0
    capsys.readouterr()


def test_simulate_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--realizations", "1", "--seed", "3", "--asic-db", "20"])
    assert code == 0
    body = (out / "realizations.csv").read_text().splitlines()
    assert len(body) == 3  # schema + header + one row
    from ibfdsim.harness import derive_seed
    assert body[2].startswith(str(derive_seed(3, 0)))
    # 0 is a seed like any other: it overrides the config's base seed too
    cfg.write_text(CFG + "campaign.base_seed = 5\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--realizations", "1", "--seed", "0"])
    assert code == 0
    body = (out / "realizations.csv").read_text().splitlines()
    assert body[2].startswith(str(derive_seed(0, 0)))


def test_exit_code_validation_errors(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.cells = -3\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    capsys.readouterr()
    assert main(["summarize", "--in", str(tmp_path / "void")]) == 1
    capsys.readouterr()
    # argparse misuse (unknown algorithm choice) also maps to 1
    assert main(["simulate", "--algorithm", "mystery"]) == 1
    capsys.readouterr()


def test_exit_code_runtime_failure(tmp_path, capsys):
    blocker = tmp_path / "block"
    blocker.write_text("a plain file where a directory must go")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(blocker / "nested")])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err
    # every run fails: both files are written, and the exit names the count
    cfg.write_text("solver.bisection_max_steps = 1\ncampaign.realizations = 2\n"
                   "campaign.algorithms = jpaim, half-duplex\n")
    out = tmp_path / "failed"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime failure" in err and "all 4 run(s) failed" in err and "errors.log" in err
    assert len((out / "errors.log").read_text().splitlines()) == 4
    assert len((out / "realizations.csv").read_text().splitlines()) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out
    assert main([]) == 1  # a subcommand is required
    capsys.readouterr()
