import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noisecycle.cli import main
from noisecycle.harness import parse_csv


@pytest.fixture
def fig2_model_json(tmp_path):
    spec = {
        "m": 3,
        "mode": "explicit",
        "corr": [[1.0, float(np.sqrt(0.725)), 0.7],
                 [float(np.sqrt(0.725)), 1.0, float(np.sqrt(0.79))],
                 [0.7, float(np.sqrt(0.79)), 1.0]],
        "sigma2": 1.0,
        "power": [1.1, 1.0, 1.05],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestOrderCommand:
    def test_optimal_order_printed(self, fig2_model_json, capsys):
        assert main(["order", fig2_model_json]) == 0
        out = capsys.readouterr().out
        assert "0->2" in out
        assert "2->1" in out and "2->3" in out
        assert "total_snr,,,10" in out
        assert "decode_order,,,2 1 3" in out

    def test_forced_lead(self, fig2_model_json, capsys):
        assert main(["order", fig2_model_json, "--forced-lead", "1"]) == 0
        out = capsys.readouterr().out
        assert "0->1" in out
        assert "0->2" not in out and "0->3" not in out


class TestBadInputFiles:
    """``bler`` and ``order`` exit nonzero on a file they cannot use, with a
    message that names it and no traceback."""

    @staticmethod
    def _message(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert isinstance(exc.value.code, str)  # printed to stderr, status 1
        return exc.value.code

    @pytest.mark.parametrize("command", ["bler", "order"])
    @pytest.mark.parametrize("text, named", [
        ('{"m": 2,', "Expecting"),                 # malformed JSON
        ("[1, 2]", "expected a JSON object, got list"),
        (None, "No such file"),                    # missing path
    ])
    def test_unusable_file(self, tmp_path, command, text, named):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        message = self._message([command, str(path)])
        assert message.startswith(f"noisecycle {command}: {path}: ")
        assert named in message

    @pytest.mark.parametrize("spec, argv, named", [
        ({"m": 2, "mode": "gm"}, [], "'rho'"),
        ({"m": 2, "mode": "gm", "rho": 0.5, "sigma2": [1.0]}, [], "sigma2"),
        ({"m": 2, "mode": "gm", "rho": 0.5}, ["--forced-lead", "3"], "forced_lead"),
    ])
    def test_bad_channel_model(self, tmp_path, spec, argv, named):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        message = self._message(["order", str(path), *argv])
        assert message.startswith(f"noisecycle order: {path}: ")
        assert named in message


class TestBadTableOptions:
    """``rates``, ``bounds`` and ``capacity`` exit nonzero on an out-of-range
    option, with a message that names it and no traceback."""

    @pytest.mark.parametrize("argv, named", [
        (["rates", "--m", "2", "--rho-grid", "1", "--snr-grid", "1"], "--rho-grid"),
        (["bounds", "--rho-grid", "1", "--snr-grid", "1"], "--rho-grid"),
        (["rates", "--m", "0", "--rho-grid", "0.5", "--snr-grid", "1"], "--m"),
        (["rates", "--m", "2", "--rho-grid", "0.5", "--snr-grid", "-1"], "--snr-grid"),
        (["bounds", "--rho-grid", "0.5", "--snr-grid", "0"], "--snr-grid"),
        (["capacity", "--m", "2", "--rho", "1"], "--rho"),
        (["capacity", "--m", "0", "--rho", "0.5"], "--m"),
        (["capacity", "--m", "2", "--rho", "0.5", "--power", "0"], "--power"),
    ])
    def test_out_of_range_option(self, argv, named):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "noisecycle.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert f"argument {named}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestRatesCommand:
    def test_csv_shape_and_values(self, capsys):
        assert main(["rates", "--m", "4", "--rho-grid", "0,0.5",
                     "--snr-grid", "1,3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,rho,snr,lead_rate,recycled_rate,average_rate"
        assert len(lines) == 5
        row = dict(zip(lines[0].split(","), lines[4].split(",")))
        assert float(row["rho"]) == 0.5
        assert float(row["snr"]) == 3.0
        assert float(row["lead_rate"]) == pytest.approx(1.0)


class TestBoundsCommand:
    def test_gap_columns_consistent(self, capsys):
        assert main(["bounds", "--rho-grid", "0,0.6", "--snr-grid", "1,4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("rho,snr,independent_sum")
        for line in lines[1:]:
            rho, snr, indep, ach, bound, joint = map(float, line.split(","))
            assert bound >= ach - 1e-9
            assert ach >= indep - 1e-9


class TestTableOutput:
    """``rates`` and ``bounds`` write ``--output``, and exit with a message
    naming it, not a traceback, when it cannot be written."""

    COMMANDS = [["rates", "--m", "2", "--rho-grid", "0.5", "--snr-grid", "1"],
                ["bounds", "--rho-grid", "0.5", "--snr-grid", "1"]]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_output_written(self, argv, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main([*argv, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith(("m,rho,snr,", "rho,snr,"))

    @pytest.mark.parametrize("argv", COMMANDS)
    @pytest.mark.parametrize("where", ["directory", "under a file"])
    def test_unwritable_output_exits_naming_it(self, argv, where, tmp_path):
        (tmp_path / "afile").write_text("kept")
        out = tmp_path if where == "directory" else tmp_path / "afile" / "table.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "noisecycle.cli", *argv,
                               "--output", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert proc.stderr.startswith(f"noisecycle {argv[0]}: --output {out}: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert sorted(tmp_path.iterdir()) == [tmp_path / "afile"]
        assert (tmp_path / "afile").read_text() == "kept"


class TestCapacityCommand:
    def test_waterfill_report(self, capsys):
        assert main(["capacity", "--m", "2", "--rho", "0.5", "--power", "1"]) == 0
        out = capsys.readouterr().out
        assert "water_level,2" in out
        assert "capacity_bits,1.20752" in out


class TestBlerCommand:
    def test_end_to_end(self, tmp_path, capsys):
        config = {
            "channel": {"m": 2, "mode": "gm", "rho": 0.6},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1},
                      {"type": "rlc", "n": 32, "k": 26, "seed": 2}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}] * 2,
            "pipeline": {"mode": "static"},
            "sweep": {"ebn0_db": [6.0], "min_trials": 200, "max_trials": 200,
                      "min_block_errors": 1000000},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "out.csv"
        assert main(["bler", str(cfg_path), "--output", str(out_path)]) == 0
        stdout_points = parse_csv(capsys.readouterr().out)
        file_points = parse_csv(out_path.read_text())
        assert stdout_points == file_points
        assert len(file_points) == 2
        assert all(p.trials == 200 for p in file_points)
        assert (tmp_path / "out.csv.meta.json").exists()

    def test_unknown_key_exits_nonzero_naming_it(self, tmp_path):
        config = {
            "channel": {"m": 1, "mode": "gm", "rho": 0.0},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}],
            "sweep": {"ebn0_db": [3.0], "min_trial": 7},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "noisecycle.cli", "bler",
                               str(cfg_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert "'min_trial'" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("edit, named", [
        (lambda c: c["pipeline"].update(rerecylce=True), ["pipeline", "'rerecylce'"]),
        (lambda c: c["decoders"][0].update(max_queries=0), ["channel 1", "max_queries must be >= 1"]),
        (lambda c: c.pop("sweep"), ["experiment", "'sweep'"]),
        (lambda c: c["codes"].__setitem__(0, {"type": "alist", "alist_path": "missing.alist"}),
         ["channel 1", "alist_path 'missing.alist'"]),
        (lambda c: c["pipeline"].update(parents=[5]), ["parents", "[0, 1]"]),
        (lambda c: c.update(channel=5), ["channel must be an object, got 5"]),
        (lambda c: c.update(codes=3), ["codes must be a list, got 3"]),
        (lambda c: c.update(sweep=[1]), ["sweep must be an object, got [1]"]),
        (lambda c: c["sweep"].update(ebn0_db=[float("nan")]),
         ["ebn0_db entry must be finite, got nan"]),
        (lambda c: c["decoders"].__setitem__(0, {"type": "bp"}),
         ["channel 1", "a bp decoder needs a code with a sparse parity check"]),
        (lambda c: c.update(base_seed=-1), ["base_seed must be >= 0, got -1"]),
        (lambda c: c["sweep"].update(ebn0_db=[3.0, 3.0000001]),
         ["ebn0_db entry 3.0000001 prints as 3"]),
    ])
    def test_bad_descriptor_exits_before_any_trial(self, tmp_path, edit, named):
        config = {
            "channel": {"m": 1, "mode": "gm", "rho": 0.0},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}],
            "pipeline": {"mode": "static"},
            "sweep": {"ebn0_db": [3.0], "min_trials": 10**6, "max_trials": 10**6},
        }
        edit(config)
        self._exits_before_any_trial(tmp_path, config, named, {})

    def test_bad_worker_env_exits_before_any_trial(self, tmp_path):
        config = {
            "channel": {"m": 1, "mode": "gm", "rho": 0.0},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}],
            "sweep": {"ebn0_db": [3.0], "min_trials": 10**6, "max_trials": 10**6},
        }
        self._exits_before_any_trial(tmp_path, config, ["NOISECYCLE_WORKERS", "'abc'"],
                                     {"NOISECYCLE_WORKERS": "abc"})

    @pytest.mark.parametrize("argv, env, named", [
        (["--workers", "0"], {}, "workers must be >= 1, got 0"),
        (["--workers", "-3"], {}, "workers must be >= 1, got -3"),
        ([], {"NOISECYCLE_WORKERS": "0"}, "NOISECYCLE_WORKERS must be an integer >= 1, got '0'"),
        ([], {"NOISECYCLE_WORKERS": "-2"}, "NOISECYCLE_WORKERS must be an integer >= 1, got '-2'"),
    ])
    def test_worker_count_below_one_rejected(self, tmp_path, monkeypatch, argv, env, named):
        config = {
            "channel": {"m": 1, "mode": "gm", "rho": 0.0},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}],
            "sweep": {"ebn0_db": [3.0], "min_trials": 10, "max_trials": 10},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out_path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bler", str(cfg_path), "--output", str(out_path), *argv])
        assert exc.value.code == f"noisecycle bler: {cfg_path}: {named}"
        assert not out_path.exists()

    def test_directory_output_option_exits_before_any_trial(self, tmp_path):
        config = {
            "channel": {"m": 1, "mode": "gm", "rho": 0.0},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}],
            "sweep": {"ebn0_db": [3.0], "min_trials": 10**6, "max_trials": 10**6},
        }
        self._exits_before_any_trial(tmp_path, config, ["output_path", "is a directory"],
                                     {}, ["--output", str(tmp_path)])

    def test_output_option_under_a_file_exits_before_any_trial(self, tmp_path):
        config = {
            "channel": {"m": 1, "mode": "gm", "rho": 0.0},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}],
            "sweep": {"ebn0_db": [3.0], "min_trials": 10**6, "max_trials": 10**6},
        }
        (tmp_path / "afile").write_text("")
        self._exits_before_any_trial(tmp_path, config, ["output_path", "not a directory"],
                                     {}, ["--output", str(tmp_path / "afile" / "out.csv")])

    def test_negative_seed_option_exits_before_any_trial(self, tmp_path):
        config = {
            "channel": {"m": 1, "mode": "gm", "rho": 0.0},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}],
            "sweep": {"ebn0_db": [3.0], "min_trials": 10**6, "max_trials": 10**6},
        }
        self._exits_before_any_trial(tmp_path, config, ["base_seed must be >= 0, got -1"],
                                     {}, ["--seed", "-1"])

    @staticmethod
    def _exits_before_any_trial(tmp_path, config, named, extra_env, argv=()):
        """``noisecycle bler`` on ``config`` with the options ``argv`` exits
        nonzero, naming each of ``named``, with no traceback and no CSV."""
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "out.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p), **extra_env)
        proc = subprocess.run([sys.executable, "-m", "noisecycle.cli", "bler",
                               str(cfg_path), "--output", str(out_path), *argv],
                              capture_output=True, text=True, env=env, timeout=120,
                              cwd=tmp_path)
        assert proc.returncode != 0
        for text in named:
            assert text in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out_path.exists()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        config = {
            "channel": {"m": 1, "mode": "gm", "rho": 0.0},
            "codes": [{"type": "rlc", "n": 32, "k": 26, "seed": 1}],
            "decoders": [{"type": "orbgrand", "max_queries": 2000}],
            "pipeline": {"mode": "independent"},
            "sweep": {"ebn0_db": [3.0], "min_trials": 300, "max_trials": 300,
                      "min_block_errors": 1000000},
            "base_seed": 5,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        main(["bler", str(cfg_path)])
        first = capsys.readouterr().out
        main(["bler", str(cfg_path), "--seed", "6"])
        second = capsys.readouterr().out
        assert first != second
