"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from tests.metrics_delta import delta_since


class TestCli:
    def test_report(self, capsys):
        assert main(["report", "--scale", "40000", "--seed", "3",
                     "--hash-scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out
        assert "SSH share" in out

    def test_generate_npz(self, tmp_path, capsys):
        out_path = tmp_path / "trace.npz"
        assert main(["generate", "--scale", "40000", "--seed", "3",
                     "--hash-scale", "0.005", "--out", str(out_path)]) == 0
        assert out_path.exists()
        from repro.store.npz import load_npz
        store = load_npz(out_path)
        assert len(store) > 1000

    def test_generate_jsonl(self, tmp_path):
        out_path = tmp_path / "trace.jsonl.gz"
        assert main(["generate", "--scale", "80000", "--seed", "3",
                     "--hash-scale", "0.005", "--out", str(out_path)]) == 0
        from repro.store.io import read_jsonl
        store = read_jsonl(out_path)
        assert len(store) > 500

    def test_tables(self, capsys):
        assert main(["tables", "--scale", "40000", "--seed", "3",
                     "--hash-scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 6" in out
        assert "H1" in out

    def test_validate(self, capsys):
        code = main(["validate", "--scale", "20000", "--seed", "99",
                     "--hash-scale", "0.008"])
        out = capsys.readouterr().out
        assert "calibration:" in out
        assert code == 0, out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_report_cache_dir_hit(self, tmp_path, capsys):
        from repro.obs import get_metrics

        args = ["report", "--scale", "80000", "--seed", "3",
                "--hash-scale", "0.005", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        snapshot = get_metrics().to_dict()
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        delta = delta_since(get_metrics(), snapshot)
        assert delta["counters"].get("cache.hits") == 1

    def test_report_cache_env_var(self, tmp_path, monkeypatch, capsys):
        from repro.obs import get_metrics

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        args = ["report", "--scale", "80000", "--seed", "4",
                "--hash-scale", "0.005"]
        assert main(args) == 0
        snapshot = get_metrics().to_dict()
        assert main(args) == 0
        capsys.readouterr()
        assert delta_since(get_metrics(), snapshot)["counters"].get(
            "cache.hits") == 1

    def test_report_load_npz(self, tmp_path, capsys):
        trace = tmp_path / "trace.npz"
        assert main(["generate", "--scale", "80000", "--seed", "3",
                     "--hash-scale", "0.005", "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", "--scale", "80000", "--seed", "3",
                     "--load", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "SSH share" in out

    def test_tables_load_dataset_dir(self, tmp_path, capsys):
        import repro
        from repro.workload import ScenarioConfig
        from repro.workload.io import save_dataset

        dataset = repro.generate(
            ScenarioConfig(scale=1 / 80000, seed=3, hash_scale=0.005))
        save_dataset(dataset, tmp_path / "bundle")
        assert main(["tables", "--scale", "80000", "--seed", "3",
                     "--load", str(tmp_path / "bundle")]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_load_rejects_unknown_format(self, tmp_path):
        bogus = tmp_path / "trace.csv"
        bogus.write_text("nope")
        with pytest.raises(SystemExit):
            main(["report", "--scale", "80000", "--load", str(bogus)])

    def test_default_generate_writes_the_pinned_store(self, tmp_path,
                                                       monkeypatch):
        # No --workers and no --backend: the one sharded draw order, on
        # the bytes the store goldens pin.
        from repro.store.npz import load_npz
        from tests.test_golden_digests import GOLDEN

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        out_path = tmp_path / "trace.npz"
        assert main(["generate", "--scale", "40000", "--seed", "2023",
                     "--out", str(out_path)]) == 0
        assert load_npz(out_path).content_digest() == \
            GOLDEN[(40000, 2023, 0.002)]

    def test_serial_backend_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--backend", "serial", "--out", "x.npz"])
        assert exc.value.code == 2
        assert "invalid choice: 'serial'" in capsys.readouterr().err


class TestScaleFlag:
    @pytest.mark.parametrize("value", [
        "nan", "inf", "-inf", "0.5", "0", "-4000", "1/4000", "0.00025",
        "four",
    ])
    def test_rejects_anything_but_a_finite_denominator(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", f"--scale={value}", "--out", "x.npz"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--scale takes the downscale denominator" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value, denominator", [
        ("4000", 4000.0), ("1", 1.0), ("2.5e4", 25000.0),
    ])
    def test_accepts_a_finite_denominator(self, value, denominator):
        import argparse

        from repro.__main__ import _config, _scale

        assert _scale(value) == denominator
        args = argparse.Namespace(scale=_scale(value), seed=1,
                                  hash_scale=None)
        assert _config(args).scale == 1.0 / denominator

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "x"])
    def test_rejects_a_bad_hash_scale(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", f"--hash-scale={value}", "--out", "x.npz"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--hash-scale takes the unique-hash budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "two"])
    def test_rejects_a_bad_worker_count(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", f"--workers={value}", "--out", "x.npz"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers takes a worker-process count" in err
        assert "Traceback" not in err


class TestMonitorSecondsFlags:
    @pytest.mark.parametrize("flag", [
        "--interval", "--duration", "--liveness-timeout",
    ])
    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "x"])
    def test_rejects_anything_but_positive_finite_seconds(self, flag, value,
                                                          capsys):
        # --interval 0 would spin the monitor forever and a negative
        # --duration would schedule the demo's sessions in the past.
        with pytest.raises(SystemExit) as exc:
            main(["monitor", f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: takes simulated seconds" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value, seconds", [
        ("60", 60.0), ("0.5", 0.5), ("1e3", 1000.0),
    ])
    def test_accepts_positive_finite_seconds(self, value, seconds):
        from repro.__main__ import _sim_seconds

        assert _sim_seconds(value) == seconds
