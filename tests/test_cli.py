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

    def test_validate_is_incomplete_while_a_check_is_na(self, tmp_path,
                                                         capsys):
        # Seed 1 at 1/80000 passes every hard check.  A bare .npz carries
        # no intel DB, so the intel coverage check is n/a and the verdict
        # must not be PASSED; the full bundle measures it and passes.
        flags = ["--scale", "80000", "--seed", "1"]
        bare, bundle = tmp_path / "store.npz", str(tmp_path / "bundle") + "/"
        for out in (bare, bundle):
            assert main(["generate", *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", *flags, "--load", str(bare)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.rstrip().endswith(
            "calibration: INCOMPLETE (n/a: threat-intel hash coverage)")
        assert main(["validate", *flags, "--load", bundle]) == 0
        out = capsys.readouterr().out
        assert "[n/a]" not in out
        assert out.rstrip().endswith("calibration: PASSED")

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

    @pytest.mark.parametrize("existing", [True, False],
                             ids=["existing-dir", "trailing-slash"])
    def test_generate_into_directory_writes_the_bundle(self, tmp_path,
                                                       capsys, existing):
        # A directory --out gets the save_dataset bundle, so a later
        # --load keeps the intel DB a bare store cannot carry.
        from repro.workload.io import load_dataset

        bundle = tmp_path / "bundle"
        if existing:
            bundle.mkdir()
        out = str(bundle) if existing else str(bundle) + "/"
        assert main(["generate", "--scale", "80000", "--seed", "3",
                     "--hash-scale", "0.005", "--out", out]) == 0
        capsys.readouterr()
        assert bundle.is_dir()
        dataset = load_dataset(bundle)
        assert len(dataset.store) > 500
        assert len(dataset.intel) > 0
        assert main(["validate", "--scale", "80000", "--seed", "3",
                     "--load", str(bundle)]) in (0, 1)
        out = capsys.readouterr().out
        assert "threat-intel hash coverage" in out
        assert "[n/a]" not in out

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


class TestBrokenPipe:
    """A reader that closes stdout early (``| head -1``) is not an error."""

    @pytest.mark.parametrize("command", [["monitor", "--input"],
                                         ["top", "--once", "--input"]])
    def test_closed_stdout_exits_zero_and_quiet(self, tmp_path, command):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.obs import write_trace_jsonl
        from repro.obs.trace import Tracer

        tracer = Tracer()
        for i in range(40):
            tracer.emit("honeypot.session.connect", trace_id=f"session:s{i}",
                        sim_time=float(i), sensor=f"hp-{i}", session=f"s{i}",
                        src_ip=i)
        trace = tmp_path / "trace.jsonl"
        write_trace_jsonl(tracer.to_list(), str(trace))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *command, str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # before the child has written a byte
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert err == b""


@pytest.mark.parametrize("command", [["monitor", "--input"],
                                     ["top", "--once", "--input"]])
def test_tail_skips_lines_that_are_not_event_objects(tmp_path, capsys,
                                                     command):
    from repro.obs import use_metrics

    trace = tmp_path / "trace.jsonl"
    trace.write_text('3\n[1, 2]\nnot json\n\n'
                     '{"seq": 0, "wall": 0.0, "kind": "x"}\n')
    with use_metrics():
        assert main([*command, str(trace)]) == 0
    assert "warning: 3 unparseable lines skipped" in capsys.readouterr().err
