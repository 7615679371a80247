"""Run-ledger tests: schema, fold discipline, worker-count invariance.

The contract under test (DESIGN 6i): a ledger is a versioned JSONL
manifest whose canonical assembly order plus declared-volatile fields
make a workers=1 run and a workers=2 run of the same config strip to
byte-identical records — the same invariance bar the stores themselves
meet.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Metrics,
    RunLedger,
    get_ledger,
    read_ledger_jsonl,
    set_ledger,
    sha256_file,
    strip_volatile_records,
    use_ledger,
    use_metrics,
    validate_ledger,
)
from repro.obs.ledger import LEDGER_VERSION, RECORD_TYPES, VOLATILE_FIELDS
from repro.sched.backends import ShardTask


def _task(index: int, key: str = "k") -> ShardTask:
    return ShardTask(index=index, kind="bg", key=key, start=0, stop=10)


def _record_task(ledger: RunLedger, index: int, **kw) -> None:
    defaults = dict(sessions=5, attempt=1, worker="w", run_seconds=0.1,
                    queue_seconds=0.0)
    defaults.update(kw)
    ledger.record_task(_task(index), **defaults)


class TestAssembly:
    def test_minimal_ledger_is_header_env_only(self):
        records = RunLedger().to_records()
        assert [r["record"] for r in records] == ["ledger", "env"]
        assert records[0]["version"] == LEDGER_VERSION

    def test_canonical_record_order(self):
        with use_metrics():
            ledger = RunLedger()
            ledger.begin_run("generate")
            ledger.record_sched(backend="pool", workers=2, tasks=2)
            _record_task(ledger, 1)
            _record_task(ledger, 0)
            ledger.record_heartbeat({"worker": "w", "beat": 1})
            ledger.record_alert("stale-worker", "w silent")
            ledger.record_artifact("store", "out.npz", "ab" * 32)
            metrics = Metrics()
            with metrics.span("generate"):
                pass
            ledger.record_stages(metrics)
            ledger.finish("ok")
            records = ledger.to_records()
        kinds = [r["record"] for r in records]
        assert kinds == ["ledger", "run", "env", "sched", "stage",
                        "task", "task", "heartbeat", "alert",
                        "artifact", "final"]
        # recording order was 1 then 0; assembly is index order
        assert [r["index"] for r in records if r["record"] == "task"] \
            == [0, 1]
        assert validate_ledger(records) == []

    def test_task_rows_fold_last_wins(self):
        with use_metrics():
            ledger = RunLedger()
            _record_task(ledger, 3, attempt=1, sessions=5)
            _record_task(ledger, 3, attempt=2, sessions=5, worker="other")
        rows = [r for r in ledger.to_records() if r["record"] == "task"]
        assert len(rows) == 1
        assert rows[0]["attempt"] == 2
        assert rows[0]["worker"] == "other"

    def test_task_row_absorbs_telemetry(self):
        with use_metrics():
            ledger = RunLedger()
            _record_task(ledger, 0, telemetry={
                "telemetry_version": 1, "cpu_seconds": 0.5,
                "max_rss_kb": 1024,
            })
        row = [r for r in ledger.to_records() if r["record"] == "task"][0]
        assert row["cpu_seconds"] == 0.5
        assert row["max_rss_kb"] == 1024

    def test_stage_rollups_sorted_by_path(self):
        metrics = Metrics()
        with metrics.span("b"):
            pass
        with metrics.span("a"):
            with metrics.span("inner"):
                pass
        ledger = RunLedger()
        ledger.record_stages(metrics)
        paths = [r["path"] for r in ledger.to_records()
                 if r["record"] == "stage"]
        assert paths == sorted(paths)


class TestBeginRun:
    def test_first_call_pins_kind(self):
        ledger = RunLedger()
        ledger.begin_run("report")
        ledger.begin_run("generate", fingerprint="abc")
        run = [r for r in ledger.to_records() if r["record"] == "run"][0]
        assert run["kind"] == "report"
        assert run["fingerprint"] == "abc"

    def test_later_calls_only_fill_absent_fields(self):
        ledger = RunLedger()
        ledger.begin_run("generate", backend="inline", workers=1)
        ledger.begin_run("generate", backend="pool", workers=8,
                         fingerprint="abc")
        run = [r for r in ledger.to_records() if r["record"] == "run"][0]
        assert run["backend"] == "inline"
        assert run["workers"] == 1
        assert run["fingerprint"] == "abc"

    def test_config_serialised_as_plain_dict(self):
        from repro.workload import ScenarioConfig

        ledger = RunLedger()
        ledger.begin_run("generate", config=ScenarioConfig(seed=11))
        run = [r for r in ledger.to_records() if r["record"] == "run"][0]
        assert run["config"]["seed"] == 11
        json.dumps(run)  # must already be JSON-ready


class TestStripVolatile:
    def test_heartbeats_dropped_wholesale(self):
        ledger = RunLedger()
        ledger.record_heartbeat({"worker": "w", "beat": 1})
        stripped = strip_volatile_records(ledger.to_records())
        assert all(r["record"] != "heartbeat" for r in stripped)

    def test_declared_fields_dropped_others_kept(self):
        with use_metrics():
            ledger = RunLedger()
            ledger.begin_run("generate", backend="pool", workers=2,
                             fingerprint="abc")
            _record_task(ledger, 0, telemetry={"cpu_seconds": 0.5})
        stripped = strip_volatile_records(ledger.to_records())
        run = [r for r in stripped if r["record"] == "run"][0]
        assert "backend" not in run and "workers" not in run
        assert run["fingerprint"] == "abc"
        task = [r for r in stripped if r["record"] == "task"][0]
        assert "worker" not in task and "cpu_seconds" not in task
        assert task["index"] == 0 and task["sessions"] == 5
        env = [r for r in stripped if r["record"] == "env"][0]
        assert "pid" not in env and "hostname" not in env
        assert "python" in env

    def test_volatile_declaration_covers_every_record_type(self):
        # Every type is either wholesale-volatile or has a field
        # declaration (possibly empty) — no accidental fall-through.
        from repro.obs.ledger import VOLATILE_RECORDS

        for rtype in RECORD_TYPES:
            assert rtype in VOLATILE_RECORDS or rtype in VOLATILE_FIELDS


class TestValidate:
    def _valid(self) -> list:
        with use_metrics():
            ledger = RunLedger()
            ledger.begin_run("generate")
            _record_task(ledger, 0)
            ledger.finish("ok")
            return ledger.to_records()

    def test_valid_ledger_is_clean(self):
        assert validate_ledger(self._valid()) == []

    def test_empty_ledger_rejected(self):
        assert validate_ledger([]) == ["empty ledger (no header record)"]

    def test_missing_header_detected(self):
        records = self._valid()[1:]
        assert any("header" in p for p in validate_ledger(records))

    def test_unsupported_version_detected(self):
        records = self._valid()
        records[0] = dict(records[0], version=99)
        assert any("version" in p for p in validate_ledger(records))

    def test_unknown_record_type_detected(self):
        records = self._valid() + [{"record": "mystery"}]
        assert any("mystery" in p for p in validate_ledger(records))

    def test_missing_required_field_detected(self):
        records = self._valid()
        tasks = [r for r in records if r["record"] == "task"]
        tasks[0].pop("sessions")
        assert any("'sessions'" in p for p in validate_ledger(records))

    def test_duplicate_singleton_detected(self):
        records = self._valid()
        records.insert(2, {"record": "run", "kind": "generate"})
        assert any("at most one" in p for p in validate_ledger(records))

    def test_out_of_order_task_rows_detected(self):
        with use_metrics():
            ledger = RunLedger()
            _record_task(ledger, 0)
            _record_task(ledger, 1)
        records = ledger.to_records()
        tasks = [r for r in records if r["record"] == "task"]
        i, j = records.index(tasks[0]), records.index(tasks[1])
        records[i], records[j] = records[j], records[i]
        assert any("ascending" in p for p in validate_ledger(records))

    def test_final_not_last_detected(self):
        records = self._valid()
        records.append({"record": "alert", "kind": "k", "message": "m"})
        assert any("not last" in p for p in validate_ledger(records))


class TestSeam:
    def test_default_is_no_ledger(self):
        assert get_ledger() is None

    def test_use_ledger_swaps_and_restores(self):
        ledger = RunLedger()
        with use_ledger(ledger):
            assert get_ledger() is ledger
            with use_ledger(None):
                assert get_ledger() is None
            assert get_ledger() is ledger
        assert get_ledger() is None

    def test_set_ledger_returns_it(self):
        ledger = RunLedger()
        assert set_ledger(ledger) is ledger
        assert set_ledger(None) is None


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        with use_metrics():
            ledger = RunLedger()
            ledger.begin_run("generate", fingerprint="abc")
            _record_task(ledger, 0)
            ledger.finish("ok")
            target = tmp_path / "sub" / "ledger.jsonl"
            count = ledger.write_jsonl(target)
        records = read_ledger_jsonl(target)
        assert len(records) == count
        assert records == ledger.to_records()
        assert validate_ledger(records) == []

    def test_write_counts_into_metrics(self, tmp_path):
        metrics = Metrics()
        with use_metrics(metrics):
            ledger = RunLedger()
            ledger.write_jsonl(tmp_path / "ledger.jsonl")
        assert metrics.counter("ledger.writes") == 1
        assert metrics.counter("ledger.records") == 2

    def test_sha256_file_matches_hashlib(self, tmp_path):
        import hashlib

        target = tmp_path / "blob.bin"
        target.write_bytes(b"honeyfarm" * 1000)
        assert sha256_file(target) == \
            hashlib.sha256(target.read_bytes()).hexdigest()


class TestWorkerCountInvariance:
    """The tentpole contract, end to end through ``generate_scheduled``."""

    @pytest.fixture(scope="class")
    def ledgers(self):
        import repro.workload.shards as shards
        from repro.obs import Tracer, use_tracer
        from repro.sched import generate_scheduled
        from repro.workload import ScenarioConfig

        config = ScenarioConfig(scale=1 / 80000, seed=7, hash_scale=0.004)
        out = {}
        for backend, workers in (("inline", 1), ("pool", 2)):
            shards._PLAN = None
            ledger = RunLedger()
            with use_metrics(), use_tracer(Tracer()), use_ledger(ledger):
                ledger.begin_run("generate", config=config,
                                 backend=backend, workers=workers)
                dataset = generate_scheduled(config, backend=backend,
                                             workers=workers)
                ledger.record_store(dataset.content_digest(),
                                    len(dataset.store))
                ledger.finish("ok")
            out[backend] = ledger.to_records()
        return out

    def test_both_validate_clean(self, ledgers):
        for backend, records in ledgers.items():
            assert validate_ledger(records) == [], backend

    def test_stripped_ledgers_identical(self, ledgers):
        a = strip_volatile_records(ledgers["inline"])
        b = strip_volatile_records(ledgers["pool"])
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_store_digest_recorded_and_matching(self, ledgers):
        finals = [r for records in ledgers.values() for r in records
                  if r["record"] == "final"]
        assert len(finals) == 2
        assert finals[0]["store_sha256"] == finals[1]["store_sha256"]
        assert finals[0]["sessions"] == finals[1]["sessions"] > 0

    def test_task_rows_carry_telemetry(self, ledgers):
        for records in ledgers.values():
            tasks = [r for r in records if r["record"] == "task"]
            assert tasks
            for row in tasks:
                assert row["telemetry_version"] == 1
                assert row["cpu_seconds"] >= 0.0
                assert row["max_rss_kb"] > 0

    def test_heartbeat_trail_present(self, ledgers):
        for backend, records in ledgers.items():
            beats = [r for r in records if r["record"] == "heartbeat"]
            assert beats, backend
            workers = {b["worker"] for b in beats}
            expected = {"inline"} if backend == "inline" \
                else {"pool-0", "pool-1"}
            assert workers <= expected


class TestHealthAlertHandOff:
    def test_monitor_alerts_land_in_ledger(self):
        from repro.farm.health import FarmHealthMonitor, HealthConfig

        monitor = FarmHealthMonitor(HealthConfig(liveness_timeout=10.0))
        monitor.watch(["hp-1"])
        ledger = RunLedger()
        with use_metrics(), use_ledger(ledger):
            monitor.advance(0.0)  # anchors the liveness reference
            monitor.advance(1000.0)  # hp-1 never spoke: liveness-down
        alerts = [r for r in ledger.to_records() if r["record"] == "alert"]
        assert any(a["kind"] == "liveness-down" and
                   a["honeypot_id"] == "hp-1" for a in alerts)
        assert validate_ledger(ledger.to_records()) == []


class TestCliLedger:
    ARGS = ["--scale", "80000", "--hash-scale", "0.004", "--seed", "7"]

    def test_generate_writes_ledger_with_artifact(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "trace.npz"
        target = tmp_path / "ledger.jsonl"
        with use_metrics():
            assert main(["generate", *self.ARGS, "--workers", "1",
                         "--out", str(out), "--ledger", str(target)]) == 0
        records = read_ledger_jsonl(target)
        assert validate_ledger(records) == []
        run = [r for r in records if r["record"] == "run"][0]
        assert run["kind"] == "generate"
        assert run["fingerprint"]
        artifact = [r for r in records if r["record"] == "artifact"][0]
        assert artifact["name"] == "store"
        assert artifact["sha256"] == sha256_file(out)
        final = records[-1]
        assert final["record"] == "final" and final["status"] == "ok"
        assert final["store_sha256"]

    def test_report_env_var_arms_ledger(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        target = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(target))
        with use_metrics():
            assert main(["report", *self.ARGS]) == 0
        records = read_ledger_jsonl(target)
        assert validate_ledger(records) == []
        run = [r for r in records if r["record"] == "run"][0]
        assert run["kind"] == "report"
        # enrichment from api.generate: the fingerprint arrived even
        # though the CLI only knew the subcommand name
        assert run["fingerprint"]
