"""Tests for the honeyfarm's authentication policy."""

from repro.honeypot.auth import AuthPolicy


class TestAuthPolicy:
    def setup_method(self):
        self.policy = AuthPolicy()

    def test_root_with_any_password_succeeds(self):
        assert self.policy.check_password("root", "hunter2").success
        assert self.policy.check_password("root", "1234").success
        assert self.policy.check_password("root", "admin").success

    def test_root_root_rejected(self):
        # The one password the deployment rejects.
        result = self.policy.check_password("root", "root")
        assert not result.success
        assert result.reason == "rejected-password"

    def test_non_root_usernames_rejected(self):
        for username in ("admin", "user", "nproc", "pi", "ubuntu"):
            result = self.policy.check_password(username, "password")
            assert not result.success
            assert result.reason == "bad-username"

    def test_empty_password_rejected(self):
        assert not self.policy.check_password("root", "").success

    def test_result_carries_credentials(self):
        result = self.policy.check_password("root", "secret")
        assert result.username == "root"
        assert result.password == "secret"

    def test_custom_policy(self):
        policy = AuthPolicy(required_username="admin", rejected_password="admin")
        assert policy.check_password("admin", "x").success
        assert not policy.check_password("admin", "admin").success
        assert not policy.check_password("root", "x").success

    def test_max_attempts_default(self):
        assert self.policy.max_attempts == 3
