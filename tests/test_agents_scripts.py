"""Tests for the interaction-script library."""

from repro.agents.scripts import ScriptKind, build_script


class TestBuildScript:
    def test_recon_no_uris(self):
        script = build_script(ScriptKind.RECON, token="c1")
        assert script.lines
        assert script.dropper_uri is None

    def test_recon_variant_stable_in_token(self):
        a = build_script(ScriptKind.RECON, token="same")
        b = build_script(ScriptKind.RECON, token="same")
        assert a.lines == b.lines

    def test_key_inject_embeds_token(self):
        script = build_script(ScriptKind.KEY_INJECT, token="CAMP1")
        joined = "\n".join(script.lines)
        assert "CAMP1" in joined
        assert "authorized_keys" in joined

    def test_key_inject_distinct_tokens_distinct_keys(self):
        a = build_script(ScriptKind.KEY_INJECT, token="A")
        b = build_script(ScriptKind.KEY_INJECT, token="B")
        assert a.lines != b.lines

    def test_dropper_has_uri_and_payload(self):
        script = build_script(ScriptKind.DROPPER, token="H4", dropper_host="198.51.100.9")
        assert script.dropper_uri.startswith("http://198.51.100.9/")
        assert script.payload is not None
        assert script.payload.startswith(b"\x7fELF")

    def test_dropper_payload_deterministic(self):
        a = build_script(ScriptKind.DROPPER, token="H4")
        b = build_script(ScriptKind.DROPPER, token="H4")
        assert a.payload == b.payload

    def test_dropper_distinct_tokens_distinct_payloads(self):
        a = build_script(ScriptKind.DROPPER, token="H4")
        b = build_script(ScriptKind.DROPPER, token="H5")
        assert a.payload != b.payload

    def test_dropper_includes_busybox_probe(self):
        script = build_script(ScriptKind.DROPPER, token="x")
        assert any("busybox" in line for line in script.lines)

    def test_miner_script(self):
        script = build_script(ScriptKind.MINER, token="xm1")
        assert script.dropper_uri is not None
        assert b"xmrig" in script.payload

    def test_chpasswd_token_specific(self):
        a = build_script(ScriptKind.CHPASSWD, token="A")
        b = build_script(ScriptKind.CHPASSWD, token="B")
        assert a.lines != b.lines

    def test_file_token(self):
        script = build_script(ScriptKind.FILE_TOKEN, token="unique-xyz")
        assert any("unique-xyz" in line for line in script.lines)

    def test_fileless(self):
        script = build_script(ScriptKind.FILELESS, token="f1")
        assert script.lines

    def test_all_kinds_buildable(self):
        for kind in ScriptKind:
            assert build_script(kind, token="t").lines
