"""Table 3: most popular commands (split at ';' and '|')."""

from common import echo, heading

from repro.core.tables import table3_commands


def test_table3(store):
    rows = table3_commands(store, 20)
    heading("Table 3 — most popular commands",
            "information gathering (uname/free/w/cat /proc/cpuinfo), "
            "script execution, remote file access, SSH-key and "
            "credential manipulation")
    for rank, (command, count) in enumerate(rows, start=1):
        shown = command if len(command) <= 60 else command[:57] + "..."
        echo(f"  {rank:2d}. {count:>8,}  {shown}")
    joined = " ".join(c for c, _ in rows)
    assert "uname" in joined
    assert any(k in joined for k in ("free", "cpuinfo"))
