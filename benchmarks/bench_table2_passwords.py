"""Table 2: top-10 most used successful passwords."""

from common import echo, heading

from repro.core.tables import table2_passwords

PAPER_TOP10 = ["admin", "1234", "3245gs5662d34", "dreambox",
               "vertex25ektks123", "12345", "h3c", "1qaz2wsx3edc",
               "passw0rd", "GM8182"]


def test_table2(store):
    rows = table2_passwords(store, 10)
    heading("Table 2 — top successful passwords", ", ".join(PAPER_TOP10))
    measured = [p for p, _ in rows]
    for rank, (password, count) in enumerate(rows, start=1):
        marker = "*" if password in PAPER_TOP10 else " "
        echo(f"  {rank:2d}. {password:<18} {count:>7,} {marker}")
    overlap = len(set(measured) & set(PAPER_TOP10))
    echo(f"  overlap with paper top-10: {overlap}/10")
    assert overlap >= 8
    assert measured[0] == "admin"
