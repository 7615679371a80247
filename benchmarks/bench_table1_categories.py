"""Table 1: percentage of sessions per category and protocol split."""

from common import echo, heading

from repro.core.tables import table1_categories

PAPER = {"NO_CRED": 0.277, "FAIL_LOG": 0.42, "NO_CMD": 0.116,
         "CMD": 0.18, "CMD_URI": 0.007}
PAPER_SSH = {"NO_CRED": 0.2182, "FAIL_LOG": 0.9924, "NO_CMD": 0.9830,
             "CMD": 0.9369, "CMD_URI": 0.6245}


def test_table1(store):
    t1 = table1_categories(store)
    heading("Table 1 — session categories",
            "NO_CRED 27.7% / FAIL_LOG 42% / NO_CMD 11.6% / CMD 18% / "
            "CMD+URI 0.7%; SSH 75.83% overall")
    for cat, paper in PAPER.items():
        echo(f"  {cat:<9} paper {paper:6.1%}  measured {t1.overall[cat]:6.1%}  "
              f"| SSH share paper {PAPER_SSH[cat]:6.1%} "
              f"measured {t1.ssh_share_of_category[cat]:6.1%}")
    echo(f"  SSH total: paper 75.8%  measured {t1.protocol_totals['ssh']:.1%}")
    assert abs(t1.overall["FAIL_LOG"] - PAPER["FAIL_LOG"]) < 0.05
    assert abs(t1.protocol_totals["ssh"] - 0.758) < 0.05
