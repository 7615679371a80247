"""Table 1: percentage of sessions per category and protocol split."""

from common import assert_claim, echo, heading

from repro.core.tables import table1_categories
from repro.workload.config import CATEGORY_MIX
from repro.workload.validation import paper_claim


def test_table1(dataset, store):
    t1 = table1_categories(store)
    heading("Table 1 — session categories",
            " / ".join(f"{cat} {paper_claim(f'{cat} share').text}"
                       for cat in CATEGORY_MIX)
            + f"; SSH {paper_claim('SSH share').text} overall")
    for cat in CATEGORY_MIX:
        echo(f"  {cat:<9} paper {paper_claim(f'{cat} share').paper:6.1%}  "
             f"measured {t1.overall[cat]:6.1%}  | SSH share paper "
             f"{paper_claim(f'{cat} SSH share').paper:6.1%} "
             f"measured {t1.ssh_share_of_category[cat]:6.1%}")
    assert_claim(dataset, "FAIL_LOG share")
    assert_claim(dataset, "SSH share")
