"""Figure 5: the session-classification flow (and its shares)."""

from common import echo, heading

from repro.core.classify import CATEGORIES, classify_store, category_shares


def test_fig05(store):
    codes = classify_store(store)
    heading("Figure 5 — session classification flow",
            "credentials? -> NO_CRED; success? -> FAIL_LOG; commands? -> "
            "NO_CMD; URI? -> CMD / CMD+URI")
    shares = category_shares(store)
    for cat in CATEGORIES:
        echo(f"  {cat.value:<9} {shares[cat]:6.2%}")
    assert len(codes) == len(store)
    assert sum(shares.values()) > 0.999
    # Every session lands in exactly one class.
    import numpy as np
    assert set(np.unique(codes)) <= {0, 1, 2, 3, 4}
