"""Package surface: every exported name exists."""

import betabound


def test_all_names_resolve():
    missing = [name for name in betabound.__all__ if not hasattr(betabound, name)]
    assert missing == []
    assert len(set(betabound.__all__)) == len(betabound.__all__)
