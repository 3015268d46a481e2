"""The package's public surface."""

import heatlab


def test_every_public_name_resolves():
    missing = [name for name in heatlab.__all__ if not hasattr(heatlab, name)]
    assert not missing, f"__all__ names without a binding: {missing}"
    assert len(set(heatlab.__all__)) == len(heatlab.__all__)
