"""The package's public name list."""

import cmekit


def test_public_names_resolve_once_and_removed_aliases_stay_gone():
    # a stale entry in __all__ would break `from cmekit import *`
    assert [name for name in cmekit.__all__ if not hasattr(cmekit, name)] == []
    assert len(set(cmekit.__all__)) == len(cmekit.__all__)
    # one name per concept: model.transition, dataclasses.replace and embed_inner(a, a)
    for alias in ("cme_function", "with_alt", "embed_norm_sq"):
        assert not hasattr(cmekit, alias)
