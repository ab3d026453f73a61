"""The package's public names."""

import squadsim


def test_every_exported_name_resolves():
    names = squadsim.__all__
    assert [name for name in names if not hasattr(squadsim, name)] == []
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from squadsim import *", namespace)
    assert set(names) <= set(namespace)
