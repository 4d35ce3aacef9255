"""The package's export list."""

import qperm


def test_every_exported_name_resolves():
    assert len(set(qperm.__all__)) == len(qperm.__all__)
    assert [name for name in qperm.__all__ if not hasattr(qperm, name)] == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from qperm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qperm.__all__)
