"""The package namespace: `from locdom import *` binds exactly `__all__`."""

import locdom


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from locdom import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(locdom.__all__)


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(set(locdom.__all__)) == len(locdom.__all__)
    for name in locdom.__all__:
        assert hasattr(locdom, name), name
