"""The package's export list names what it exports."""
import pasrec


def test_every_exported_name_resolves():
    assert len(set(pasrec.__all__)) == len(pasrec.__all__)
    missing = [name for name in pasrec.__all__ if not hasattr(pasrec, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pasrec import *", namespace)
    assert set(pasrec.__all__) <= namespace.keys()
