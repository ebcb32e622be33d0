"""Every exported name resolves, so a deleted helper cannot linger in ``__all__``."""

import importlib
import pkgutil

import pytest

import fcmlab

MODULES = ["fcmlab"] + sorted(
    info.name
    for info in pkgutil.iter_modules(fcmlab.__path__, "fcmlab.")
    if info.name != "fcmlab.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
