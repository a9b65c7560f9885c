"""The package's public surface: every exported name exists."""

from __future__ import annotations

import flexk3


def test_import_star_resolves_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from flexk3 import *", namespace)
    for name in flexk3.__all__:
        assert getattr(flexk3, name) is namespace[name]
