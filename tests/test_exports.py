"""Every exported name resolves on its module."""

import importlib
import pkgutil

import bosvs


def test_every_exported_name_exists():
    modules = [bosvs] + [importlib.import_module(f'bosvs.{info.name}')
                         for info in pkgutil.iter_modules(bosvs.__path__)]
    for mod in modules:
        missing = [n for n in getattr(mod, '__all__', ())
                   if not hasattr(mod, n)]
        assert not missing, f"{mod.__name__}.__all__ names {missing}"
