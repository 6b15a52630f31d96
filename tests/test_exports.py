"""Every exported name resolves on its module; the package exports its
modules."""

import importlib
import pkgutil
import subprocess
import sys

import bosvs


def test_every_exported_name_exists():
    modules = [bosvs] + [importlib.import_module(f'bosvs.{info.name}')
                         for info in pkgutil.iter_modules(bosvs.__path__)]
    for mod in modules:
        missing = [n for n in getattr(mod, '__all__', ())
                   if not hasattr(mod, n)]
        assert not missing, f"{mod.__name__}.__all__ names {missing}"


MODULES = ['bench', 'errors', 'inner', 'linops', 'outer', 'problem',
           'problem_io', 'prox']


def test_package_namespace_is_its_modules():
    assert bosvs.__all__ == MODULES + ['__version__']
    # a fresh import loads numpy, scipy and every module, which perfbench
    # times as import_s
    proc = subprocess.run([sys.executable, '-c',
                           'import sys, bosvs; print(*sys.modules)'],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert {'numpy', 'scipy'} <= loaded
    assert {n for n in loaded if n.startswith('bosvs.')} \
        == {f'bosvs.{m}' for m in MODULES}
