"""Every name a bosvs module imports is used or listed in its ``__all__``;
a ``noqa`` comment exempts nothing."""

import ast
import glob
import os

import bosvs


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split('.')[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                getattr(t, 'id', None) == '__all__' for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_checker_finds_an_unused_import():
    source = ("import os\nimport os.path as osp\nimport sys  # noqa\n"
              "from json import dumps, loads\n__all__ = ['dumps']\n"
              "osp.join('a')\n")
    assert unused_imports(source) == ['loads', 'os', 'sys']


def test_no_module_imports_an_unused_name():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(bosvs.__file__),
                                          '*.py')))
    assert len(paths) > 5
    for path in paths:
        with open(path) as fh:
            unused = unused_imports(fh.read())
        assert not unused, f"{os.path.basename(path)} imports {unused}"
