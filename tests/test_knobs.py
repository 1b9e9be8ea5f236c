"""Knob inventory: every ``SSJ_*`` environment variable the library reads
is documented in README's "Tuning / debug knobs" section, and every knob
documented there is still read.  A deleted knob must leave the README with
its code; a new one must be documented (the bench-harness names listed
after "Bench harness:" belong to bench.py, not the library).  The
environment is read in one library module and written in none: a gate is
a module constant that tests patch, not process-global state.  No task
asks for more CPUs than the session has."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_KNOB = re.compile(r'SSJ_[A-Z0-9_]+')


def _library_trees():
    """(path relative to the repo, AST) of every library module."""
    pkg = os.path.join(ROOT, 'py_stringsimjoin_ray')
    for dirpath, _dirs, files in os.walk(pkg):
        for fn in sorted(files):
            if fn.endswith('.py'):
                path = os.path.join(dirpath, fn)
                with open(path, encoding='utf-8') as f:
                    yield os.path.relpath(path, ROOT), ast.parse(f.read())


def _library_knobs() -> set:
    """String constants that are exactly an ``SSJ_*`` name: environment
    reads, never mentions inside comments or docstrings."""
    names = set()
    for _path, tree in _library_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _KNOB.fullmatch(node.value)):
                names.add(node.value)
    return names


def _readme_knobs() -> set:
    with open(os.path.join(ROOT, 'README.md'), encoding='utf-8') as f:
        text = f.read()
    start = text.index('## Tuning / debug knobs')
    end = text.index('Bench harness:', start)
    return set(_KNOB.findall(text[start:end]))


def test_library_knobs_match_readme():
    lib, doc = _library_knobs(), _readme_knobs()
    assert lib, 'no SSJ_* reads found'
    assert lib - doc == set(), f'read but not documented: {sorted(lib - doc)}'
    assert doc - lib == set(), f'documented but not read: {sorted(doc - lib)}'


def _is_environ(node) -> bool:
    """``os.environ`` / ``_os.environ`` or a bare imported ``environ``."""
    return (isinstance(node, ast.Attribute) and node.attr == 'environ') \
        or (isinstance(node, ast.Name) and node.id == 'environ')


_ENV_FUNCS = {'getenv', 'putenv', 'unsetenv'}


def test_one_module_reads_the_environment():
    touching = set()
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if _is_environ(node) or (
                    isinstance(node, (ast.Attribute, ast.Name))
                    and getattr(node, 'attr', getattr(node, 'id', None))
                    in _ENV_FUNCS):
                touching.add(path)
    assert touching == {os.path.join('py_stringsimjoin_ray', 'stages',
                                     'localjoin.py')}, sorted(touching)


def test_no_library_module_writes_the_environment():
    writes = []
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, 'targets', None) or [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for t in targets:
                if isinstance(t, ast.Subscript) and _is_environ(t.value):
                    writes.append((path, node.lineno))
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                f = node.func
                if (_is_environ(f.value) and f.attr in
                        ('pop', 'popitem', 'update', 'setdefault', 'clear')) \
                        or f.attr in ('putenv', 'unsetenv'):
                    writes.append((path, node.lineno))
    assert not writes, writes


def test_no_cpu_request_above_the_session():
    """Every ``num_cpus=`` keyword is a constant of at most 1: Ray keeps a
    task that asks for more CPUs than any node of the session has pending
    forever, and no library task uses a second CPU."""
    bad = []
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.keyword)
                    and node.arg == 'num_cpus'):
                continue
            v = node.value
            if not (isinstance(v, ast.Constant)
                    and isinstance(v.value, (int, float))
                    and v.value <= 1):
                bad.append(f'{path}:{v.lineno}')
    assert not bad, bad
