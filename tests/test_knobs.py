"""Knob inventory: every ``SSJ_*`` environment variable the library reads
is documented in README's "Tuning / debug knobs" section, and every knob
documented there is still read.  A deleted knob must leave the README with
its code; a new one must be documented (the bench-harness names listed
after "Bench harness:" belong to bench.py, not the library)."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_KNOB = re.compile(r'SSJ_[A-Z0-9_]+')


def _library_knobs() -> set:
    """String constants that are exactly an ``SSJ_*`` name: environment
    reads, never mentions inside comments or docstrings."""
    names = set()
    pkg = os.path.join(ROOT, 'py_stringsimjoin_ray')
    for dirpath, _dirs, files in os.walk(pkg):
        for fn in files:
            if not fn.endswith('.py'):
                continue
            with open(os.path.join(dirpath, fn), encoding='utf-8') as f:
                tree = ast.parse(f.read())
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
