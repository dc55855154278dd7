"""The public surface: the package's star import and the README example."""

import ast
import re
from pathlib import Path

import fmzv

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_and_all():
    namespace = {}
    exec("from fmzv import *", namespace)  # a name that does not resolve fails here
    names = fmzv.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert namespace[name] is getattr(fmzv, name)


def test_readme_library_block():
    # run the block statement by statement; an expression statement's
    # trailing comment opens with the value it evaluates to
    section = README.read_text().split("## Library", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[node.lineno - 1].split("#", 1)[1]
        want = ast.literal_eval(re.match(r'\s*("[^"]*"|[^\s,]+)', comment).group(1))
        got = eval(code, namespace)
        assert got == want and type(got) is type(want), code
        checked.append(want)
    assert checked == [3, 3, 1, True, "13/54", True]
