"""The public surface: the package's star import and the README example."""

import ast
import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmzv
from fmzv.records import (
    VerificationRecord,
    comparison_record,
    json_head,
    json_lines_at,
    skipped_record,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_and_all():
    namespace = {}
    exec("from fmzv import *", namespace)  # a name that does not resolve fails here
    names = fmzv.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert namespace[name] is getattr(fmzv, name)


SYMBOLIC_NAMES = ["anl_form_agreement", "gauss_terminating_check", "gf_coeff_series",
                  "gf_coefficient_check", "hypergeom_congruence_check", "pochhammer_poly",
                  "pole_weight", "pole_weight_product_form", "polylog_star_coeff"]


def test_symbolic_names_load_on_first_access():
    # in a fresh interpreter, since other tests load fmzv.symbolic: the
    # package imports without it, a missing name is an AttributeError that
    # loads nothing, and a star import loads it and binds its names
    code = textwrap.dedent(f"""\
        import sys
        import fmzv
        assert 'fmzv.symbolic' not in sys.modules
        try:
            getattr(fmzv, 'no_such_name')
        except AttributeError as err:
            assert str(err) == "module 'fmzv' has no attribute 'no_such_name'", err
        else:
            raise AssertionError('no AttributeError')
        assert not hasattr(fmzv, 'no_such_name')
        assert 'fmzv.symbolic' not in sys.modules
        namespace = {{}}
        exec('from fmzv import *', namespace)
        symbolic = sys.modules['fmzv.symbolic']
        for name in {SYMBOLIC_NAMES!r}:
            assert namespace[name] is getattr(symbolic, name), name
        assert set(fmzv.__all__) <= set(dir(fmzv))
        """)
    src = os.path.dirname(os.path.dirname(fmzv.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert set(SYMBOLIC_NAMES) <= set(fmzv.__all__)


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


def test_record_value_contract():
    # a VerificationRecord is an immutable value: keyword construction
    # fills the documented defaults, equal fields compare and hash equal,
    # it refuses attribute writes, survives pickling, and its repr names
    # every field
    rec = comparison_record("zsweep", "0", "0", p=5, k=3,
                            extra=(("zero", True), ("cross", "ok")))
    same = VerificationRecord(check="zsweep", p=5, k=3, lhs="0", rhs="0", passed=True,
                              extra=(("zero", True), ("cross", "ok")))
    assert rec == same and hash(rec) == hash(same)
    assert rec == pickle.loads(pickle.dumps(rec))
    assert rec != VerificationRecord(check="zsweep", p=7, k=3)
    bare = VerificationRecord(check="x")
    assert (bare.check, bare.p, bare.k, bare.s, bare.index, bare.lhs, bare.rhs,
            bare.passed, bare.skipped, bare.reason, bare.extra) == (
        "x", None, None, None, None, None, None, False, False, None, ())
    for mutate in (lambda: setattr(rec, "passed", False), lambda: delattr(rec, "p"),
                   lambda: setattr(rec, "other", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert rec.passed is True
    assert repr(rec) == (
        "VerificationRecord(check='zsweep', p=5, k=3, s=None, index=None, lhs='0', "
        "rhs='0', passed=True, skipped=False, reason=None, "
        "extra=(('zero', True), ('cross', 'ok')))")


# text that needs escaping: quotes, backslashes, control characters,
# DEL and non-ASCII (two-byte, three-byte and astral)
_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600a')
                | st.characters(), max_size=12)
# a record's two sides: skipped, equal or (mostly) unequal text
_SIDES = st.none() | _TEXT.map(lambda text: (text, text)) | st.tuples(_TEXT, _TEXT)


@settings(max_examples=400, deadline=None)
@given(check=_TEXT, k=st.none() | st.integers(0, 99), s=st.none() | st.integers(0, 99),
       index=st.none() | _TEXT, p=st.integers(2, 1 << 64), reason=_TEXT, sides=_SIDES)
def test_json_lines_at_are_the_json_lines_of_the_records(check, k, s, index, p, reason,
                                                         sides):
    # a sweep's line from its task's head and sides is json.dumps of the
    # dict of the record those give: skipped with the reason, or a
    # comparison
    if sides is None:
        rec = skipped_record(check, reason, p=p, k=k, s=s, index=index)
    else:
        rec = comparison_record(check, *sides, p=p, k=k, s=s, index=index)
    lines, failed = json_lines_at(p, [json_head(check, k, s, index)], [reason], [sides])
    assert lines == [json.dumps(rec.to_json_dict(), separators=(",", ":")) + "\n"]
    assert failed == (not rec.passed)
