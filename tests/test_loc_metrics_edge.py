"""Edge cases for the Table 2 line-counting methodology."""

import ast

import pytest

from repro.bench.loc_metrics import (ComplexityRow, _module_source,
                                     count_logical_lines,
                                     model_complexity_table)
from repro.models import MODEL_REGISTRY


class TestLogicalLines:
    def test_empty_source(self):
        assert count_logical_lines("") == 0

    def test_only_comments_and_blanks(self):
        assert count_logical_lines("# a\n\n# b\n   \n") == 0

    def test_only_docstring(self):
        assert count_logical_lines('"""module docs\nover lines\n"""\n') == 0

    def test_nested_function_docstrings(self):
        src = (
            "def outer():\n"
            "    '''doc'''\n"
            "    def inner():\n"
            "        '''doc\n        doc'''\n"
            "        return 1\n"
            "    return inner\n"
        )
        assert count_logical_lines(src) == 4  # 2 defs + 2 returns

    def test_async_function_docstring(self):
        src = 'async def f():\n    """doc"""\n    return 1\n'
        assert count_logical_lines(src) == 2

    def test_semicolons_count_once(self):
        # One logical line regardless of statement packing — the "style
        # standardization" behaviour.
        assert count_logical_lines("a = 1; b = 2\n") == 1

    def test_decorators_count(self):
        src = "@property\ndef f(self):\n    return 1\n"
        assert count_logical_lines(src) == 3

    def test_multiline_string_data_counts_once(self):
        src = 'x = """line1\nline2\nline3"""\n'
        assert count_logical_lines(src) == 1

    def test_parenthesized_continuation_one_line(self):
        src = "value = (1 +\n         2 +\n         3)\n"
        assert count_logical_lines(src) == 1

    def test_backslash_continuation_one_line(self):
        src = "value = 1 + \\\n        2\n"
        assert count_logical_lines(src) == 1

    def test_class_attribute_docstringish_comment(self):
        # A bare string after an attribute is an expression statement, NOT a
        # docstring (only the first statement of a suite is).
        src = "class A:\n    x = 1\n    'not a docstring'\n"
        assert count_logical_lines(src) == 3


class TestGeneratorTwins:
    """No Table 2 module keeps a blocking ``X`` beside ``X_g``, so every
    function counts, whatever its name ends in."""

    def test_shmem_row_counts_its_single_element_get(self):
        # shmem_g is SHMEM's get (in API_CALLS), counted like any call.
        src = _module_source("repro.models.shmem")
        assert "def shmem_g(" in src
        rows = {r.model: r for r in model_complexity_table()}
        assert (rows["Cray put/get (shmem) API"].lines
                == count_logical_lines(src))

    @pytest.mark.parametrize("module", sorted(
        {m for m, _ in MODEL_REGISTRY.values()} | {"repro.models.forwarding"}))
    def test_no_table2_module_defines_a_twin(self, module):
        defs = (ast.FunctionDef, ast.AsyncFunctionDef)
        for scope in ast.walk(ast.parse(_module_source(module))):
            if isinstance(scope, (ast.Module, ast.ClassDef)):
                names = {n.name for n in scope.body if isinstance(n, defs)}
                assert not {n for n in names if n + "_g" in names}, (
                    getattr(scope, "name", module))


class TestComplexityRow:
    def test_zero_calls_is_nan(self):
        import math

        row = ComplexityRow(model="m", lines=10, api_calls=0)
        assert math.isnan(row.lines_per_call)
