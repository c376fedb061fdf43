"""Implementation-complexity measurement (Table 2).

The paper counts each model layer's size with "a simple script that first
removes comments and empty lines, and then (to a certain degree)
standardizes the coding style". The Python analogue implemented here:

* comments and blank lines are removed (tokenize-level),
* docstrings are removed (they are documentation, not implementation),
* multi-line statements are *normalized to one logical line* (the style
  standardization — bracket continuation style stops mattering).

``lines`` is therefore the count of logical statements terminating in a
NEWLINE token, minus docstring statements.
"""

from __future__ import annotations

import ast
import importlib
import io
import tokenize
from dataclasses import dataclass
from typing import List, Optional, Set

__all__ = ["count_logical_lines", "ComplexityRow", "model_complexity_table"]


def _docstring_lines(source: str) -> Set[int]:
    """Physical line numbers occupied by docstring statements."""
    out: Set[int] = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = getattr(node, "body", [])
            if body and isinstance(body[0], ast.Expr) and isinstance(
                    body[0].value, ast.Constant) and isinstance(
                    body[0].value.value, str):
                expr = body[0]
                for line in range(expr.lineno, expr.end_lineno + 1):
                    out.add(line)
    return out


def _twin_kernel_lines(source: str) -> Set[int]:
    """Physical line numbers of ``*_g`` generator-kernel twins.

    The continuation engine requires every blocking operation to carry a
    ``*_g`` twin that yields instead of blocking; the blocking form and its
    twin are the *same* API operation, so Table 2 counts the blocking
    surface only — tallying both would double-count each call. A function
    is a twin only when its class (or module) also defines the un-suffixed
    name: SHMEM's single-element get ``shmem_g`` is an API call, not a twin.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out: Set[int] = set()
    tree = ast.parse(source)
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        names = {n.name for n in scope.body if isinstance(n, defs)}
        for node in scope.body:
            if isinstance(node, defs) and node.name.endswith("_g") \
                    and node.name[:-2] in names:
                start = node.lineno
                if node.decorator_list:
                    start = min(d.lineno for d in node.decorator_list)
                out.update(range(start, node.end_lineno + 1))
    return out


def count_logical_lines(source: str, *, include_g_twins: bool = True) -> int:
    """Logical (normalized) lines of code in ``source``."""
    doc_lines = _docstring_lines(source)
    if not include_g_twins:
        doc_lines = doc_lines | _twin_kernel_lines(source)
    count = 0
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    line_start: Optional[int] = None
    for tok in tokens:
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENCODING,
                        tokenize.ENDMARKER):
            continue
        if line_start is None:
            line_start = tok.start[0]
        if tok.type == tokenize.NEWLINE:
            # One logical line just ended; skip it if it was a docstring.
            if line_start not in doc_lines:
                count += 1
            line_start = None
    return count



@dataclass
class ComplexityRow:
    """One Table 2 row."""

    model: str
    lines: int
    api_calls: int

    @property
    def lines_per_call(self) -> float:
        return self.lines / self.api_calls if self.api_calls else float("nan")


#: shared infrastructure attributed to the models that need it (the
#: command-forwarding facility the thread APIs build, §5.2)
_EXTRA_FILES = {
    "POSIX threads": ["repro.models.forwarding"],
    "WIN32 threads": ["repro.models.forwarding"],
}


def _module_source(module_name: str) -> str:
    module = importlib.import_module(module_name)
    with open(module.__file__, "r", encoding="utf-8") as fh:
        return fh.read()


def model_complexity_table() -> List[ComplexityRow]:
    """Measure every Table 2 model layer of this repository."""
    from repro.models import MODEL_REGISTRY, load_model

    rows: List[ComplexityRow] = []
    for display_name, (module_name, _cls) in MODEL_REGISTRY.items():
        cls = load_model(display_name)
        lines = count_logical_lines(_module_source(module_name),
                                    include_g_twins=False)
        for extra in _EXTRA_FILES.get(display_name, ()):
            lines += count_logical_lines(_module_source(extra),
                                         include_g_twins=False)
        rows.append(ComplexityRow(model=display_name, lines=lines,
                                  api_calls=cls.api_call_count()))
    return rows
