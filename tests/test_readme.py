"""README's Python blocks run as written, and where a line ends in a
comment that is a Python literal, its expression evaluates to it."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def stated_values(block: str) -> dict[int, object]:
    """Line -> the literal that line's comment states, for each comment
    that is one (`# 13`, `# True`; not `# the two-point chain`)."""
    stated = {}
    for token in tokenize.generate_tokens(io.StringIO(block).readline):
        if token.type == tokenize.COMMENT:
            try:
                stated[token.start[0]] = ast.literal_eval(token.string[1:].strip())
            except (ValueError, SyntaxError):
                continue
    return stated


def test_the_readme_has_five_python_blocks_stating_five_values():
    assert len(BLOCKS) == 5
    assert sum(len(stated_values(block)) for block in BLOCKS) == 5


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_a_readme_block_runs_as_written(block):
    stated = stated_values(block)
    namespace: dict = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            if node.end_lineno in stated:
                assert value == stated[node.end_lineno], ast.unparse(node)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
