"""The README's library example runs, and its commented values hold."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block():
    """Run the ``python`` block statement by statement; every bare
    expression must be followed by ``# value``, and evaluate to that literal."""
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
            assert comment.startswith("#"), f"{code!r} has no '# value'"
            expected = ast.literal_eval(comment[1:].strip())
            assert eval(code, namespace) == expected, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
