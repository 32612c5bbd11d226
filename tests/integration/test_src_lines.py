"""scripts/src_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "src_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = '''"""Module
docstring."""

# a comment
X = """not a
docstring"""


class A:
    """Class docstring."""

    def f(self):  # trailing comment
        """Function
        docstring."""
        return 1
'''
    net, code = _load().count(source)
    assert net == 15
    assert code == 5  # X's two lines, class, def, return
