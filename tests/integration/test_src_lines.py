"""scripts/src_lines.py: what counts as a code line, and what it prints."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_main_lists_the_five_largest_modules(tmp_path, capsys):
    sizes = {"a.py": 3, "pkg/b.py": 7, "pkg/c.py": 1, "d.py": 5, "e.py": 9, "f.py": 2}
    for name, lines in sizes.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text("# note\n" + "x = 1\n" * (lines - 1))

    assert _load().main([str(tmp_path)]) == 0

    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"files : 6 under {tmp_path}"
    assert out[1] == "net   : 27 lines"
    assert out[2] == "code  : 21 lines (no blanks, comments or docstrings)"
    assert out[3] == "largest 5 (net / code lines):"
    assert [line.split() for line in out[4:]] == [
        ["9", "/", "8", "e.py"],
        ["7", "/", "6", "pkg/b.py"],
        ["5", "/", "4", "d.py"],
        ["3", "/", "2", "a.py"],
        ["2", "/", "1", "f.py"],
    ]


def test_help_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        _load().main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_a_path_that_is_not_a_directory_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exit_info:
        _load().main([str(missing)])
    assert exit_info.value.code != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{missing} is not a directory" in captured.err


def test_a_closed_pipe_ends_without_a_traceback(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1
