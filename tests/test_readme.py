import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_what_it_says():
    # the first python block after the "Library example" heading, run as
    # written; each print is followed by a comment naming what it prints
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["3", "True"]
    commented = re.findall(r"^print\(.*#\s*(\S+?),?(?:\s|$)", code, re.MULTILINE)
    assert commented == ["3", "True"]
