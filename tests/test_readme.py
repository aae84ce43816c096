"""The README's "Library use" block runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_prints_its_commented_output():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each print(...) line ends in "# <the line it prints>"
    want = [ln.split("# ", 1)[1] for ln in block.splitlines() if ln.startswith("print(")]
    assert want == ["1 / (1-t^3)(1-t^2)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
