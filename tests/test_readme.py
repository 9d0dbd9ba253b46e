"""The ``python`` blocks of README.md, run in order in one namespace.

The blocks are the documented library calls (the library sketch, the
Laurent entry point, a maximal parabolic of E7); running them keeps the
README in step with the library.
"""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_the_readme_python_blocks_run(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 3
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    # the output the Laurent block states in its comment
    assert capsys.readouterr().out == "0 R_K*xi_F(2)^2/(R*xi_F(4)*xi_K(2))\n"
