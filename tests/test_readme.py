import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "README should hold exactly one python example"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
