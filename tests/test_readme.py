import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    # the documented API stays runnable: the sketch's own assert checks
    # the plane-wave roundtrip
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library sketch\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert match, "README.md has no python block under '## Library sketch'"
    exec(compile(match.group(1), f"{README.name} (Library sketch)", "exec"), {})
