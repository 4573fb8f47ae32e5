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


def test_cli_table_lists_each_chain():
    # the hand-kept table of modes and stages follows the runner's CHAINS
    from synfocus.cli import CHAINS

    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| ([\w, ]+) \|", text, re.M)
    assert rows, "README.md has no table of modes and stages"
    table = {mode: tuple(s.strip() for s in stages.split(",")) for mode, stages in rows}
    assert len(table) == len(rows), "a mode is listed twice"
    assert table == CHAINS


def test_config_block_follows_the_code():
    # the block under "Keys and defaults" is a config of the defaults, and
    # its family comment lists the inversions that focus_kernel picks from
    from synfocus.cli import ExperimentConfig, parse_config
    from synfocus.focusing import _METHODS

    text = README.read_text(encoding="utf-8")
    match = re.search(r"Keys and defaults:\n+```\n(.*?)^```$", text, re.M | re.S)
    assert match, "README.md has no config block under 'Keys and defaults'"
    assert parse_config(match.group(1)) == ExperimentConfig()
    family = re.search(r"^family = \w+ +# (.*)$", match.group(1), re.M)
    assert family, "the config block has no family line"
    assert sorted(name.strip() for name in family.group(1).split("|")) == sorted(_METHODS)
