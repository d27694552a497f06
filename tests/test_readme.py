"""The README's library sketch runs and its comments hold."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    names = {}
    exec(blocks[0], names)
    assert len(names["nabla"].vertices) == 6             # the dual hexagon
    assert names["inv"].chi_Y == names["inv"].chi_Ydual == 9
    assert names["ok"]
    assert names["gkz"].shape == (5, 6)
    assert names["np3"].dual.dual == names["np3"]
