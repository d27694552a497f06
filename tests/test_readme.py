"""The README's library sketch runs and its comments hold, and the
package root exports exactly the names it binds."""
import re
from pathlib import Path
from types import ModuleType

import nefmirror

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    names = {}
    exec(blocks[0], names)
    assert len(names["nabla"].vertices) == 6             # the dual hexagon
    assert names["inv"]["chi_Y"] == names["inv"]["chi_Ydual"] == 9
    assert names["ok"]
    assert names["gkz"].shape == (5, 6)
    assert names["np3"].dual.dual == names["np3"]


def test_all_lists_every_public_name_the_package_root_binds_once():
    # an export left in __all__ after its import is gone, or an import
    # that is never exported, fails here
    public = {name for name, value in vars(nefmirror).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert len(nefmirror.__all__) == len(set(nefmirror.__all__))
    assert set(nefmirror.__all__) == public
