from __future__ import annotations

import types

import relcalc


def test_all_lists_every_public_name_once():
    # every public binding of the package that is not a submodule, and only those
    names = relcalc.__all__
    assert len(names) == len(set(names))
    public = {name for name, value in vars(relcalc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public | {"__version__"}
    assert "members" in names
    assert "RelSet" not in names and "Numeral" not in names
