"""The package's export list: ``dqml.__all__`` names what ``dqml/__init__.py``
imports, each name once."""

import types

import dqml


def test_all_is_sorted_and_matches_the_public_names():
    names = dqml.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    # Submodules (dqml.qml, dqml.cli once imported, ...) are bound too, but are
    # not exported.
    public = {name for name, value in vars(dqml).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
