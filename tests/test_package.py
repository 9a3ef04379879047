"""The package root re-exports exactly the public names of its modules."""

import diffwilson
from diffwilson import exact, identity, modular


def test_root_exports_every_module_name_once():
    modules = (exact, identity, modular)
    expected = [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert diffwilson.__all__ == expected
    assert len(set(diffwilson.__all__)) == len(diffwilson.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(diffwilson, name) is getattr(mod, name), name
    assert isinstance(diffwilson.__version__, str)
