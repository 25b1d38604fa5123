"""Every exported name exists.

The packages export most names lazily (PEP 562) from a name -> module
table, so a name deleted from its module but left in a table -- or in a
module's ``__all__`` -- only fails when someone finally asks for it.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    ["repro", *(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))]
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names what it does not define: {missing}"
