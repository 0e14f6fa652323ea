"""Each vpmerge module's ``__all__`` names exactly the public functions and
classes the module defines, so a deleted class leaves no export behind and a
new public function is not left out."""

import importlib
import inspect
import pkgutil

import pytest

import vpmerge

MODULES = [importlib.import_module(f"vpmerge.{m.name}")
           for m in pkgutil.iter_modules(vpmerge.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_the_public_definitions(module):
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert set(module.__all__) == defined
