"""The package's public surface: each module's ``__all__``, re-exported once."""
import eitats
from eitats import fitter, lineshape, models, selection, simulation


def test_package_exports_each_modules_public_names_once():
    expected = ["__version__"]
    for module in (lineshape, models, fitter, selection, simulation):
        expected.extend(module.__all__)
    assert len(set(eitats.__all__)) == len(eitats.__all__)
    assert sorted(eitats.__all__) == sorted(expected)
    assert [name for name in eitats.__all__ if not hasattr(eitats, name)] == []
    namespace = {}
    exec("from eitats import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(eitats.__all__)
