import dyadlab
from dyadlab import best_approx, dyadic, operators, verify, walsh

MODULES = (best_approx, dyadic, operators, verify, walsh)


def test_package_exports_the_union_of_module_names():
    assert dyadlab.__all__ == sorted(set().union(*(m.__all__ for m in MODULES)))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dyadlab, name) is getattr(module, name)
