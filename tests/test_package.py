import haarq
from haarq import haar, quantizer, report_io, spectral


def test_every_public_name_resolves():
    for name in haarq.__all__:
        assert hasattr(haarq, name), name


def test_public_names_are_the_submodules():
    # A name that a submodule no longer exports must leave the package too.
    names = set()
    for module in (haar, quantizer, report_io, spectral):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        names.update(module.__all__)
    assert len(haarq.__all__) == len(set(haarq.__all__))
    assert set(haarq.__all__) == names
