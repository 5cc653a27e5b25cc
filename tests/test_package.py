import qaoa_e3lin2


def test_every_exported_name_resolves():
    missing = [name for name in qaoa_e3lin2.__all__ if not hasattr(qaoa_e3lin2, name)]
    assert missing == []
    assert len(set(qaoa_e3lin2.__all__)) == len(qaoa_e3lin2.__all__)


def test_kernels_are_exported():
    kernels = ("term_parity", "parity_grid", "clause_parity", "code_bits", "objective_grid")
    assert set(kernels + ("sample_bits",)) <= set(qaoa_e3lin2.__all__)
