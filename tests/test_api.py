"""The package's export list: every listed name exists, none is listed twice."""

import lipnet


def test_all_names_resolve_and_are_unique():
    missing = [name for name in lipnet.__all__ if not hasattr(lipnet, name)]
    assert missing == []
    assert len(set(lipnet.__all__)) == len(lipnet.__all__)
