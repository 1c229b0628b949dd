import freecomm


def test_public_names_are_sorted_unique_and_resolve():
    names = freecomm.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(freecomm, name) is not None
