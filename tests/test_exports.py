import phasepos


def test_every_export_resolves_once():
    names = phasepos.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(phasepos, n)]
    assert not missing
