import tailfolio


def test_every_public_name_resolves_once():
    # a name deleted from the package but left in __all__ fails here, not at
    # a user's `from tailfolio import *`
    missing = [name for name in tailfolio.__all__ if not hasattr(tailfolio, name)]
    assert missing == []
    assert len(tailfolio.__all__) == len(set(tailfolio.__all__))
