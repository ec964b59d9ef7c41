import caches


def test_every_cache_is_named_in_one_list():
    # a new lru_cache must be sorted into one list, and a deleted one taken out
    listed = caches.GRID + caches.READER + caches.SHARED
    assert len(set(listed)) == len(listed), "a cache is named twice"
    assert sorted(caches.found()) == sorted(listed)
