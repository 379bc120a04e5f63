"""The sign rule's bounded cache.

`calculus._contract` and `calculus._merge_indices` are pure functions of two
small index sets, kept behind a `functools.lru_cache` of fixed size.  Every
cached answer must be the uncached function's, and the cache must stay
bounded however many index sets are asked for.
"""

from itertools import combinations

from holomult.calculus import _contract, _merge_indices


def index_sets(n):
    return [key for grade in range(n + 1) for key in combinations(range(1, n + 1), grade)]


def test_cached_answers_are_the_uncached_ones():
    sets = index_sets(5)
    for left in sets:
        for right in sets:
            for cached in (_contract, _merge_indices):
                assert cached(left, right) == cached.__wrapped__(left, right)
                assert cached(left, right) == cached.__wrapped__(left, right)  # a hit


def test_the_caches_are_bounded():
    sets = index_sets(7)
    for cached in (_contract, _merge_indices):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16
        for left in sets:
            for right in sets[:40]:
                cached(left, right)
        assert cached.cache_info().currsize <= maxsize
