"""Seeded instance generators."""

import hashlib
import random

import pytest

from mongecfl.generate import (random_lot_sizing, random_monge_instance,
                               random_two_class_instance,
                               random_windowed_instance)

# sha256 of ``_pinned_draws()``.  The benchmark's fixed instance sets
# and every seeded test depend on these draws, so a change to a
# generator must keep both the instances and the RNG calls.
PINNED_DIGEST = ("6db7a24b9c39d6408ec5e84db591abab"
                 "5efcfee857d6fa5e604f7a390e519bb6")


def _pinned_draws():
    """Seeded draws, each followed by the RNG state it leaves behind."""
    for feasible in (False, True):
        for seed in range(40):
            rng = random.Random(seed)
            m, n = 1 + seed % 5, 1 + seed % 6
            yield random_windowed_instance(rng, m, n, feasible=feasible)
            yield rng.getstate()
            yield random_two_class_instance(rng, m, n, feasible=feasible)
            yield rng.getstate()
    # the benchmark's calls: two-class degenerate and split seeds, and
    # the lot-sizing files of seeds 1 and 2
    for seed in range(10):
        rng = random.Random(seed)
        yield random_monge_instance(rng, rng.randint(3, 4), rng.randint(3, 4),
                                    feasible=True)
        yield rng.getstate()
    for seed in range(5):
        rng = random.Random(seed)
        yield random_two_class_instance(rng, 4, rng.randint(3, 4),
                                        feasible=True)
        yield rng.getstate()
    params = dict(max_cost=200, max_demand=30, max_capacity=60, feasible=True)
    for seed in (1, 2):
        rng = random.Random(f"lotsizing:{seed}")
        for horizon in [12] * 12 + [80] * 2:
            yield random_lot_sizing(rng, horizon, **params)
            yield rng.getstate()


def test_draws_match_pinned_digest():
    text = "\n".join(map(repr, _pinned_draws()))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


class CountingRandom(random.Random):
    """A Random that fails the test instead of drawing forever.  Every
    randint and randrange draw goes through getrandbits."""

    LIMIT = 10**4

    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def _count(self):
        self.draws += 1
        if self.draws > self.LIMIT:
            raise AssertionError(f"more than {self.LIMIT} draws")

    def getrandbits(self, k):
        self._count()
        return super().getrandbits(k)


def _two_facilities(generator, n, **kwargs):
    """Draws with 2 facilities of capacity at most 2 and n clients."""
    return lambda rng: generator(rng, 2, n, max_capacity=2, **kwargs)


# m * max_capacity = 4 units of capacity for 5 clients of demand >= 1
@pytest.mark.parametrize("draw", [
    _two_facilities(random_monge_instance, 5, feasible=True),
    _two_facilities(random_windowed_instance, 5, feasible=True),
    _two_facilities(random_two_class_instance, 5, feasible=True),
    lambda rng: random_lot_sizing(rng, 4, max_demand=0),
    lambda rng: random_lot_sizing(rng, 4, max_demand=0, feasible=True),
    lambda rng: random_lot_sizing(rng, 4, max_capacity=0, feasible=True),
], ids=["monge", "windowed", "two-class", "lot-sizing-no-demand",
        "lot-sizing-no-demand-feasible", "lot-sizing-no-capacity"])
def test_no_possible_draw_is_rejected(draw):
    rng = CountingRandom(0)
    with pytest.raises(ValueError):
        draw(rng)
    assert rng.draws == 0


# the same bounds where a draw exists still return one
@pytest.mark.parametrize("draw", [
    _two_facilities(random_monge_instance, 5),
    _two_facilities(random_windowed_instance, 5),
    _two_facilities(random_two_class_instance, 5),
    _two_facilities(random_monge_instance, 4, max_demand=1, feasible=True),
    _two_facilities(random_windowed_instance, 4, max_demand=1, feasible=True),
    _two_facilities(random_two_class_instance, 4, max_demand=1, feasible=True),
    lambda rng: random_lot_sizing(rng, 4, max_capacity=0),
    lambda rng: random_lot_sizing(rng, 4, max_demand=1, max_capacity=1,
                                  feasible=True),
])
def test_possible_draw_returns(draw):
    for seed in range(5):
        draw(CountingRandom(seed))
