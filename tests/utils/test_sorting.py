"""``stable_order``: a stable argsort that narrows small keys to ``int16``."""

import numpy as np
import pytest

from repro.utils.sorting import stable_order


@pytest.mark.parametrize("bound", [1, 2, 300, 32_767, 32_768, 32_769, 70_000])
def test_matches_a_stable_argsort_either_side_of_the_int16_bound(bound):
    rng = np.random.default_rng(bound)
    keys = np.concatenate(
        (rng.integers(0, bound, 5000), [bound - 1, 0, bound - 1, 0])
    )
    assert np.array_equal(
        stable_order(keys, bound), np.argsort(keys, kind="stable")
    )


def test_empty_keys():
    assert stable_order(np.empty(0, dtype=np.int64), 10).size == 0
