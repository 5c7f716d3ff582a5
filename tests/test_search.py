import pytest

from lcdlab.search import SearchBudget, search_lcd


def test_witnesses_found():
    for n, k, d in ((17, 4, 8), (18, 4, 8), (19, 5, 8), (20, 5, 9)):
        code = search_lcd(n, k, d, SearchBudget(rng_seed=2024))
        assert code is not None, (n, k, d)
        assert code.n == n and code.k == k
        assert code.min_weight() >= d and code.is_lcd()


def test_deterministic_under_seed():
    a = search_lcd(20, 5, 9, SearchBudget(rng_seed=7))
    b = search_lcd(20, 5, 9, SearchBudget(rng_seed=7))
    assert a == b and a is not None


def test_above_griesmer_rejected():
    with pytest.raises(ValueError, match="Griesmer"):
        search_lcd(22, 4, 12)


def test_d_below_one_rejected():
    with pytest.raises(ValueError, match="d >= 1"):
        search_lcd(10, 3, 0)


def test_nonexistent_not_found():
    budget = SearchBudget(max_iterations=3000, rng_seed=5, restarts=40)
    assert search_lcd(22, 4, 11, budget) is None


def test_budget_caps_work():
    budget = SearchBudget(max_iterations=1, rng_seed=0, restarts=1)
    # may or may not find in one step, but must terminate and verify
    code = search_lcd(17, 4, 2, budget)
    if code is not None:
        assert code.min_weight() >= 2 and code.is_lcd()
    with pytest.raises(ValueError):
        SearchBudget(max_iterations=0)
