"""The seed decides the inputs: the same seed gives identical tables and
experiment order, another seed gives other tables."""
import pandas as pd

from perfbench.spark_plane import SCHEDULES, generate, table_seed

TABLES = ["customer", "lineitem", "orders"]


def test_same_seed_same_tables():
    _, a, _ = generate(TABLES, seed=7)
    _, b, _ = generate(TABLES, seed=7)
    for name in TABLES:
        pd.testing.assert_frame_equal(a[name], b[name])


def test_other_seed_other_tables():
    _, a, _ = generate(["lineitem"], seed=7)
    _, b, _ = generate(["lineitem"], seed=8)
    assert not a["lineitem"].equals(b["lineitem"])


def test_sizes_are_sf_0_1():
    _, t, _ = generate(TABLES, seed=1)
    assert {n: len(df) for n, df in t.items()} == {
        "lineitem": 600_000, "orders": 150_000, "customer": 15_000}


def test_each_table_gets_its_own_seed():
    seeds = {table_seed(3, n) for n in TABLES}
    assert len(seeds) == len(TABLES)
    assert table_seed(3, "orders") == table_seed(3, "orders")


def test_sim_order_is_a_function_of_the_seed():
    import random

    from perfbench.sim_paper import EXPERIMENTS

    def order(seed):
        o = list(EXPERIMENTS)
        random.Random(seed).shuffle(o)
        return o

    assert order(5) == order(5)
    assert sorted(order(5)) == sorted(EXPERIMENTS)


def test_dop_schedules():
    assert SCHEDULES == {"Q2J": [4, 8, 16, 32], "Q3": [4, 8, 16, 32]}
