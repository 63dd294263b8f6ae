"""The verdicts of tools/bench_pair.py, from made-up pair values."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import bench_pair  # noqa: E402

LOWER = {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.2}
HIGHER = {"name": "samples_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.2}


def test_a_faster_checkout_in_every_pair_is_a_clear_gain():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    root = [v - 1.0 for v in parent]
    verdict = bench_pair._compare(LOWER, parent, root)
    assert verdict["root_better_pairs"] == 10
    assert verdict["median_change"] == pytest.approx(0.1)
    assert verdict["within_bound"] and verdict["clear_gain"]


def test_a_higher_is_better_metric_counts_the_other_way():
    parent = [100.0] * 10
    verdict = bench_pair._compare(HIGHER, parent, [130.0] * 10)
    assert verdict["root_better_pairs"] == 10
    assert verdict["median_change"] == pytest.approx(0.3)
    # 30 % lower is past the 20 % bound
    verdict = bench_pair._compare(HIGHER, parent, [70.0] * 10)
    assert verdict["root_better_pairs"] == 0
    assert not verdict["within_bound"] and not verdict["clear_gain"]


def test_a_shift_inside_the_parents_spread_is_no_clear_gain():
    # better in 10 of 10 pairs, but by less than the parent's quartile
    # distance
    parent = [9.0, 11.0] * 5
    root = [v - 0.5 for v in parent]
    verdict = bench_pair._compare(LOWER, parent, root)
    assert verdict["root_better_pairs"] == 10
    assert verdict["within_bound"] and not verdict["clear_gain"]


def test_a_tree_leaves_out_the_spans(tmp_path):
    for root, text in ((tmp_path / "a", "x"), (tmp_path / "b", "y")):
        (root / "plain").mkdir(parents=True)
        (root / "plain" / "cell.csv").write_text("1,2\n")
        (root / "spans.jsonl").write_text(text)
    a, b = bench_pair._tree(tmp_path / "a"), bench_pair._tree(tmp_path / "b")
    assert list(a) == [os.path.join("plain", "cell.csv")] and a == b


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [5.0, 15.0] * 5
    verdict = bench_pair._compare(LOWER, parent, [v + 0.1 for v in parent])
    assert verdict["within_bound"] and verdict["unresolved"]
    # unless every run of the checkout beats every run of the parent
    verdict = bench_pair._compare(LOWER, parent, [4.0] * 10)
    assert not verdict["unresolved"]
