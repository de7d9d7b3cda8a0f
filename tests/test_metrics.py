"""Macro F1 against an independent brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmn.errors import ContractError
from dpmn.metrics import confusion_matrix, macro_f1


def brute_force_macro_f1(predictions, gold, n_classes):
    """Per-class counting loops, independent of the confusion-matrix path."""
    scores = []
    for c in range(n_classes):
        tp = sum(1 for p, g in zip(predictions, gold) if p == c and g == c)
        fp = sum(1 for p, g in zip(predictions, gold) if p == c and g != c)
        fn = sum(1 for p, g in zip(predictions, gold) if p != c and g == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(scores) / n_classes


def test_perfect_predictions_score_one():
    assert macro_f1(confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)) == 1.0


def test_hand_computed_half():
    # both classes: precision 0.5, recall 0.5 -> F1 0.5 each
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 0, 1], 2)
    assert macro_f1(cm) == pytest.approx(0.5, abs=1e-15)


def test_all_one_class_on_balanced_data():
    # predicted class: precision 1/2, recall 1 -> F1 2/3; other class 0
    gold = [0] * 10 + [1] * 10
    assert macro_f1(confusion_matrix(gold, [0] * 20, 2)) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_matches_brute_force_oracle_on_random_cases(rng):
    for _ in range(200):
        c = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 200))
        gold = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        fast = macro_f1(confusion_matrix(gold, pred, c))
        slow = brute_force_macro_f1(pred.tolist(), gold.tolist(), c)
        assert abs(fast - slow) <= 1e-12


def test_class_absent_from_both_contributes_zero():
    # class 2 never appears: its F1 is 0 by the zero-division convention
    assert macro_f1(confusion_matrix([0, 1], [0, 1], 3)) == pytest.approx(2.0 / 3.0, abs=1e-15)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=60),
       st.randoms())
def test_permutation_invariance(pairs, shuffler):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    base = macro_f1(confusion_matrix(gold, pred, 3))
    order = list(range(len(pairs)))
    shuffler.shuffle(order)
    shuffled = confusion_matrix([gold[i] for i in order], [pred[i] for i in order], 3)
    assert macro_f1(shuffled) == base


def test_consistent_relabeling_invariance(rng):
    gold = rng.integers(0, 3, size=100)
    pred = rng.integers(0, 3, size=100)
    relabel = np.array([2, 0, 1])
    base = macro_f1(confusion_matrix(gold, pred, 3))
    relabeled = confusion_matrix(relabel[gold], relabel[pred], 3)
    assert macro_f1(relabeled) == pytest.approx(base, abs=1e-15)


def test_empty_input_gives_an_all_zero_matrix_that_scores_zero():
    cm = confusion_matrix([], [], 2)
    assert cm.dtype == np.int64 and np.array_equal(cm, np.zeros((2, 2)))
    assert macro_f1(cm) == 0.0


def test_out_of_range_class_rejected():
    with pytest.raises(ContractError):
        confusion_matrix([0, 2], [0, 1], 2)


def test_confusion_matrix_counts():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert np.array_equal(cm, [[1, 1], [0, 2]])
    assert cm.sum() == 4
