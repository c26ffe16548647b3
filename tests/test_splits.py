import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encodebench as eb
from encodebench.errors import DataError
from oracles import plan_invariants_oracle


def _pereira_layout(n_categories, per_category, sentences=4):
    """Per-sample categories and passage ids, passages grouped by category."""
    n_passages = n_categories * per_category
    categories = np.repeat(np.arange(n_passages) // per_category, sentences)
    block_ids = np.repeat(np.arange(n_passages), sentences)
    return categories, block_ids


class TestPereira:
    def test_exp1_fold_counts(self):
        categories, blocks = _pereira_layout(24, 4)
        plan = eb.plan_pereira(categories, blocks)
        assert len(plan.outer_folds) == 8
        assert all(len(f.inner_folds) == 7 for f in plan.outer_folds)
        plan_invariants_oracle(plan, blocks)

    def test_exp2_fold_counts(self):
        categories, blocks = _pereira_layout(24, 3, sentences=3)
        plan = eb.plan_pereira(categories, blocks)
        assert len(plan.outer_folds) == 6
        assert all(len(f.inner_folds) == 5 for f in plan.outer_folds)
        plan_invariants_oracle(plan, blocks)

    def test_two_categories_exhaustive(self):
        categories, blocks = _pereira_layout(2, 4)
        plan = eb.plan_pereira(categories, blocks)
        plan_invariants_oracle(plan, blocks)
        for fold in plan.outer_folds:
            # one passage per selected category, halved -> 1 passage of 4 samples
            assert len(fold.test) == 4
            assert np.unique(blocks[fold.test]).size == 1

    def test_unequal_category_sizes_rejected(self):
        blocks = np.repeat(np.arange(5), 4)
        with pytest.raises(DataError):
            eb.plan_pereira(np.repeat([0, 0, 0, 1, 1], 4), blocks)

    def test_passage_with_two_categories_rejected(self):
        categories, blocks = _pereira_layout(4, 3)
        categories[1] = (categories[1] + 1) % 4  # second sample of passage 0
        with pytest.raises(DataError, match="passage 0 carries categories"):
            eb.plan_pereira(categories, blocks)

    def test_label_count_must_match_samples(self):
        categories, blocks = _pereira_layout(4, 3)
        with pytest.raises(DataError):
            eb.plan_pereira(categories[:-1], blocks)

    def test_one_passage_per_category_rejected(self):
        # P=1 gives 2 outer folds of 1 inner fold with no training rows
        categories, blocks = _pereira_layout(4, 1)
        with pytest.raises(DataError, match="no training"):
            eb.plan_pereira(categories, blocks)
        categories, blocks = _pereira_layout(4, 2)
        plan_invariants_oracle(eb.plan_pereira(categories, blocks), blocks)

    def test_seeded_selection_still_valid(self):
        categories, blocks = _pereira_layout(6, 4)
        plan = eb.plan_pereira(categories, blocks, seed=3)
        plan_invariants_oracle(plan, blocks)
        again = eb.plan_pereira(categories, blocks, seed=3)
        assert plan.to_dict() == again.to_dict()


class TestFedorenko:
    def test_fifty_two_sentence_fold_counts(self):
        blocks = np.repeat(np.arange(52), 8)
        plan = eb.plan_fedorenko(blocks)
        assert len(plan.outer_folds) == 13
        assert all(len(f.inner_folds) == 12 for f in plan.outer_folds)
        plan_invariants_oracle(plan, blocks)

    def test_eight_sentences(self):
        # 8 sentences leave each inner fold's 4 remaining sentences all in
        # validation, with no training rows; 9 is the minimum
        with pytest.raises(DataError, match="no training"):
            eb.plan_fedorenko(np.repeat(np.arange(8), 8))
        blocks = np.repeat(np.arange(9), 8)
        plan = eb.plan_fedorenko(blocks)
        assert len(plan.outer_folds) == 3
        assert all(f.train.size and f.validation.size
                   for fold in plan.outer_folds for f in fold.inner_folds)
        plan_invariants_oracle(plan, blocks)

    def test_no_sentence_crosses_boundary(self):
        blocks = np.repeat(np.arange(12), 8)
        plan = eb.plan_fedorenko(blocks)
        for fold in plan.outer_folds:
            test_sentences = set(blocks[fold.test])
            for inner in fold.inner_folds:
                assert not test_sentences & set(blocks[inner.train])
                assert not set(blocks[inner.train]) & set(blocks[inner.validation])

    def test_too_few_sentences_rejected(self):
        with pytest.raises(DataError):
            eb.plan_fedorenko(np.repeat(np.arange(4), 8))


class TestBlank:
    def test_eight_stories(self):
        lengths = [150, 160, 170, 155, 165, 175, 180, 162]
        blocks = np.repeat(np.arange(8), lengths)
        plan = eb.plan_blank(blocks)
        assert len(plan.outer_folds) == 8
        assert all(len(f.inner_folds) == 7 for f in plan.outer_folds)
        plan_invariants_oracle(plan, blocks)

    def test_three_stories(self):
        blocks = np.repeat(np.arange(3), [5, 6, 7])
        plan = eb.plan_blank(blocks)
        assert len(plan.outer_folds) == 3
        assert all(len(f.inner_folds) == 2 for f in plan.outer_folds)

    def test_test_set_is_exactly_one_story(self):
        lengths = [5, 6, 7, 8]
        blocks = np.repeat(np.arange(4), lengths)
        plan = eb.plan_blank(blocks)
        for story, fold in enumerate(plan.outer_folds):
            np.testing.assert_array_equal(
                fold.test, np.flatnonzero(blocks == story))

    def test_too_few_stories_rejected(self):
        with pytest.raises(DataError):
            eb.plan_blank(np.repeat([0, 1], 5))


class TestShuffle:
    def test_same_seed_identical(self, small_blocks):
        plan = eb.plan_grouped(small_blocks, 4, 3)
        a = eb.shuffle_plan(plan, 9)
        b = eb.shuffle_plan(plan, 9)
        assert a.to_dict() == b.to_dict()

    def test_fold_sizes_preserved(self, small_blocks):
        plan = eb.plan_grouped(small_blocks, 4, 3)
        shuffled = eb.shuffle_plan(plan, 1)
        assert shuffled.mode == "shuffled"
        for orig, shuf in zip(plan.outer_folds, shuffled.outer_folds):
            assert len(orig.test) == len(shuf.test)
            for io, isf in zip(orig.inner_folds, shuf.inner_folds):
                assert len(io.train) == len(isf.train)
                assert len(io.validation) == len(isf.validation)
        plan_invariants_oracle(shuffled)

    def test_different_seeds_differ(self):
        blocks = np.repeat(np.arange(25), 4)
        plan = eb.plan_grouped(blocks, 5, 4)
        a = eb.shuffle_plan(plan, 1)
        b = eb.shuffle_plan(plan, 2)
        assert a.to_dict() != b.to_dict()

    def test_breaks_contiguity(self, small_blocks):
        plan = eb.plan_grouped(small_blocks, 4, 3)
        shuffled = eb.shuffle_plan(plan, 0)
        crossings = 0
        for fold in shuffled.outer_folds:
            rest = np.setdiff1d(np.arange(plan.n_samples), fold.test)
            crossings += len(set(small_blocks[fold.test])
                             & set(small_blocks[rest]))
        assert crossings > 0


class TestGrouped:
    def test_basic(self, small_blocks):
        plan = eb.plan_grouped(small_blocks, 6, 5)
        assert len(plan.outer_folds) == 6
        assert all(len(f.inner_folds) == 5 for f in plan.outer_folds)
        plan_invariants_oracle(plan, small_blocks)

    def test_bad_parameters_rejected(self, small_blocks):
        with pytest.raises(DataError):
            eb.plan_grouped(small_blocks, 1, 2)
        with pytest.raises(DataError):
            eb.plan_grouped(small_blocks, 30, 2)
        with pytest.raises(DataError):
            eb.plan_grouped(small_blocks, 4, 1)


# Small fixed layouts with unsorted block ids, interleaved categories and
# uneven block lengths. The digests were recorded before the schemes shared
# one fold builder; fold order decides the order in which inner folds are
# pooled, and through it the chosen (gamma, alpha).
_P_IDS = [40, 12, 7, 33, 21, 2, 18, 29, 5, 14, 36, 9]
_P_CATS = [2, 0, 1, 3, 0, 2, 3, 1, 1, 0, 2, 3]
_P_LENS = [2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
_Q_IDS = [6, 1, 8, 3, 0, 9, 4, 7, 2, 5]
_Q_CATS = [4, 0, 3, 1, 2, 2, 0, 4, 1, 3]
_Q_LENS = [1, 2] * 5

PINNED_PLANS = {
    "pereira": "a720ee260f56c75aedc02339f34af23fa1a2e47dbbe2077fb4907bc958cb2e2d",
    "pereira-seed-7": "71b97294296bfd08cec97e8e87d75f51d0122afcbfd42e75e9c7ae8a9e96397d",
    "pereira-odd-seed-3": "81401dfbac86d37c16e68b9592631857083697b5f0df5368afd0a7981870bf14",
    "fedorenko": "ef22f9d472344cd13568477e90a5a607269452e58957ffe97f7ee39b3d530b43",
    "blank": "69021d591e3fe0591d923a89db5697ee8a18b90094ba1b659084d5de66e055cf",
    "grouped": "7a99f827a0855c52ad80e96a7f38a900812615fd54a3db2be016872f6f276eb0",
    "shuffled-grouped-7": "50a771961519552c72934b8042a2522d5a441022e2cabe08e1b5f9a6a40f7e12",
    "shuffled-pereira-1": "730765d63ec4372d4572d023d02d1ddf96bd64c05ab4b10b7c45b99066cae004",
}


def _pinned_plans():
    p_blocks = np.repeat(_P_IDS, _P_LENS)
    p_cats = np.repeat(_P_CATS, _P_LENS)
    plans = {
        "pereira": eb.plan_pereira(p_cats, p_blocks),
        "pereira-seed-7": eb.plan_pereira(p_cats, p_blocks, seed=7),
        "pereira-odd-seed-3": eb.plan_pereira(
            np.repeat(_Q_CATS, _Q_LENS), np.repeat(_Q_IDS, _Q_LENS), seed=3),
        "fedorenko": eb.plan_fedorenko(
            np.repeat([9, 4, 0, 7, 2, 8, 1, 6, 3, 5],
                      [2, 3, 4, 2, 3, 4, 2, 3, 4, 2])),
        "blank": eb.plan_blank(np.repeat([3, 1, 0, 2], [3, 5, 2, 4])),
        "grouped": eb.plan_grouped(
            np.repeat([10, 4, 7, 0, 9, 2, 8, 1, 6, 3, 5],
                      [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2]), 4, 3),
    }
    plans["shuffled-grouped-7"] = eb.shuffle_plan(plans["grouped"], 7)
    plans["shuffled-pereira-1"] = eb.shuffle_plan(plans["pereira"], 1)
    return plans


def test_plans_are_pinned():
    digests = {name: hashlib.sha256(json.dumps(plan.to_dict(), sort_keys=True)
                                    .encode()).hexdigest()
               for name, plan in _pinned_plans().items()}
    assert digests == PINNED_PLANS


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["pereira", "fedorenko", "blank", "grouped"]),
       st.integers(0, 10 ** 6))
def test_all_schemes_satisfy_invariants(scheme, seed):
    r = np.random.default_rng(seed)
    if scheme == "pereira":
        n_cats = int(r.integers(2, 7))
        per_cat = int(r.choice([3, 4]))
        sentences = int(r.integers(1, 5))
        categories, blocks = _pereira_layout(n_cats, per_cat, sentences)
        plan = eb.plan_pereira(categories, blocks)
    elif scheme == "fedorenko":
        n_sentences = int(r.integers(9, 30))
        blocks = np.repeat(np.arange(n_sentences), 8)
        plan = eb.plan_fedorenko(blocks)
    elif scheme == "blank":
        n_stories = int(r.integers(3, 9))
        lengths = r.integers(3, 12, size=n_stories)
        blocks = np.repeat(np.arange(n_stories), lengths)
        plan = eb.plan_blank(blocks)
    else:
        n_blocks = int(r.integers(6, 20))
        blocks = np.repeat(np.arange(n_blocks), r.integers(1, 5, size=n_blocks))
        n_outer = int(r.integers(2, 5))
        import math
        min_remaining = n_blocks - math.ceil(n_blocks / n_outer)
        n_inner = int(r.integers(2, min(4, min_remaining + 1)))
        plan = eb.plan_grouped(blocks, n_outer, n_inner)
    plan_invariants_oracle(plan, blocks)
    shuffled = eb.shuffle_plan(plan, seed)
    plan_invariants_oracle(shuffled)
