"""Nested train/validation/test fold plans that keep blocks intact.

Every scheme produces outer folds whose test sets partition the samples,
each carrying inner folds whose validation sets partition the non-test
samples. Contiguous plans never put a block on both sides of a boundary;
``shuffle_plan`` deliberately destroys that property while preserving all
fold sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .features import block_runs


@dataclass
class InnerFold:
    train: np.ndarray
    validation: np.ndarray


@dataclass
class OuterFold:
    test: np.ndarray
    inner_folds: list[InnerFold]


@dataclass
class SplitPlan:
    outer_folds: list[OuterFold]
    mode: str  # "contiguous" | "shuffled"
    scheme: str  # "pereira" | "fedorenko" | "blank" | "generic-grouped"
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "mode": self.mode,
            "n_samples": self.n_samples,
            "outer_folds": [
                {
                    "test": fold.test.tolist(),
                    "inner_folds": [
                        {"train": f.train.tolist(), "validation": f.validation.tolist()}
                        for f in fold.inner_folds
                    ],
                }
                for fold in self.outer_folds
            ],
        }


def _blocks(block_ids) -> tuple[np.ndarray, list[int]]:
    """Per-sample block ids as int64, and the blocks in order of first
    appearance; raises unless every block is one contiguous run."""
    ids = np.asarray(block_ids, dtype=np.int64)
    return ids, [int(ids[start]) for start, _ in block_runs(ids)]


def _nested_plan(ids, blocks, scheme: str, outer, inner=None) -> SplitPlan:
    """The one fold builder behind every scheme.

    ``outer(blocks)`` groups the blocks into test sets; ``inner(remaining)``,
    by default ``outer``, groups each test set's remaining blocks into
    validation sets. Training takes every other remaining block, so no block
    is ever split across a boundary. Raises unless every outer fold has inner
    folds and every inner fold has training and validation rows.
    """
    inner = inner or outer
    outer_folds = []
    for test in outer(blocks):
        in_test = np.isin(ids, test)
        remaining = [b for b in blocks if b not in test]
        inner_folds = []
        for val in inner(remaining):
            in_val = np.isin(ids, val)
            inner_folds.append(InnerFold(train=np.flatnonzero(~(in_test | in_val)),
                                         validation=np.flatnonzero(in_val)))
        if not inner_folds or not all(f.train.size and f.validation.size
                                      for f in inner_folds):
            raise DataError(f"too few blocks for the {scheme} scheme: an inner "
                            "fold would have no training or validation rows")
        outer_folds.append(OuterFold(np.flatnonzero(in_test), inner_folds))
    return SplitPlan(outer_folds, "contiguous", scheme, int(ids.size))


def _chunks(size: int):
    """Groups of ``size`` consecutive blocks, the last one possibly shorter."""
    return lambda blocks: [blocks[i:i + size] for i in range(0, len(blocks), size)]


def plan_pereira(sample_categories, block_ids,
                 seed: Optional[int] = None) -> SplitPlan:
    """Category-balanced passage folds.

    Every sample of a passage (block) must carry the same category, and
    every category must hold the same number P of passages. Each outer fold
    selects one passage per category and designates the passages of one
    category half as the test set; inner folds repeat the construction on
    the remaining passages. This yields 2P outer folds of 2P-1 inner folds
    each (8/7 for P=4, 6/5 for P=3); P must be at least 2. Selection order is
    round-robin by passage index unless a seed is given.
    """
    ids, blocks = _blocks(block_ids)
    sample_categories = np.asarray(sample_categories, dtype=np.int64)
    if sample_categories.shape != ids.shape:
        raise DataError(f"{sample_categories.size} category labels for "
                        f"{ids.size} samples")
    by_category: dict[int, list[int]] = {}
    for passage in blocks:
        cats = np.unique(sample_categories[ids == passage])
        if cats.size != 1:
            raise DataError(f"passage {passage} carries categories "
                            f"{cats.tolist()}")
        by_category.setdefault(int(cats[0]), []).append(passage)
    cat_order = sorted(by_category)
    sizes = {c: len(v) for c, v in by_category.items()}
    if len(set(sizes.values())) != 1:
        raise DataError(f"unequal passages per category: {sizes}")

    if seed is not None:
        rng = np.random.default_rng(seed)
        cat_order = [cat_order[i] for i in rng.permutation(len(cat_order))]
        for cat in cat_order:
            passages = by_category[cat]
            by_category[cat] = [passages[i] for i in rng.permutation(len(passages))]

    split_at = math.ceil(len(cat_order) / 2)
    halves = [cat_order[:split_at], cat_order[split_at:]]
    if not halves[1]:
        raise DataError("need at least two categories")

    def groups(blocks, slot_major):
        # slot j of a half: the j-th remaining passage of each of its categories
        kept = set(blocks)
        slots = {c: [p for p in by_category[c] if p in kept] for c in cat_order}
        cells = [(h, j) for h, half in enumerate(halves)
                 for j in range(len(slots[half[0]]))]
        if slot_major:
            cells.sort(key=lambda cell: cell[1])
        return [[slots[c][j] for c in halves[h]] for h, j in cells]

    return _nested_plan(ids, blocks, "pereira", lambda b: groups(b, True),
                        lambda b: groups(b, False))


def plan_fedorenko(sentence_blocks) -> SplitPlan:
    """Four whole sentences per test fold; inner folds likewise. Needs at
    least 9 sentences, so that every inner fold keeps training sentences."""
    ids, sentences = _blocks(sentence_blocks)
    return _nested_plan(ids, sentences, "fedorenko", _chunks(4))


def plan_blank(story_ids) -> SplitPlan:
    """Leave-one-story-out outer folds, leave-one-remaining-story-out inner;
    needs at least 3 stories."""
    ids, stories = _blocks(story_ids)
    return _nested_plan(ids, stories, "blank", _chunks(1))


def plan_grouped(block_ids, n_outer: int, n_inner: int) -> SplitPlan:
    """Group k-fold over blocks for datasets without category, sentence,
    or story structure."""
    ids, blocks = _blocks(block_ids)
    n_blocks = len(blocks)
    if n_outer < 2 or n_outer > n_blocks:
        raise DataError(f"n_outer must be in [2, {n_blocks}]")
    min_remaining = n_blocks - math.ceil(n_blocks / n_outer)
    if n_inner < 2 or n_inner > min_remaining:
        raise DataError(
            f"n_inner must be in [2, {min_remaining}] so every inner fold "
            "keeps training blocks"
        )

    def split(n):
        return lambda blocks: [c.tolist() for c in np.array_split(blocks, n)]

    return _nested_plan(ids, blocks, "generic-grouped", split(n_outer),
                        split(n_inner))


def shuffle_plan(plan: SplitPlan, seed: int) -> SplitPlan:
    """Relabel samples by a seeded uniform permutation.

    Fold sizes are preserved exactly; block contiguity is deliberately
    destroyed, so samples from one block land on both sides of splits.
    """
    perm = np.random.default_rng(seed).permutation(plan.n_samples)

    def remap(indices: np.ndarray) -> np.ndarray:
        return np.sort(perm[indices])

    folds = [
        OuterFold(
            test=remap(fold.test),
            inner_folds=[
                InnerFold(train=remap(f.train), validation=remap(f.validation))
                for f in fold.inner_folds
            ],
        )
        for fold in plan.outer_folds
    ]
    return SplitPlan(folds, "shuffled", plan.scheme, plan.n_samples)
