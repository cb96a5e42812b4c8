"""Randomized-interleaving properties of ``SignatureMatrix``.

A hypothesis-style loop (fixed seeds, no external dependency) drives random
sequences of single inserts, batched inserts, overwrites, removals, and
compactions against a plain-dictionary model, then checks that ``row``,
``gather``, ``rows``, and the packed-row invariants agree with the model
after every step.
"""

import random

import numpy as np
import pytest

from repro.core.indexes import SignatureMatrix
from repro.lake.datalake import AttributeRef

NUM_HASHES = 16


def _ref(index: int) -> AttributeRef:
    return AttributeRef(f"t{index % 7}", f"c{index}")


def _signature(rng: random.Random) -> np.ndarray:
    return np.array([rng.randrange(1 << 32) for _ in range(NUM_HASHES)], dtype=np.uint64)


def _check_against_model(matrix: SignatureMatrix, model: dict) -> None:
    assert len(matrix) == len(model)
    refs = matrix.refs
    assert set(refs) == set(model)
    rows = {}
    for ref, (values, degenerate) in model.items():
        row = matrix.row(ref)
        assert row is not None
        assert ref in matrix
        rows[ref] = row
        gathered_values, gathered_flags = matrix.gather(np.array([row], dtype=np.intp))
        assert np.array_equal(gathered_values[0], values)
        assert bool(gathered_flags[0]) == degenerate
    # Rows are packed: a permutation of range(len(model)).
    assert sorted(rows.values()) == list(range(len(model)))
    # refs property mirrors row order.
    for row, ref in enumerate(refs):
        assert rows[ref] == row
    # rows() maps ids to rows, -1 for an id without a row here.
    ghost = matrix._ids.assign(AttributeRef("ghost", "ghost"))
    probe = np.asarray([matrix._ids.find(ref) for ref in model] + [ghost], dtype=np.int64)
    assert matrix.rows(probe).tolist() == [rows[ref] for ref in model] + [-1]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_random_interleavings_round_trip(seed):
    rng = random.Random(seed)
    matrix = SignatureMatrix(NUM_HASHES, np.dtype(np.uint64))
    model = {}
    for step in range(300):
        action = rng.random()
        if action < 0.35:
            # Single insert or overwrite.
            ref = _ref(rng.randrange(40))
            values = _signature(rng)
            degenerate = rng.random() < 0.2
            matrix.add(ref, values, degenerate)
            model[ref] = (values, degenerate)
        elif action < 0.55:
            # Batched insert (may mix fresh refs, overwrites, and duplicates).
            count = rng.randrange(1, 6)
            refs = [_ref(rng.randrange(40)) for _ in range(count)]
            values = np.vstack([_signature(rng) for _ in range(count)])
            flags = np.array([rng.random() < 0.2 for _ in range(count)], dtype=bool)
            matrix.add_batch(refs, values, flags)
            for position, ref in enumerate(refs):
                model[ref] = (values[position], bool(flags[position]))
        elif action < 0.85:
            # Removal (sometimes of an absent ref — must be a no-op).
            ref = _ref(rng.randrange(50))
            matrix.discard(ref)
            model.pop(ref, None)
        else:
            matrix.compact()
        if step % 10 == 0:
            _check_against_model(matrix, model)
    _check_against_model(matrix, model)


@pytest.mark.parametrize("seed", [5, 23])
def test_export_import_round_trip_under_interleaving(seed):
    """export_state -> import_state is lossless at arbitrary interleaving points."""
    rng = random.Random(seed)
    matrix = SignatureMatrix(NUM_HASHES, np.dtype(np.uint64))
    model = {}
    for step in range(120):
        if rng.random() < 0.7:
            ref = _ref(rng.randrange(30))
            values = _signature(rng)
            matrix.add(ref, values, False)
            model[ref] = (values, False)
        else:
            ref = _ref(rng.randrange(30))
            matrix.discard(ref)
            model.pop(ref, None)
        if step % 30 == 29:
            refs, values, flags = matrix.export_state()
            clone = SignatureMatrix(NUM_HASHES, np.dtype(np.uint64))
            clone.import_state(refs, values, flags)
            _check_against_model(clone, model)
            # Byte-equal state on re-export.
            refs2, values2, flags2 = clone.export_state()
            assert refs == refs2
            assert values.tobytes() == values2.tobytes()
            assert flags.tobytes() == flags2.tobytes()


def test_import_state_rejects_inconsistent_shapes():
    matrix = SignatureMatrix(NUM_HASHES, np.dtype(np.uint64))
    with pytest.raises(ValueError):
        matrix.import_state(
            [AttributeRef("a", "b")],
            np.zeros((2, NUM_HASHES), dtype=np.uint64),
            np.zeros(2, dtype=bool),
        )


def test_compact_releases_capacity_without_changing_rows():
    rng = random.Random(99)
    matrix = SignatureMatrix(NUM_HASHES, np.dtype(np.uint64))
    model = {}
    for index in range(50):
        ref = _ref(index)
        values = _signature(rng)
        matrix.add(ref, values, False)
        model[ref] = (values, False)
    for index in range(0, 50, 2):
        matrix.discard(_ref(index))
        model.pop(_ref(index), None)
    before = {ref: matrix.row(ref) for ref in model}
    matrix.compact()
    assert matrix._matrix.shape[0] == len(model)
    assert {ref: matrix.row(ref) for ref in model} == before
    _check_against_model(matrix, model)
