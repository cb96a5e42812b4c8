"""The compact index: every signature is stored once, at the width of its values.

A MinHash signature (N, V, F) lives as one ``uint32`` matrix row plus its
forest's big-endian ``>u4`` tree rows; a random-projection signature (E) as
one matrix row of bits packed 8 to a byte plus one byte per bit in its
forest.  Nothing else holds a per-item signature array: not the indexes, not
the forests (whose rank keys are views of their key rows), not a loaded
engine, not an attached snapshot — whose array sections are exactly the
matrices, the flags and the tree keys, read-only until a worker's first
delta.
"""

import mmap
import pickle
import types

import numpy as np
import pytest

from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.core.indexes import D3LIndexes
from repro.core.persistence import load_engine, save_engine
from repro.core.shared import (
    SharedIndexSnapshot,
    _HEADER,
    apply_index_delta,
    build_index_delta,
)
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.lsh.lsh_forest import LSHForest
from repro.lsh.minhash import MinHashFactory
from repro.lsh.random_projection import RandomProjectionFactory

from tests.core.test_batched_query import assert_identical_answers, submit

NUM_HASHES = 64
NUM_TREES = 8

_MINHASH = (EvidenceType.NAME, EvidenceType.VALUE, EvidenceType.FORMAT)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=3,
            tables_per_base=3,
            base_rows=40,
            min_rows=15,
            max_rows=30,
            seed=44,
        )
    )


def _config():
    return D3LConfig(
        num_hashes=NUM_HASHES, num_trees=NUM_TREES, min_candidates=15, embedding_dimension=16
    )


@pytest.fixture(scope="module")
def engine(corpus):
    engine = D3L(config=_config())
    engine.index_lake(corpus.lake)
    yield engine
    engine.close()


def _owner(array: np.ndarray) -> object:
    """The object owning an array's memory: the end of its ``base`` chain,
    through any memoryviews (an attached array's owner is the mapping)."""
    owner = array
    while True:
        if isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        elif isinstance(owner, memoryview):
            owner = owner.obj
        else:
            return owner


def _reachable_arrays(root) -> list:
    """Every NumPy array reachable from ``root`` through instance dicts,
    slots and containers; the hash factories' coefficients (per family, not
    per item) are left out."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (MinHashFactory, RandomProjectionFactory)):
            continue
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(
            obj, (type, types.ModuleType, types.FunctionType, types.MethodType, str, bytes)
        ):
            continue
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for name in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, name):
                    stack.append(getattr(obj, name))
    return found


def _signature_buffers(indexes: D3LIndexes, pending: bool = False) -> list:
    """The matrices and tree key arrays: the only places signatures live
    (with ``pending``, also the key rows of inserts a tree has not merged)."""
    arrays = []
    for evidence in EvidenceType.indexed():
        arrays.append(indexes._matrices[evidence]._matrix)
        for tree in indexes.forest(evidence)._trees:
            arrays.append(tree._keys)
            if pending:
                arrays.extend(key for key, _ in tree._pending)
    return arrays


def assert_one_copy(indexes: D3LIndexes) -> None:
    """No unsigned array besides the matrices and tree keys (or views of
    them) is reachable from ``indexes``: no per-item signature array."""
    owners = {id(_owner(array)) for array in _signature_buffers(indexes, pending=True)}
    strays = [
        (array.dtype, array.shape)
        for array in _reachable_arrays(indexes)
        if array.dtype.kind == "u" and id(_owner(array)) not in owners
    ]
    assert strays == []
    for evidence in EvidenceType.indexed():
        assert not hasattr(indexes.forest(evidence), "_signatures")
    assert not hasattr(indexes, "_signatures")


def assert_compact_layout(indexes: D3LIndexes) -> None:
    """Each evidence type's matrix and tree keys hold its values at their width."""
    for evidence in EvidenceType.indexed():
        _, matrix, _ = indexes._matrices[evidence].export_state(copy=False)
        forest = indexes.forest(evidence)
        keys = [tree["keys"] for tree in forest.export_state(copy=False)["trees"]]
        if evidence in _MINHASH:
            assert matrix.dtype == np.uint32 and matrix.shape[1] == NUM_HASHES
            assert all(key.dtype == np.dtype(">u4") for key in keys)
        else:
            assert matrix.dtype == np.uint8 and matrix.shape[1] == NUM_HASHES // 8
            assert all(key.dtype == np.uint8 for key in keys)
        assert all(key.shape == (len(forest), NUM_HASHES // NUM_TREES) for key in keys)


class TestOneCopy:
    def test_after_index_lake(self, engine):
        assert_one_copy(engine.indexes)
        assert_compact_layout(engine.indexes)

    def test_after_load_engine(self, engine, tmp_path):
        loaded = load_engine(save_engine(engine, tmp_path / "engine.pkl"))
        assert_one_copy(loaded.indexes)
        assert_compact_layout(loaded.indexes)
        # One object per profile: the attribute and table profiles share them.
        indexes = loaded.indexes
        for ref, profile in indexes.profiles.items():
            assert indexes.table_profiles[ref.table].attributes[ref.column] is profile
            for evidence in EvidenceType.indexed():
                members = indexes.forest(evidence).keys()
                assert all(member is indexes.profiles[member].ref for member in members)

    def test_after_a_snapshot_attach(self, engine):
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        try:
            attached = SharedIndexSnapshot.attach(snapshot.descriptor)
            assert_one_copy(attached)
            assert_compact_layout(attached)
        finally:
            snapshot.close()

    def test_stored_signatures_are_read_back_from_the_matrix(self, engine):
        indexes = engine.indexes
        for evidence in EvidenceType.indexed():
            refs, matrix, flags = indexes._matrices[evidence].export_state(copy=False)
            for row, ref in enumerate(refs):
                signature = indexes.signature(evidence, ref)
                forest_row = indexes.forest(evidence).signature(ref)
                if evidence in _MINHASH:
                    assert np.array_equal(signature.hashvalues, matrix[row])
                    assert signature.is_empty() == flags[row]
                    assert np.array_equal(forest_row, signature.hashvalues)
                else:
                    assert np.array_equal(np.packbits(signature.bits), matrix[row])
                    assert signature.is_zero == flags[row]
                    assert np.array_equal(forest_row, signature.bits)


class TestSnapshotSegment:
    def _manifest(self, snapshot):
        with open(f"/dev/shm/{snapshot.descriptor[1]}", "rb") as handle:
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                (size,) = _HEADER.unpack_from(mapped, 0)
                return pickle.loads(mapped[_HEADER.size : _HEADER.size + size])

    def test_array_sections_are_the_matrices_flags_and_tree_keys(self, engine):
        indexes = engine.indexes
        snapshot = SharedIndexSnapshot.create(indexes)
        try:
            manifest = self._manifest(snapshot)
        finally:
            snapshot.close()
        assert manifest["format"] == 4
        expected = {}
        for evidence in EvidenceType.indexed():
            _, matrix, flags = indexes._matrices[evidence].export_state(copy=False)
            expected[f"{evidence.value}/matrix"] = matrix
            expected[f"{evidence.value}/flags"] = flags
            trees = indexes.forest(evidence).export_state(copy=False)["trees"]
            for index, tree in enumerate(trees):
                expected[f"{evidence.value}/tree{index}/keys"] = tree["keys"]
        assert set(manifest["arrays"]) == set(expected)
        for name, array in expected.items():
            spec = manifest["arrays"][name]
            assert tuple(spec["shape"]) == array.shape
            assert np.dtype(spec["dtype"]) == array.dtype

    def test_attached_arrays_stay_read_only_views_until_the_first_delta(
        self, corpus, engine
    ):
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        try:
            attached = SharedIndexSnapshot.attach(snapshot.descriptor)
            mirror = D3L(
                config=attached.config,
                embedding_model=attached.embedding_model,
                weights=engine.weights,
                subject_classifier=attached.subject_classifier,
            )
            mirror.indexes = attached
            segment = _owner(attached._matrices[EvidenceType.NAME]._matrix)
            for name in corpus.lake.table_names[::3]:
                submit(mirror, corpus.lake.table(name), 5)
            for array in _signature_buffers(attached):
                assert not array.flags.writeable
                assert _owner(array) is segment

            # The first delta copies what it touches, privately: here every
            # N matrix row and tree (each attribute has a name signature).
            host = pickle.loads(pickle.dumps(engine.indexes))
            base = host.version
            host.add_table(corpus.lake.tables[0].with_name("compact_extra"))
            apply_index_delta(attached, build_index_delta(host, base))
            submit(mirror, corpus.lake.tables[0], 5)
            touched = attached._matrices[EvidenceType.NAME]._matrix, *(
                tree._keys for tree in attached.forest(EvidenceType.NAME)._trees
            )
            for array in touched:
                assert array.flags.writeable
                assert _owner(array) is not segment
            assert_one_copy(attached)
        finally:
            snapshot.close()


class TestByteOrderSurvivesPickling:
    @pytest.mark.parametrize("protocol", [2, 4, 5])
    def test_unpickled_forest_answers_alike(self, protocol):
        # Protocols before 5 restore big-endian arrays in native byte order.
        factory = MinHashFactory(num_perm=NUM_HASHES, seed=3)
        forest = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        signatures = [
            factory.from_tokens({f"t{i % 5}", f"u{i % 3}", f"v{i}"}).hashvalues
            for i in range(40)
        ]
        for index, signature in enumerate(signatures[:30]):
            forest.insert(index, signature)
        forest.query(signatures[0], 1)  # merge the first inserts
        for index, signature in enumerate(signatures[30:], start=30):
            forest.insert(index, signature)  # left pending
        copy = pickle.loads(pickle.dumps(forest, protocol=protocol))
        for signature in signatures:
            assert copy.query(signature, 10) == forest.query(signature, 10)
        for tree in copy._trees:
            assert tree._keys.dtype == np.dtype(">u4")

    def test_unpickled_indexes_answer_alike(self, corpus, engine):
        copy = D3L(config=engine.config, weights=engine.weights)
        copy.indexes = pickle.loads(pickle.dumps(engine.indexes, protocol=4))
        for name in corpus.lake.table_names[::3]:
            target = corpus.lake.table(name)
            assert_identical_answers(submit(engine, target, 5), submit(copy, target, 5))
