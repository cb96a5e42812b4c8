"""Fixture suite for the R1–R5 static rules.

Each rule gets at least one firing snippet and one near-miss: the firing
fixture is the seeded-violation guarantee (delete the rule and these tests
go red), the near-miss pins down the boundary so the rule cannot drift
into flagging the idioms the real tree uses.  Fixtures are written into a
tmp tree under the scoped module names (``core/indexes.py``, ``cli.py``,
...) so the fnmatch scoping is exercised too.
"""

import textwrap

import pytest

from repro.analysis.checker import run_check
from repro.analysis.registry import RULES


def check_tree(tmp_path, files, codes=None):
    """Write ``{relpath: source}`` fixtures and run the checker over them."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_check([tmp_path], codes=codes)


def codes_of(violations):
    return [violation.code for violation in violations]


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert sorted(rule.code for rule in RULES) == ["R1", "R2", "R3", "R4", "R5"]

    def test_render_is_path_line_code(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/parallel.py": """
                def shard(tables):
                    return [name for name in set(tables)]
                """
            },
        )
        assert len(violations) == 1
        rendered = violations[0].render()
        assert "core/parallel.py" in rendered.partition(":")[0] + rendered
        assert ": R2 " in rendered


class TestR1ZeroCopy:
    def test_unguarded_matrix_write_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/indexes.py": """
                class SignatureMatrix:
                    def clobber(self, row, values):
                        self._matrix[row] = values
                """
            },
        )
        assert codes_of(violations) == ["R1"]
        assert "_ensure_writable" in violations[0].message

    def test_guarded_write_is_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/indexes.py": """
                class SignatureMatrix:
                    def clobber(self, row, values):
                        self._ensure_writable()
                        self._matrix[row] = values
                """
            },
        )
        assert violations == []

    def test_unfrozen_attach_view_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/shared.py": """
                import numpy as np

                def attach(buffer):
                    view = np.frombuffer(buffer, dtype=np.uint64)
                    return view
                """
            },
        )
        assert codes_of(violations) == ["R1"]
        assert "writeable" in violations[0].message

    def test_frozen_attach_view_is_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/shared.py": """
                import numpy as np

                def attach(buffer):
                    view = np.frombuffer(buffer, dtype=np.uint64)
                    view.flags.writeable = False
                    return view
                """
            },
        )
        assert violations == []

    def test_rule_is_scoped_to_the_zero_copy_modules(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/weights.py": """
                class Anything:
                    def clobber(self, row, values):
                        self._matrix[row] = values
                """
            },
        )
        assert "R1" not in codes_of(violations)


class TestR2Determinism:
    def test_set_iteration_in_kernel_module_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/parallel.py": """
                def shard(tables):
                    names = set(tables)
                    return [name for name in names]
                """
            },
        )
        assert codes_of(violations) == ["R2"]
        assert "sorted" in violations[0].message

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/parallel.py": """
                def shard(tables):
                    names = set(tables)
                    return [name for name in sorted(names)]
                """
            },
        )
        assert violations == []

    def test_rebinding_to_sorted_launders_the_set(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/joins.py": """
                def shard(tables):
                    names = set(tables)
                    names = sorted(names)
                    return [name for name in names]
                """
            },
        )
        assert violations == []

    def test_set_iteration_outside_kernel_modules_is_allowed(self, tmp_path):
        # core/config.py is under R2's wall-clock/RNG scope but not a
        # ranking kernel; set iteration there is order-insensitive.
        violations = check_tree(
            tmp_path,
            {
                "core/config.py": """
                def validate(keys):
                    return {key: True for key in set(keys)}
                """
            },
        )
        assert violations == []

    def test_wall_clock_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/weights.py": """
                import time

                def stamp():
                    return time.time()
                """
            },
        )
        assert codes_of(violations) == ["R2"]
        assert "wall-clock" in violations[0].message

    def test_unseeded_default_rng_fires_seeded_is_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "lsh/hashing.py": """
                import numpy as np

                def bad():
                    return np.random.default_rng()

                def good(seed):
                    return np.random.default_rng(seed)
                """
            },
        )
        assert codes_of(violations) == ["R2"]
        assert "seed" in violations[0].message

    def test_stdlib_global_rng_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/weights.py": """
                import random

                def jitter():
                    return random.random()
                """
            },
        )
        assert codes_of(violations) == ["R2"]

    def test_builtin_hash_fires_outside_dunder_hash(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "lsh/hashing.py": """
                def bucket(token):
                    return hash(token) % 64

                class Ref:
                    def __hash__(self):
                        return hash(("ref", 1))
                """
            },
        )
        assert codes_of(violations) == ["R2"]
        assert "PYTHONHASHSEED" in violations[0].message

    def test_line_pragma_suppresses(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/parallel.py": """
                def shard(tables):
                    names = set(tables)
                    return [name for name in names]  # repro-check: disable=R2
                """
            },
        )
        assert violations == []

    def test_module_pragma_suppresses_file_wide(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/parallel.py": """
                # repro-check: disable=R2
                def shard(tables):
                    names = set(tables)
                    return [name for name in names]
                """
            },
        )
        assert violations == []

    def test_pragma_for_another_code_does_not_suppress(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/parallel.py": """
                def shard(tables):
                    names = set(tables)
                    return [name for name in names]  # repro-check: disable=R3
                """
            },
        )
        assert codes_of(violations) == ["R2"]


class TestR3Lifecycle:
    def test_unreleased_cli_engine_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "cli.py": """
                def _command_query(args):
                    engine = load_engine(args.engine)
                    print(engine.query(args.target))
                    return 0
                """
            },
        )
        assert codes_of(violations) == ["R3"]
        assert "leak" in violations[0].message

    def test_try_finally_released_engine_is_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "cli.py": """
                def _command_query(args):
                    engine = load_engine(args.engine)
                    try:
                        print(engine.query(args.target))
                        return 0
                    finally:
                        engine.close()
                """
            },
        )
        assert violations == []

    def test_with_scoped_pool_is_clean_bare_pool_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/parallel.py": """
                from concurrent.futures import ProcessPoolExecutor

                def bad(jobs):
                    pool = ProcessPoolExecutor(4)
                    results = list(pool.map(len, jobs))
                    return results

                def good(jobs):
                    with ProcessPoolExecutor(4) as pool:
                        return list(pool.map(len, jobs))
                """
            },
        )
        assert codes_of(violations) == ["R3"]
        assert violations[0].message.startswith("worker pool")

    def test_shared_memory_returned_is_ownership_transfer(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/shared.py": """
                from multiprocessing import shared_memory

                def bad(total):
                    segment = shared_memory.SharedMemory(create=True, size=total)
                    segment.buf[:4] = b"xxxx"

                def good(total):
                    segment = shared_memory.SharedMemory(create=True, size=total)
                    return segment

                def attach_only(locator):
                    return shared_memory.SharedMemory(name=locator)
                """
            },
        )
        assert codes_of(violations) == ["R3"]
        assert "SharedMemory(create=True)" in violations[0].message

    def test_self_attribute_closed_elsewhere_in_class_is_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/server.py": """
                from concurrent.futures import ThreadPoolExecutor

                class Server:
                    def __init__(self):
                        self._pool = ThreadPoolExecutor(4)

                    def close(self):
                        self._pool.shutdown()
                """
            },
        )
        assert violations == []

    def test_engine_factories_only_tracked_in_cli(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/discovery.py": """
                def helper(path):
                    engine = load_engine(path)
                    return engine.indexes
                """
            },
        )
        assert "R3" not in codes_of(violations)

    def test_unscoped_backend_factory_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/discovery.py": """
                from repro.core.execution import create_backend

                def fanout(indexes, payloads):
                    backend = create_backend("process", indexes, 4)
                    results = backend.map_shards(len, payloads)
                    return results
                """
            },
        )
        assert codes_of(violations) == ["R3"]
        assert violations[0].message.startswith("execution backend/worker")

    def test_scoped_backend_factory_is_clean(self, tmp_path):
        # Near-misses of the violation above: the same factory call, scoped
        # by each of the three accepted disciplines (with, ownership
        # transfer, self-attribute paired with a class-level closer).
        violations = check_tree(
            tmp_path,
            {
                "core/discovery.py": """
                from repro.core.execution import ProcessBackend, create_backend

                def with_scoped(indexes, payloads):
                    with create_backend("process", indexes, 4) as backend:
                        return backend.map_shards(len, payloads)

                def transferred(indexes):
                    return ProcessBackend(indexes, 4)

                class Executor:
                    def __init__(self, indexes):
                        self._backend = create_backend("process", indexes, 4)

                    def close(self):
                        self._backend.close()
                """
            },
        )
        assert violations == []

    def test_unscoped_serving_worker_spawn_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/server.py": """
                import multiprocessing

                def spawn(descriptor):
                    worker = multiprocessing.Process(target=print, args=(descriptor,))
                    worker.start()
                    print(worker.pid)
                """
            },
        )
        assert codes_of(violations) == ["R3"]
        assert "Process(...)" in violations[0].message

    def test_joined_serving_worker_spawn_is_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/server.py": """
                import multiprocessing

                def run_one(descriptor):
                    worker = multiprocessing.Process(target=print, args=(descriptor,))
                    worker.start()
                    try:
                        print(worker.pid)
                    finally:
                        worker.join()

                class ServingWorker:
                    def __init__(self, descriptor):
                        self._process = multiprocessing.Process(target=print)
                        self._process.start()

                    def close(self):
                        self._process.join()
                """
            },
        )
        assert violations == []

    @pytest.mark.parametrize("factory", ["WorkerPool", "ProcessWorker"])
    def test_unscoped_worker_pool_or_worker_fires(self, tmp_path, factory):
        violations = check_tree(
            tmp_path,
            {
                "core/server.py": f"""
                from repro.core.execution import {factory}

                def replace(workers, slot, descriptor):
                    fresh = {factory}(descriptor)
                    workers[slot] = fresh
                """
            },
        )
        assert codes_of(violations) == ["R3"]
        assert f"{factory}(...)" in violations[0].message

    @pytest.mark.parametrize("factory", ["WorkerPool", "ProcessWorker"])
    def test_scoped_worker_pool_or_worker_is_clean(self, tmp_path, factory):
        violations = check_tree(
            tmp_path,
            {
                "core/execution.py": f"""
                def spawn(descriptor):
                    fresh = {factory}(descriptor)
                    return fresh

                def run_one(descriptor):
                    worker = {factory}(descriptor)
                    try:
                        return worker.run(print, None)
                    finally:
                        worker.close()

                class Owner:
                    def __init__(self, descriptor):
                        self._worker = {factory}(descriptor)

                    def close(self):
                        self._worker.close()
                """
            },
        )
        assert violations == []


class TestR4WireParity:
    _MODULE = """
    from dataclasses import dataclass


    @dataclass
    class Ping:
        target: str
        k: int

        def to_dict(self):
            return {{"target": self.target{to_extra}}}

        @classmethod
        def from_dict(cls, payload):
            return cls(target=payload["target"], k=payload.get("k", 5))
    """

    def test_field_missing_from_to_dict_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {"core/api.py": self._MODULE.format(to_extra="")},
        )
        assert codes_of(violations) == ["R4"]
        assert "Ping.k" in violations[0].message
        assert "to_dict" in violations[0].message

    def test_full_parity_is_clean(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {"core/api.py": self._MODULE.format(to_extra=', "k": self.k')},
        )
        assert violations == []

    def test_module_level_wire_pair_checked(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/api.py": """
                from dataclasses import dataclass


                @dataclass
                class Pong:
                    status: str
                    elapsed: float


                def pong_to_wire(pong):
                    return {"status": pong.status}


                def pong_from_wire(payload):
                    return Pong(status=payload["status"], elapsed=payload["elapsed"])
                """
            },
        )
        assert codes_of(violations) == ["R4"]
        assert "Pong.elapsed" in violations[0].message

    def test_key_table_constant_counts_as_mention(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/api.py": """
                from dataclasses import dataclass

                _WIRE_FIELDS = ("status", "elapsed")


                @dataclass
                class Pong:
                    status: str
                    elapsed: float


                def pong_to_wire(pong):
                    return {name: getattr(pong, name) for name in _WIRE_FIELDS}


                def pong_from_wire(payload):
                    return Pong(**{name: payload[name] for name in _WIRE_FIELDS})
                """
            },
        )
        assert violations == []

    def test_rule_is_scoped_to_the_wire_module(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {"core/config.py": self._MODULE.format(to_extra="")},
        )
        assert "R4" not in codes_of(violations)


class TestR5Deprecation:
    def test_documented_deprecation_without_warning_fires(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/discovery.py": '''
                def query_batch(self, target, k=5):
                    """Old entry point.

                    .. deprecated:: use DiscoverySession.submit instead.
                    """
                    return self._submit(target, k)
                '''
            },
        )
        assert codes_of(violations) == ["R5"]
        assert "DeprecationWarning" in violations[0].message

    def test_warnings_warn_satisfies_the_rule(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/discovery.py": '''
                import warnings


                def query_batch(self, target, k=5):
                    """Old entry point.

                    .. deprecated:: use DiscoverySession.submit instead.
                    """
                    warnings.warn("use submit()", DeprecationWarning, stacklevel=2)
                    return self._submit(target, k)
                '''
            },
        )
        assert violations == []

    def test_deprecation_helper_satisfies_the_rule(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/discovery.py": '''
                def query_batch(self, target, k=5):
                    """Old entry point.

                    .. deprecated:: use DiscoverySession.submit instead.
                    """
                    _warn_deprecated("query_batch")
                    return self._submit(target, k)
                '''
            },
        )
        assert violations == []

    def test_undocumented_function_is_not_required_to_warn(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "core/discovery.py": '''
                def query_batch(self, target, k=5):
                    """Current entry point (not deprecated)."""
                    return self._submit(target, k)
                '''
            },
        )
        assert violations == []


class TestSelectAndOrdering:
    @pytest.fixture()
    def mixed_tree(self):
        return {
            "core/parallel.py": """
            def shard(tables):
                return [name for name in set(tables)]
            """,
            "cli.py": """
            def _command_query(args):
                engine = load_engine(args.engine)
                print(engine.query(args.target))
                return 0
            """,
        }

    def test_codes_filter_restricts_rules(self, tmp_path, mixed_tree):
        violations = check_tree(tmp_path, mixed_tree, codes=["R2"])
        assert codes_of(violations) == ["R2"]

    def test_violations_sorted_by_path_line_code(self, tmp_path, mixed_tree):
        violations = check_tree(tmp_path, mixed_tree)
        keys = [(v.path, v.line, v.code) for v in violations]
        assert keys == sorted(keys)
        assert set(codes_of(violations)) == {"R2", "R3"}
