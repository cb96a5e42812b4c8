"""The R1–R5 invariant rules behind ``repro check``.

Each rule encodes one unwritten contract the performance work rests on
(see docs/api.md "Static analysis & sanitizers" for the user-facing table):

* **R1 zero-copy discipline** — mutations of ``SignatureMatrix`` storage
  must be dominated by ``_ensure_writable()`` (copy-on-write promotion),
  and every array built on the snapshot attach path must be frozen with
  ``flags.writeable = False``.
* **R2 determinism** — kernel/sharding modules must not iterate unordered
  sets, and nothing under ``core/``/``lsh/`` may consult wall clocks,
  global RNG state, or the PYTHONHASHSEED-dependent builtin ``hash()``.
* **R3 resource lifecycle** — shared-memory segments, worker pools, and
  CLI engine/session/server handles must be released on every path
  (``with``, ``try/finally``, a paired ``close`` in the owning class, a
  ``weakref.finalize`` backstop, or ownership transfer via ``return``).
* **R4 wire parity** — every field of a wire dataclass must appear in both
  directions of its serializer pair, so nothing silently drops off the
  wire.
* **R5 deprecation hygiene** — anything documented ``.. deprecated::``
  must actually emit a ``DeprecationWarning``.

The rules are syntactic by design: they over-approximate the dynamic
contracts just enough to be cheap and reviewable, and the
``# repro-check: disable=Rn`` pragma is the documented escape hatch for
the rare justified exception.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.registry import (
    ModuleUnderCheck,
    Violation,
    path_matches,
    register,
)


# --------------------------------------------------------------------------- #
# shared AST helpers
# --------------------------------------------------------------------------- #


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _enclosing(
    node: ast.AST, parents: Dict[ast.AST, ast.AST], kinds: Tuple[type, ...]
) -> Optional[ast.AST]:
    current = parents.get(node)
    while current is not None:
        if isinstance(current, kinds):
            return current
        current = parents.get(current)
    return None


# --------------------------------------------------------------------------- #
# R1 — zero-copy discipline
# --------------------------------------------------------------------------- #

#: Attribute names backing :class:`~repro.core.indexes.SignatureMatrix`
#: storage; subscript writes to these are copy-on-write hazards.
_COW_ARRAYS = {"_matrix", "_flags"}


@register(
    "R1",
    "zero-copy-discipline",
    "SignatureMatrix storage writes must follow _ensure_writable(); "
    "attach-path arrays must be frozen read-only",
    patterns=("core/indexes.py", "core/shared.py"),
)
def check_zero_copy(module: ModuleUnderCheck) -> Iterable[Violation]:
    for func in _functions(module.tree):
        if func.name == "_ensure_writable":
            continue
        yield from _check_cow_writes(module, func)
        if "attach" in func.name:
            yield from _check_attach_freeze(module, func)


def _check_cow_writes(module: ModuleUnderCheck, func: ast.AST) -> Iterator[Violation]:
    guard_line: Optional[int] = None
    for call in _calls(func):
        dotted = _dotted_name(call.func) or ""
        if dotted.endswith("_ensure_writable"):
            guard_line = call.lineno if guard_line is None else min(guard_line, call.lineno)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if not isinstance(sub, ast.Subscript):
                    continue
                if not isinstance(sub.value, ast.Attribute):
                    continue
                if sub.value.attr not in _COW_ARRAYS:
                    continue
                if guard_line is None or guard_line > node.lineno:
                    if module.suppressed("R1", node.lineno):
                        continue
                    yield module.violation(
                        "R1",
                        node.lineno,
                        f"write to {sub.value.attr}[...] in {func.name}() is not "
                        "dominated by an _ensure_writable() call (copy-on-write "
                        "promotion for shared views)",
                    )


def _check_attach_freeze(module: ModuleUnderCheck, func: ast.AST) -> Iterator[Violation]:
    frozen: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            # `<name>.flags.writeable = ...` freezes <name>.
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "writeable"
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "flags"
                and isinstance(target.value.value, ast.Name)
            ):
                frozen.add(target.value.value.id)
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        has_frombuffer = any(
            isinstance(call.func, (ast.Attribute, ast.Name))
            and (_dotted_name(call.func) or "").rsplit(".", 1)[-1] == "frombuffer"
            for call in _calls(node.value)
        )
        if not has_frombuffer:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id not in frozen:
                if module.suppressed("R1", node.lineno):
                    continue
                yield module.violation(
                    "R1",
                    node.lineno,
                    f"attach-path array {target.id!r} in {func.name}() is never "
                    "frozen with .flags.writeable = False",
                )


# --------------------------------------------------------------------------- #
# R2 — determinism
# --------------------------------------------------------------------------- #

#: Modules whose iteration order feeds returned rankings or shard
#: assignment; bare set iteration here breaks `workers=1 == workers=N`.
_KERNEL_PATTERNS = ("core/parallel.py", "core/joins.py", "lsh/*.py")

#: Wall-clock entry points banned from deterministic code.
_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

#: numpy.random constructors that are fine as long as they are seeded.
_SEEDED_RNG_FACTORIES = {"default_rng", "Generator", "PCG64", "SeedSequence", "RandomState"}


@register(
    "R2",
    "determinism",
    "no unordered-set iteration in kernel/sharding modules; no wall clocks, "
    "global RNG state, or builtin hash() under core//lsh/",
    patterns=("core/*.py", "lsh/*.py"),
)
def check_determinism(module: ModuleUnderCheck) -> Iterable[Violation]:
    parents = _parent_map(module.tree)
    if path_matches(module.path, _KERNEL_PATTERNS):
        yield from _check_set_iteration(module)
    random_aliases, random_names = _random_imports(module.tree)
    for call in _calls(module.tree):
        dotted = _dotted_name(call.func) or ""
        line = call.lineno
        if module.suppressed("R2", line):
            continue
        if dotted in _WALL_CLOCKS:
            yield module.violation(
                "R2", line, f"wall-clock call {dotted}() in deterministic code"
            )
            continue
        violation = _rng_violation(dotted, call, random_aliases, random_names)
        if violation:
            yield module.violation("R2", line, violation)
            continue
        if isinstance(call.func, ast.Name) and call.func.id == "hash":
            enclosing = _enclosing(call, parents, (ast.FunctionDef, ast.AsyncFunctionDef))
            if enclosing is not None and enclosing.name == "__hash__":
                continue  # the dunder protocol is process-local by contract
            yield module.violation(
                "R2",
                line,
                "builtin hash() depends on PYTHONHASHSEED for str keys; use "
                "a keyed stable hash (e.g. lsh.hashing.stable_uint64)",
            )


def _random_imports(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """(module aliases of stdlib ``random``, names imported from it)."""
    aliases: Set[str] = set()
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return aliases, names


def _rng_violation(
    dotted: str, call: ast.Call, random_aliases: Set[str], random_names: Set[str]
) -> Optional[str]:
    head, _, tail = dotted.partition(".")
    if head in random_aliases and tail:
        return f"stdlib global RNG call {dotted}() (unseeded process-wide state)"
    if not tail and dotted in random_names:
        return f"stdlib global RNG call {dotted}() (unseeded process-wide state)"
    if ".random." in f".{dotted}." and "random" != dotted:
        parts = dotted.split(".")
        if "random" in parts[:-1]:
            final = parts[-1]
            if final == "default_rng":
                if not call.args and not call.keywords:
                    return "np.random.default_rng() without an explicit seed"
                return None
            if final in _SEEDED_RNG_FACTORIES:
                return None
            return (
                f"legacy numpy global-state RNG call {dotted}(); construct a "
                "seeded Generator instead"
            )
    return None


def _check_set_iteration(module: ModuleUnderCheck) -> Iterator[Violation]:
    for func in _functions(module.tree):
        set_vars = _set_typed_locals(func)
        for node in ast.walk(func):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
            ):
                iters.append(node.args[0])
            for candidate in iters:
                if _is_set_expr(candidate, set_vars):
                    if module.suppressed("R2", candidate.lineno):
                        continue
                    yield module.violation(
                        "R2",
                        candidate.lineno,
                        f"iteration over an unordered set in {func.name}() feeds "
                        "ranking/shard order; wrap it in sorted(...)",
                    )


def _set_typed_locals(func: ast.AST) -> Set[str]:
    """Local names assigned a set expression somewhere in ``func``.

    Rebinding to a non-set expression clears the mark, so
    ``x = sorted(x)`` launders a set into a deterministic list.
    """
    marked: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if _is_set_expr(node.value, marked):
            marked.add(target.id)
        else:
            marked.discard(target.id)
    return marked


def _is_set_expr(node: ast.expr, set_vars: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_vars
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # set algebra (`a | b`, `a & b`, `a - b`) over known sets
        return _is_set_expr(node.left, set_vars) and _is_set_expr(node.right, set_vars)
    return False


# --------------------------------------------------------------------------- #
# R3 — resource lifecycle
# --------------------------------------------------------------------------- #

#: Call tails that allocate an OS-backed resource wherever they appear.
_POOL_TAILS = {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool", "ThreadPool"}

#: Execution-backend factories and worker spawn sites.  A backend or a
#: worker pool owns worker processes and shared-memory snapshots; a worker
#: owns a live child process — all must be scoped exactly like a raw pool.
_BACKEND_FACTORY_TAILS = {
    "create_backend",
    "SerialBackend",
    "ProcessBackend",
    "WorkerPool",
    "ProcessWorker",
    "Process",
}

#: Engine/session/server factories whose handles the CLI must scope.
_CLI_FACTORY_TAILS = {
    "D3L",
    "DiscoverySession",
    "DiscoveryServer",
    "load_engine",
    "load_session",
    "_load_engine_or_fail",
}

#: Method names that release a tracked resource.
_CLOSER_ATTRS = {
    "close",
    "unlink",
    "shutdown",
    "terminate",
    "join",
    "release",
    "server_close",
    "stop",
}


@register(
    "R3",
    "resource-lifecycle",
    "SharedMemory(create=True), pools, execution backends, worker pools, "
    "worker processes, and CLI engine/session handles must be released via "
    "with/try-finally/close/finalize in the same scope or class",
    patterns=("cli.py", "core/*.py"),
)
def check_lifecycle(module: ModuleUnderCheck) -> Iterable[Violation]:
    parents = _parent_map(module.tree)
    is_cli = path_matches(module.path, ("cli.py",))
    for call in _calls(module.tree):
        kind = _resource_kind(call, is_cli)
        if kind is None:
            continue
        if module.suppressed("R3", call.lineno):
            continue
        if _resource_is_scoped(call, parents):
            continue
        yield module.violation(
            "R3",
            call.lineno,
            f"{kind} is constructed without a with/try-finally/close pairing "
            "in its scope (resource can leak on an exception path)",
        )


def _resource_kind(call: ast.Call, is_cli: bool) -> Optional[str]:
    dotted = _dotted_name(call.func)
    if dotted is None:
        return None
    tail = dotted.rsplit(".", 1)[-1]
    if tail == "SharedMemory":
        for keyword in call.keywords:
            if (
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return "SharedMemory(create=True)"
        return None
    if tail in _POOL_TAILS and not dotted.startswith("self."):
        return f"worker pool {tail}(...)"
    if tail in _BACKEND_FACTORY_TAILS and not dotted.startswith("self."):
        return f"execution backend/worker {tail}(...)"
    if is_cli and tail in _CLI_FACTORY_TAILS:
        return f"engine/session handle {tail}(...)"
    return None


def _resource_is_scoped(call: ast.Call, parents: Dict[ast.AST, ast.AST]) -> bool:
    # (a) the call is (inside) a `with ...:` context expression
    node: ast.AST = call
    current = parents.get(node)
    while current is not None and not isinstance(
        current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
    ):
        if isinstance(current, ast.withitem):
            return True
        if isinstance(current, ast.Return):
            return True  # ownership transferred to the caller
        node, current = current, parents.get(current)
    func = _enclosing(call, parents, (ast.FunctionDef, ast.AsyncFunctionDef))
    if func is None:
        return False
    binding = _binding_target(call, parents)
    if binding is None:
        return False
    if isinstance(binding, ast.Name):
        return _name_is_released(binding.id, func)
    if (
        isinstance(binding, ast.Attribute)
        and isinstance(binding.value, ast.Name)
        and binding.value.id == "self"
    ):
        owner = _enclosing(call, parents, (ast.ClassDef,))
        if owner is not None:
            return _class_releases_attribute(owner, binding.attr, func)
    return False


def _binding_target(call: ast.Call, parents: Dict[ast.AST, ast.AST]) -> Optional[ast.expr]:
    """The single Assign target the call's value lands in, if any."""
    node: ast.AST = call
    current = parents.get(node)
    while current is not None and not isinstance(current, (ast.stmt,)):
        node, current = current, parents.get(current)
    if isinstance(current, ast.Assign) and len(current.targets) == 1:
        return current.targets[0]
    return None


def _name_is_released(name: str, func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(node.value)
            ):
                return True  # ownership transfer
        if isinstance(node, ast.Try):
            cleanup_bodies = list(node.finalbody)
            for handler in node.handlers:
                cleanup_bodies.extend(handler.body)
            for stmt in cleanup_bodies:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True  # finally/except path touches the handle
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func) or ""
            if dotted.rsplit(".", 1)[-1] == "finalize":
                for arg in node.args:
                    if any(
                        isinstance(sub, ast.Name) and sub.id == name
                        for sub in ast.walk(arg)
                    ):
                        return True  # weakref.finalize backstop
    return False


def _class_releases_attribute(owner: ast.ClassDef, attr: str, creator: ast.AST) -> bool:
    """Whether any *other* scope of ``owner`` releases ``self.<attr>``."""
    for node in ast.walk(owner):
        if node is creator:
            continue
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func) or ""
            parts = dotted.split(".")
            if (
                len(parts) >= 3
                and parts[0] == "self"
                and parts[1] == attr
                and parts[-1] in _CLOSER_ATTRS
            ):
                return True
            if parts[-1] == "finalize":
                for arg in ast.walk(node):
                    if (
                        isinstance(arg, ast.Attribute)
                        and arg.attr == attr
                        and isinstance(arg.value, ast.Name)
                        and arg.value.id == "self"
                    ):
                        return True
    # the creator function itself may register the finalize backstop
    for node in ast.walk(creator):
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func) or ""
            if dotted.rsplit(".", 1)[-1] == "finalize":
                return True
    return False


# --------------------------------------------------------------------------- #
# R4 — wire parity
# --------------------------------------------------------------------------- #

#: Serializer-pair suffixes checked for field parity.
_WIRE_SUFFIXES = (("_to_dict", "_from_dict"), ("_to_wire", "_from_wire"))


@register(
    "R4",
    "wire-parity",
    "every field of a wire dataclass must appear in both directions of its "
    "to_dict/from_dict (or to_wire/from_wire) serializer pair",
    patterns=("core/api.py",),
)
def check_wire_parity(module: ModuleUnderCheck) -> Iterable[Violation]:
    project = module.project
    dataclasses = project.dataclass_fields() if project else {}
    constants = _string_tuple_constants(module.tree)
    # class-level to_dict/from_dict pairs
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "to_dict" in methods and "from_dict" in methods:
            fields = dataclasses.get(node.name)
            if fields:
                yield from _parity_violations(
                    module,
                    node.name,
                    fields,
                    methods["to_dict"],
                    methods["from_dict"],
                    constants,
                )
    # module-level serializer function pairs
    functions = {
        stmt.name: stmt
        for stmt in module.tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for to_suffix, from_suffix in _WIRE_SUFFIXES:
        for name, to_fn in functions.items():
            if not name.endswith(to_suffix):
                continue
            from_name = name[: -len(to_suffix)] + from_suffix
            from_fn = functions.get(from_name)
            if from_fn is None:
                continue
            target = _constructed_dataclass(from_fn, dataclasses)
            if target is None:
                continue
            yield from _parity_violations(
                module, target, dataclasses[target], to_fn, from_fn, constants
            )


def _string_tuple_constants(tree: ast.Module) -> Dict[str, Set[str]]:
    """Module-level ``NAME = ("a", "b", ...)`` constants, for key tables."""
    constants: Dict[str, Set[str]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
            strings = {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
            if strings and len(strings) == len(node.value.elts):
                constants[target.id] = strings
    return constants


def _constructed_dataclass(
    func: ast.AST, dataclasses: Dict[str, List[str]]
) -> Optional[str]:
    for call in _calls(func):
        if isinstance(call.func, ast.Name) and call.func.id in dataclasses:
            if dataclasses[call.func.id]:
                return call.func.id
    return None


def _field_mentions(func: ast.AST, constants: Dict[str, Set[str]]) -> Set[str]:
    mentions: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            mentions.add(node.value)
        elif isinstance(node, ast.Attribute):
            mentions.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            mentions.add(node.arg)
        elif isinstance(node, ast.Name) and node.id in constants:
            mentions |= constants[node.id]
    return mentions


def _parity_violations(
    module: ModuleUnderCheck,
    class_name: str,
    fields: Sequence[str],
    to_fn: ast.AST,
    from_fn: ast.AST,
    constants: Dict[str, Set[str]],
) -> Iterator[Violation]:
    to_mentions = _field_mentions(to_fn, constants)
    from_mentions = _field_mentions(from_fn, constants)
    for field in fields:
        for fn, mentions in ((to_fn, to_mentions), (from_fn, from_mentions)):
            if field not in mentions:
                if module.suppressed("R4", fn.lineno):
                    continue
                yield module.violation(
                    "R4",
                    fn.lineno,
                    f"field {class_name}.{field} does not appear in "
                    f"{fn.name}() — it would silently drop off the wire",
                )


# --------------------------------------------------------------------------- #
# R5 — deprecation hygiene
# --------------------------------------------------------------------------- #


@register(
    "R5",
    "deprecation-hygiene",
    "anything documented '.. deprecated::' must emit a DeprecationWarning",
    patterns=("*.py",),
)
def check_deprecation(module: ModuleUnderCheck) -> Iterable[Violation]:
    for func in _functions(module.tree):
        docstring = ast.get_docstring(func) or ""
        if ".. deprecated" not in docstring.lower():
            continue
        if _emits_deprecation_warning(func):
            continue
        if module.suppressed("R5", func.lineno):
            continue
        yield module.violation(
            "R5",
            func.lineno,
            f"{func.name}() is documented '.. deprecated::' but never emits "
            "a DeprecationWarning",
        )


def _emits_deprecation_warning(func: ast.AST) -> bool:
    for call in _calls(func):
        dotted = _dotted_name(call.func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        if "deprecat" in tail.lower():
            return True  # helper like _warn_deprecated(...)
        if tail == "warn":
            for node in ast.walk(call):
                if isinstance(node, ast.Name) and node.id == "DeprecationWarning":
                    return True
                if isinstance(node, ast.Attribute) and node.attr == "DeprecationWarning":
                    return True
    return False
