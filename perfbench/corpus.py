"""Seeded benchmark inputs: the synthetic TUS-style lake and its targets.

Every workload draws from one corpus, ``repro.datagen.synthetic_benchmark``
at its default scale (16 base tables x 12 derivations, about 190 tables and
1.1k attributes).  The only departure from the generator's defaults is the
base-table height: bases hold ``BASE_ROWS`` rows so that held-out
derivations about 10^3 rows tall can be cut from them, while lake tables
keep the default 30-150 rows.

The lake, the lake tables each workload queries and the tables
``mutate_join`` writes are fixed (``CORPUS_SEED``); the workload seed draws
the rest: the order of requests and writes, and the rows of the tall
targets.  A lake
or target set per workload seed would make the runs measure different
systems: over corpus seeds 21-25 the SA-join graph held 195 to 484 edges and
a joins request walked 1.7k to 8.9k paths on average, and across target
sets drawn from one lake the joins requests' median moved by a third.

Ground truth comes from the generator: tables derived from one base table
are related.  Targets that the generator never emitted (the tall held-out
derivations) are registered in the same :class:`GroundTruth` object as
related to every lake table of their base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Set

import numpy as np

from repro.datagen.base_tables import (
    BaseTable,
    build_base_tables,
    default_base_specs,
    spread_specs_by_topic,
)
from repro.datagen.ground_truth import GroundTruth
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.lake.datalake import DataLake
from repro.tables.table import Table

#: Seed of the generated lake.
CORPUS_SEED = 0
#: Rows per base table (the generator's default is 200).
BASE_ROWS = 1200
#: Rows of every tall held-out target (``serve_fresh``).
TALL_ROWS = 1000
#: Arities of the targets, in equal shares (the commonest in the lake).
ARITIES = (4, 5, 6, 7)


@dataclass
class Corpus:
    """One generated lake with its ground truth and the means to extend it."""

    seed: int
    config: SyntheticBenchmarkConfig
    lake: DataLake
    ground_truth: GroundTruth

    def base_of(self, table_name: str) -> str:
        """The base table a derived table was cut from (its family)."""
        return table_name.rsplit("_", 1)[0]

    @cached_property
    def families(self) -> List[str]:
        """The base tables' names: lake table ``<family>_<nnn>`` was cut
        from base table ``<family>``."""
        return sorted({self.base_of(name) for name in self.lake.table_names})

    def pick(self, count: int, salt: int) -> List[Table]:
        """``count`` distinct lake tables, fixed by ``salt`` alone.

        Table ``i`` comes from family ``i mod 16`` with the arity of
        ``ARITIES`` it is dealt (or the nearest one the family has)."""
        rng = np.random.default_rng([CORPUS_SEED, salt])
        chosen: List[str] = []
        for index in range(count):
            family = self.families[index % len(self.families)]
            arity = _dealt_arity(index, len(self.families))
            tables = [
                table
                for table in self.lake.tables
                if self.base_of(table.name) == family and table.name not in chosen
            ]
            nearest = min(abs(table.arity - arity) for table in tables)
            names = sorted(t.name for t in tables if abs(t.arity - arity) == nearest)
            chosen.append(names[int(rng.integers(len(names)))])
        return [self.lake.table(name) for name in chosen]

    def shuffled(self, items: List, salt: int) -> List:
        """``items`` in an order drawn by the seed."""
        rng = np.random.default_rng([self.seed, salt])
        return [items[index] for index in rng.permutation(len(items))]

    def tall_targets(self, count: int, salt: int, copies: int = 1) -> List:
        """``count`` new derivations of the lake's base tables, ``TALL_ROWS``
        rows each, registered in the ground truth; derivation ``i`` is cut
        from family ``i mod 16`` with the arity it is dealt and columns fixed
        by ``salt``, and only its rows are drawn by the seed.  With
        ``copies > 1``, each derivation comes as
        ``(table, copy)`` twins that share base and columns but not rows.
        Names never repeat across salts."""
        bases = self.bases
        shapes = np.random.default_rng([CORPUS_SEED, salt])
        rng = np.random.default_rng([self.seed, salt])
        targets = []
        for index in range(count):
            base = bases[index % len(bases)]
            columns = _project(base, _dealt_arity(index, len(bases)), shapes)
            for copy in range(copies):
                name = f"{base.spec.name}_tall{salt}x{index:04d}c{copy}"
                rows = sorted(rng.choice(base.table.cardinality, size=TALL_ROWS, replace=False))
                table = base.table.select_columns(columns, name=name).take_rows(rows, name=name)
                self._register(table, base)
                targets.append(table if copies == 1 else (table, copy))
        return targets

    @cached_property
    def bases(self) -> List[BaseTable]:
        """The generator's base tables, rebuilt exactly as it built them."""
        specs = spread_specs_by_topic(default_base_specs(), self.config.num_base_tables)
        return build_base_tables(specs, rows=self.config.base_rows, seed=self.config.seed)

    def _register(self, table: Table, base: BaseTable) -> None:
        domains = {name: base.column_domains[name] for name in table.column_names}
        subject = base.subject_attribute if base.subject_attribute in domains else None
        self.ground_truth.add_table(table.name, domains, subject_attribute=subject)
        for name in self.lake.table_names:
            if self.base_of(name) == base.spec.name:
                self.ground_truth.mark_related(table.name, name)


class LimitedTruth:
    """A :class:`GroundTruth` view that only knows the indexed tables."""

    def __init__(self, ground_truth: GroundTruth, indexed: Set[str]) -> None:
        self._ground_truth = ground_truth
        self._indexed = indexed

    def related_to(self, table_name: str) -> Set[str]:
        return self._ground_truth.related_to(table_name) & self._indexed


def make_corpus(seed: int) -> Corpus:
    """The lake, with draws from it seeded by the workload ``seed``."""
    config = SyntheticBenchmarkConfig(seed=CORPUS_SEED, base_rows=BASE_ROWS)
    benchmark = generate_synthetic_benchmark(config)
    return Corpus(seed, config, benchmark.lake, benchmark.ground_truth)


def _dealt_arity(index: int, families: int) -> int:
    """Target ``i``'s arity: each round over the families rotates them."""
    return ARITIES[(index + index // families) % len(ARITIES)]


def _project(base: BaseTable, arity: int, rng: np.random.Generator) -> List[str]:
    """A random projection to ``arity`` columns that keeps the subject."""
    subject = base.subject_attribute
    others = [name for name in base.table.column_names if name != subject]
    count = min(arity - 1, len(others))
    chosen = set(others[i] for i in rng.choice(len(others), size=count, replace=False))
    return [name for name in base.table.column_names if name == subject or name in chosen]
