"""One-shot evaluation runner: regenerate every experiment at a chosen scale.

The benchmark suite under ``benchmarks/`` is the canonical way to reproduce
the paper's tables and figures (it also times each experiment).  This module
provides the same sweep as a plain function/CLI so that it can be driven from
scripts or notebooks without pytest::

    python -m repro.evaluation.runner --scale small --output ./results

Three scales are provided; they only differ in corpus size, answer-size
sweeps and the number of query targets averaged per point.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.config import D3LConfig
from repro.datagen.real_benchmark import RealBenchmarkConfig, generate_real_benchmark
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.evaluation.experiments import (
    build_engine_suite,
    experiment_effectiveness,
    experiment_example_distances,
    experiment_indexing_time,
    experiment_individual_evidence,
    experiment_join_impact,
    experiment_repository_stats,
    experiment_search_time,
    experiment_session_serving,
    experiment_space_overhead,
    experiment_subject_attribute_accuracy,
    experiment_weight_training,
)
from repro.evaluation.reporting import render_rows


@dataclass
class RunnerScale:
    """Corpus and sweep sizes for one evaluation scale."""

    name: str
    base_tables: int
    tables_per_base: int
    families: int
    tables_per_family: int
    synthetic_ks: List[int]
    real_ks: List[int]
    num_targets: int
    indexing_table_counts: List[int]


SCALES: Dict[str, RunnerScale] = {
    "smoke": RunnerScale(
        name="smoke",
        base_tables=6,
        tables_per_base=4,
        families=6,
        tables_per_family=4,
        synthetic_ks=[3, 6, 10],
        real_ks=[3, 6, 10],
        num_targets=5,
        indexing_table_counts=[12, 24],
    ),
    "small": RunnerScale(
        name="small",
        base_tables=12,
        tables_per_base=6,
        families=12,
        tables_per_family=6,
        synthetic_ks=[5, 10, 20, 30],
        real_ks=[5, 10, 20, 30],
        num_targets=10,
        indexing_table_counts=[24, 48, 72],
    ),
    "full": RunnerScale(
        name="full",
        base_tables=16,
        tables_per_base=8,
        families=16,
        tables_per_family=8,
        synthetic_ks=[5, 10, 20, 40, 60, 80],
        real_ks=[5, 10, 20, 30, 40, 50],
        num_targets=12,
        indexing_table_counts=[32, 64, 96, 128],
    ),
}


@dataclass
class ExperimentReport:
    """Results of a full evaluation run, keyed by experiment identifier."""

    scale: str
    sections: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    wall_clock_seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, rows: List[Dict[str, object]], seconds: float) -> None:
        """Record one experiment's rows and wall-clock time."""
        self.sections[name] = rows
        self.wall_clock_seconds[name] = seconds

    def render(self) -> str:
        """Render every section as aligned text tables."""
        parts = [f"# Evaluation run (scale: {self.scale})"]
        for name, rows in self.sections.items():
            parts.append("")
            parts.append(render_rows(rows, title=name))
            parts.append(f"(wall clock: {self.wall_clock_seconds[name]:.1f}s)")
        return "\n".join(parts)

    def save(self, directory: Path) -> List[Path]:
        """Write the rendered report and a JSON dump under ``directory``."""
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        text_path = directory / f"report_{self.scale}.txt"
        text_path.write_text(self.render() + "\n", encoding="utf-8")
        written.append(text_path)
        json_path = directory / f"report_{self.scale}.json"
        json_path.write_text(
            json.dumps(
                {"scale": self.scale, "sections": self.sections, "seconds": self.wall_clock_seconds},
                indent=2,
                default=str,
            ),
            encoding="utf-8",
        )
        written.append(json_path)
        return written


def run_all_experiments(
    scale: str = "small",
    config: Optional[D3LConfig] = None,
    seed: int = 0,
) -> ExperimentReport:
    """Run every experiment of the paper at the requested scale."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    sizes = SCALES[scale]
    config = config or D3LConfig(num_hashes=128, embedding_dimension=48)
    report = ExperimentReport(scale=scale)

    def timed(name, func, *args, **kwargs):
        start = time.perf_counter()
        rows = func(*args, **kwargs)
        report.add(name, rows if isinstance(rows, list) else [rows], time.perf_counter() - start)
        return rows

    synthetic = generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=sizes.base_tables,
            tables_per_base=sizes.tables_per_base,
            seed=seed + 1,
        )
    )
    real = generate_real_benchmark(
        RealBenchmarkConfig(
            num_families=sizes.families,
            tables_per_family=sizes.tables_per_family,
            seed=seed + 2,
        )
    )

    timed("figure2_repository_stats", experiment_repository_stats,
          {"synthetic": synthetic, "smaller_real": real})
    timed("table1_example_distances", experiment_example_distances, config)

    synthetic_suite = build_engine_suite(synthetic, config=config, seed=seed)
    real_suite = build_engine_suite(real, config=config, seed=seed)

    timed(
        "figure3_individual_evidence",
        experiment_individual_evidence,
        real_suite,
        ks=sizes.real_ks,
        num_targets=sizes.num_targets,
        seed=seed,
    )
    timed(
        "figure4_synthetic_effectiveness",
        experiment_effectiveness,
        synthetic_suite,
        ks=sizes.synthetic_ks,
        num_targets=sizes.num_targets,
        seed=seed,
    )
    timed(
        "figure5_real_effectiveness",
        experiment_effectiveness,
        real_suite,
        ks=sizes.real_ks,
        num_targets=sizes.num_targets,
        seed=seed,
    )
    timed(
        "figure6a_indexing_time",
        experiment_indexing_time,
        sizes.indexing_table_counts,
        config=config,
        seed=seed,
    )
    timed(
        "figure6b_search_time_synthetic",
        experiment_search_time,
        synthetic_suite,
        ks=sizes.synthetic_ks,
        num_targets=max(3, sizes.num_targets // 2),
        seed=seed,
    )
    timed(
        "figure6c_search_time_real",
        experiment_search_time,
        real_suite,
        ks=sizes.real_ks,
        num_targets=max(3, sizes.num_targets // 2),
        seed=seed,
    )
    timed(
        "session_serving",
        experiment_session_serving,
        real_suite,
        k=max(sizes.real_ks),
        num_targets=max(3, sizes.num_targets // 2),
        seed=seed,
    )
    timed(
        "table2_space_overhead",
        experiment_space_overhead,
        {"synthetic": synthetic_suite, "smaller_real": real_suite},
    )
    timed(
        "figure7_synthetic_joins",
        experiment_join_impact,
        synthetic_suite,
        ks=sizes.synthetic_ks[:4],
        num_targets=sizes.num_targets,
        seed=seed,
    )
    timed(
        "figure8_real_joins",
        experiment_join_impact,
        real_suite,
        ks=sizes.real_ks[:4],
        num_targets=sizes.num_targets,
        seed=seed,
    )
    timed(
        "weights_classifier",
        experiment_weight_training,
        synthetic,
        real,
        config=config,
        num_targets=sizes.num_targets,
        seed=seed,
    )
    timed(
        "subject_attribute_accuracy",
        experiment_subject_attribute_accuracy,
        real,
        folds=min(10, max(2, len(real.lake) // 4)),
        seed=seed,
    )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run all experiments and write the report."""
    parser = argparse.ArgumentParser(description="Run every D3L reproduction experiment")
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--output", default="./experiment_results")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    report = run_all_experiments(scale=args.scale, seed=args.seed)
    written = report.save(Path(args.output))
    print(report.render())
    print("\nWritten:")
    for path in written:
        print(f"  {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console
    raise SystemExit(main())
