"""Quickstart: index a small data lake and find the datasets related to a target.

This reproduces the paper's introductory scenario (Figure 1): a target table
about GP practices, a lake containing a practices directory, a funding table
and an opening-hours table, and a discovery engine that ranks the lake tables
by relatedness and finds the join path that covers the target's ``Hours``
attribute.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import D3L, D3LConfig, DataLake, DiscoverySession, QueryRequest, Table


def build_lake() -> DataLake:
    """The three source tables of the paper's Figure 1 (slightly extended)."""
    gp_practices = Table.from_dict(
        "gp_practices",
        {
            "Practice Name": ["Dr E Cullen", "Blackfriars", "Radclife Care", "Bolton Medical"],
            "Address": ["51 Botanic Av", "1a Chapel St", "9 Mirabel St", "21 Rupert St"],
            "City": ["Belfast", "Salford", "Manchester", "Bolton"],
            "Postcode": ["BT7 1JL", "M3 6AF", "M3 1NN", "BL3 6PY"],
            "Patients": ["1202", "3572", "2209", "1840"],
        },
    )
    gp_funding = Table.from_dict(
        "gp_funding",
        {
            "Practice": ["The London Clinic", "Blackfriars", "Radclife Care", "Bolton Medical"],
            "City": ["London", "Salford", "Manchester", "Bolton"],
            "Postcode": ["W1G 6BW", "M3 6AF", "M26 2SP", "BL3 6PY"],
            "Payment": ["73648", "15530", "20981", "17764"],
        },
    )
    local_gps = Table.from_dict(
        "local_gps",
        {
            "GP": ["Blackfriars", "Radclife Care", "Bolton Medical"],
            "Location": ["Salford", "-", "Bolton"],
            "Opening hours": ["08:00-18:00", "07:00-20:00", "08:00-16:00"],
        },
    )
    return DataLake("gp_lake", [gp_practices, gp_funding, local_gps])


def build_target() -> Table:
    """The target table T the analyst wants to populate."""
    return Table.from_dict(
        "gps_target",
        {
            "Practice": ["Radclife", "Bolton Medical"],
            "Street": ["69 Church St", "21 Rupert St"],
            "City": ["Manchester", "Bolton"],
            "Postcode": ["M26 2SP", "BL3 6PY"],
            "Hours": ["07:00-20:00", "08:00-16:00"],
        },
    )


def main() -> None:
    lake = build_lake()
    target = build_target()

    engine = D3L(config=D3LConfig())
    engine.index_lake(lake)

    print(f"Lake: {len(lake)} tables, {lake.attribute_count} attributes")
    print(f"Target: {target.name} with attributes {target.column_names}\n")

    # The serving API: submit an explicit request through a session (which
    # caches the target's profile across repeated queries) and read the
    # machine-readable response, including the per-evidence decomposition.
    session = DiscoverySession(engine)
    answer = session.submit(QueryRequest(target=target, k=2, explain=True))
    print("Top related datasets (ascending combined distance):")
    for rank, result in enumerate(answer.top(), start=1):
        evidence = ", ".join(
            f"D{evidence.value}={distance:.2f}"
            for evidence, distance in result.evidence_distances.items()
        )
        print(f"  {rank}. {result.table_name:<14s} distance={result.distance:.3f}  [{evidence}]")
        for match in result.matches:
            print(
                f"       {match.target_attribute:<10s} <- {match.source}"
                f"  (best evidence: {match.best_evidence().value})"
            )

    # The sequential engine (the batched engine's oracle) produces the
    # identical ranking; keep the assertion so the example doubles as a check.
    oracle = DiscoverySession(engine).submit(
        QueryRequest(target=target, k=2, engine="sequential")
    )
    assert [(entry.table_name, entry.distance) for entry in oracle.results] == [
        (entry.table_name, entry.distance) for entry in answer.results
    ], "the batched engine diverged from the sequential oracle"

    # joins=True extends the same request with SA-join paths (Algorithm 3);
    # the join_paths block also travels on the JSON wire format.
    joined = session.submit(QueryRequest(target=target, k=2, joins=True))
    block = joined.join_paths
    print("\nJoin paths from the top-k into the rest of the lake:")
    if not block.paths:
        print("  (none found)")
    for path in block.paths:
        hops = " -> ".join(path.tables)
        via = ", ".join(f"{edge.left.column}~{edge.right.column}" for edge in path.edges)
        print(f"  {hops}   joining on: {via}")
    if block.truncated:
        print("  (enumeration capped by max_join_paths)")

    covered = set()
    for result in answer.top():
        covered |= result.covered_target_attributes()
    for table_name in block.joined_tables:
        entry = answer.result_for(table_name)
        if entry is not None:
            covered |= entry.covered_target_attributes()
    print(f"\nTarget attributes covered (top-k + join paths): {sorted(covered)}")


if __name__ == "__main__":
    main()
