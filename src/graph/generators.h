#ifndef WCOJ_GRAPH_GENERATORS_H_
#define WCOJ_GRAPH_GENERATORS_H_

// Synthetic graph generators standing in for the SNAP datasets (offline
// environment; see the mirror table in graph/datasets.h).
//
//  * ErdosRenyi: uniform random — mirrors the Gnutella p2p graphs (low
//    clustering, few triangles).
//  * BarabasiAlbert: preferential attachment — power-law degrees, high
//    clustering; mirrors ego-Facebook-like dense social graphs.
//  * Rmat: recursive matrix (Graph500-style) — heavy skew + community
//    structure; mirrors wiki-Vote / Slashdot / Epinions / LiveJournal.
//
// All generators are deterministic in (parameters, seed).

#include <cstdint>

#include "graph/graph.h"

namespace wcoj {

// ~`num_edges` distinct undirected edges among `num_nodes` nodes.
Graph ErdosRenyi(int64_t num_nodes, int64_t num_edges, uint64_t seed);

// Each new node attaches to `edges_per_node` existing nodes, preferentially
// by degree.
Graph BarabasiAlbert(int64_t num_nodes, int attach_per_node, uint64_t seed);

// R-MAT with 2^scale nodes and ~num_edges edges; (a,b,c,d) sum to 1.
Graph Rmat(int scale, int64_t num_edges, double a, double b, double c,
           uint64_t seed);

}  // namespace wcoj

#endif  // WCOJ_GRAPH_GENERATORS_H_
