//! Structural graph metrics used for dataset characterization.
//!
//! The paper's profiling dataset is described only as ER graphs "with varying
//! degrees of connectivity"; the figure harness characterizes the generated
//! instances with the metrics here so a reader can judge how close a
//! regenerated dataset is to the paper's.

use crate::graph::Graph;
use serde::{Deserialize, Serialize};

/// Summary statistics of one graph instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSummary {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Edge density in `[0, 1]`.
    pub density: f64,
    /// Average degree.
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of triangles.
    pub triangles: usize,
    /// Global clustering coefficient (transitivity).
    pub clustering: f64,
    /// Whether the graph is connected.
    pub connected: bool,
    /// Number of connected components.
    pub components: usize,
}

impl Graph {
    /// Number of triangles in the graph.
    pub fn triangle_count(&self) -> usize {
        let mut count = 0;
        for e in self.edges() {
            // Triangles through edge (u, v): common neighbours of u and v.
            let neigh_u: std::collections::BTreeSet<usize> =
                self.neighbors(e.u).iter().map(|&(w, _)| w).collect();
            count += self
                .neighbors(e.v)
                .iter()
                .filter(|&&(w, _)| neigh_u.contains(&w))
                .count();
        }
        // Each triangle is counted once per edge, i.e. three times.
        count / 3
    }

    /// Global clustering coefficient: `3 × triangles / number of connected
    /// triples` (0 when the graph has no paths of length two).
    pub fn clustering_coefficient(&self) -> f64 {
        let triples: usize = (0..self.num_nodes())
            .map(|v| {
                let d = self.degree(v);
                d * d.saturating_sub(1) / 2
            })
            .sum();
        if triples == 0 {
            return 0.0;
        }
        3.0 * self.triangle_count() as f64 / triples as f64
    }

    /// Number of connected components (an empty graph has zero components).
    pub fn connected_components(&self) -> usize {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                for &(w, _) in self.neighbors(v) {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        components
    }

    /// Degree histogram: `histogram[d]` = number of nodes with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut histogram = vec![0usize; self.max_degree() + 1];
        for v in 0..self.num_nodes() {
            histogram[self.degree(v)] += 1;
        }
        histogram
    }

    /// All summary metrics in one struct.
    pub fn summary(&self) -> GraphSummary {
        GraphSummary {
            nodes: self.num_nodes(),
            edges: self.num_edges(),
            density: self.density(),
            average_degree: self.average_degree(),
            max_degree: self.max_degree(),
            triangles: self.triangle_count(),
            clustering: self.clustering_coefficient(),
            connected: self.is_connected(),
            components: self.connected_components(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_count_on_known_graphs() {
        assert_eq!(Graph::complete(3).triangle_count(), 1);
        assert_eq!(Graph::complete(4).triangle_count(), 4);
        assert_eq!(Graph::complete(5).triangle_count(), 10);
        assert_eq!(Graph::cycle(5).triangle_count(), 0);
        assert_eq!(Graph::star(6).triangle_count(), 0);
    }

    #[test]
    fn clustering_coefficient_extremes() {
        // Complete graphs are perfectly clustered; trees/cycles (n > 3) are not.
        assert!((Graph::complete(5).clustering_coefficient() - 1.0).abs() < 1e-12);
        assert_eq!(Graph::cycle(6).clustering_coefficient(), 0.0);
        assert_eq!(Graph::star(5).clustering_coefficient(), 0.0);
        assert_eq!(Graph::empty(4).clustering_coefficient(), 0.0);
    }

    #[test]
    fn connected_components_counts() {
        assert_eq!(Graph::cycle(5).connected_components(), 1);
        // Components: {0,1}, {2,3}, {4}, {5}.
        let disconnected = Graph::from_edges(6, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(disconnected.connected_components(), 4);
        assert_eq!(Graph::empty(0).connected_components(), 0);
    }

    #[test]
    fn degree_histogram_sums_to_node_count() {
        let g = Graph::erdos_renyi(12, 0.4, 9);
        let histogram = g.degree_histogram();
        assert_eq!(histogram.iter().sum::<usize>(), 12);
        // Weighted sum of degrees equals twice the edge count.
        let degree_sum: usize = histogram.iter().enumerate().map(|(d, &n)| d * n).sum();
        assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn summary_is_consistent_with_individual_metrics() {
        let g = Graph::random_regular(10, 4, 3).unwrap();
        let s = g.summary();
        assert_eq!(s.nodes, 10);
        assert_eq!(s.edges, 20);
        assert_eq!(s.max_degree, 4);
        assert!((s.average_degree - 4.0).abs() < 1e-12);
        assert_eq!(s.triangles, g.triangle_count());
        assert_eq!(s.connected, g.is_connected());
        assert_eq!(s.components, g.connected_components());
    }
}
