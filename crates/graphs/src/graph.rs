//! Simple undirected weighted graphs.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An undirected weighted edge `(u, v, w)` with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight (1.0 for unweighted instances).
    pub weight: f64,
}

impl Edge {
    /// Normalized edge with `u < v`.
    pub fn new(a: usize, b: usize, weight: f64) -> Self {
        if a <= b {
            Edge { u: a, v: b, weight }
        } else {
            Edge { u: b, v: a, weight }
        }
    }
}

/// A label describing how a graph was produced; carried along for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphKind {
    /// Erdős–Rényi G(n, p).
    ErdosRenyi,
    /// Random d-regular.
    RandomRegular,
    /// Cycle graph.
    Cycle,
    /// Complete graph.
    Complete,
    /// Star graph.
    Star,
    /// Anything constructed manually.
    Custom,
}

impl fmt::Display for GraphKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GraphKind::ErdosRenyi => "erdos-renyi",
            GraphKind::RandomRegular => "random-regular",
            GraphKind::Cycle => "cycle",
            GraphKind::Complete => "complete",
            GraphKind::Star => "star",
            GraphKind::Custom => "custom",
        };
        write!(f, "{s}")
    }
}

/// An undirected weighted graph stored as a deduplicated edge list plus
/// adjacency lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    num_nodes: usize,
    edges: Vec<Edge>,
    adjacency: Vec<Vec<(usize, f64)>>,
    kind: GraphKind,
}

impl Graph {
    /// An empty graph on `num_nodes` nodes.
    pub fn empty(num_nodes: usize) -> Self {
        Graph {
            num_nodes,
            edges: Vec::new(),
            adjacency: vec![Vec::new(); num_nodes],
            kind: GraphKind::Custom,
        }
    }

    /// Build a graph from an unweighted edge list.
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let weighted: Vec<(usize, usize, f64)> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Self::from_weighted_edges(num_nodes, &weighted)
    }

    /// Build a graph from a weighted edge list. Parallel edges collapse into
    /// one edge whose weight is the sum.
    pub fn from_weighted_edges(
        num_nodes: usize,
        edges: &[(usize, usize, f64)],
    ) -> Result<Self, GraphError> {
        let mut g = Graph::empty(num_nodes);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }

    /// Add (or merge) an edge.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> Result<(), GraphError> {
        if u >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                index: u,
                num_nodes: self.num_nodes,
            });
        }
        if v >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                index: v,
                num_nodes: self.num_nodes,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let edge = Edge::new(u, v, weight);
        if let Some(existing) = self
            .edges
            .iter_mut()
            .find(|e| e.u == edge.u && e.v == edge.v)
        {
            existing.weight += weight;
            for &(a, b) in &[(edge.u, edge.v), (edge.v, edge.u)] {
                if let Some(entry) = self.adjacency[a].iter_mut().find(|(n, _)| *n == b) {
                    entry.1 += weight;
                }
            }
        } else {
            self.edges.push(edge);
            self.adjacency[edge.u].push((edge.v, weight));
            self.adjacency[edge.v].push((edge.u, weight));
        }
        Ok(())
    }

    /// Mark the generator kind (builder-style).
    pub fn with_kind(mut self, kind: GraphKind) -> Self {
        self.kind = kind;
        self
    }

    /// The generator kind.
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list (each edge once, `u < v`).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbours of `node` with edge weights.
    pub fn neighbors(&self, node: usize) -> &[(usize, f64)] {
        &self.adjacency[node]
    }

    /// Degree of `node`.
    pub fn degree(&self, node: usize) -> usize {
        self.adjacency[node].len()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_nodes as f64
        }
    }

    /// Whether the graph is `d`-regular.
    pub fn is_regular(&self, d: usize) -> bool {
        (0..self.num_nodes).all(|v| self.degree(v) == d)
    }

    /// Whether an edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let e = Edge::new(u, v, 0.0);
        self.edges.iter().any(|x| x.u == e.u && x.v == e.v)
    }

    /// Whether the graph is connected (an empty or single-node graph counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes <= 1 {
            return true;
        }
        let mut seen = vec![false; self.num_nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in &self.adjacency[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.num_nodes
    }

    /// Edge density: `|E| / (n choose 2)`.
    pub fn density(&self) -> f64 {
        if self.num_nodes < 2 {
            return 0.0;
        }
        let max_edges = self.num_nodes * (self.num_nodes - 1) / 2;
        self.num_edges() as f64 / max_edges as f64
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} graph: {} nodes, {} edges, density {:.3}",
            self.kind,
            self.num_nodes,
            self.num_edges(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_validates() {
        let mut g = Graph::empty(3);
        assert!(g.add_edge(0, 1, 1.0).is_ok());
        assert_eq!(
            g.add_edge(0, 5, 1.0),
            Err(GraphError::NodeOutOfRange {
                index: 5,
                num_nodes: 3
            })
        );
        assert_eq!(g.add_edge(1, 1, 1.0), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn parallel_edges_merge_weights() {
        let mut g = Graph::empty(2);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 0, 2.5).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!((g.edges()[0].weight - 3.5).abs() < 1e-12);
        assert!((g.neighbors(0)[0].1 - 3.5).abs() < 1e-12);
        assert!((g.neighbors(1)[0].1 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn degrees_and_density() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert!((g.density() - 4.0 / 6.0).abs() < 1e-12);
        assert!(g.is_regular(2));
        assert!(!g.is_regular(3));
    }

    #[test]
    fn connectivity() {
        let connected = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(connected.is_connected());
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!disconnected.is_connected());
        assert!(Graph::empty(1).is_connected());
        assert!(Graph::empty(0).is_connected());
        assert!(!Graph::empty(2).is_connected());
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = Graph::from_edges(3, &[(0, 2)]).unwrap();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn total_weight_sums_edges() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 2.0)]).unwrap();
        assert!((g.total_weight() - 2.5).abs() < 1e-12);
    }
}
