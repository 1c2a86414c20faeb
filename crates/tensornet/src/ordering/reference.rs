//! The map-based interaction graph the bit-row [`InteractionGraph`] replaced,
//! kept as the oracle its orders are tested against.
//!
//! [`InteractionGraph`]: super::InteractionGraph

use super::{ContractionOrder, OrderingHeuristic};
use std::collections::{BTreeMap, BTreeSet};

/// Every heuristic, for the tests that sweep them.
pub(crate) const HEURISTICS: [OrderingHeuristic; 2] =
    [OrderingHeuristic::MinDegree, OrderingHeuristic::MinFill];

#[derive(Debug, Clone, Default)]
pub(crate) struct ReferenceGraph {
    adjacency: BTreeMap<usize, BTreeSet<usize>>,
}

impl ReferenceGraph {
    pub(crate) fn from_tensor_indices<'a, I>(tensors: I) -> Self
    where
        I: IntoIterator<Item = &'a [usize]>,
    {
        let mut g = ReferenceGraph::default();
        for indices in tensors {
            for &i in indices {
                g.adjacency.entry(i).or_default();
            }
            for (a, &i) in indices.iter().enumerate() {
                for &j in indices.iter().skip(a + 1) {
                    g.adjacency.entry(i).or_default().insert(j);
                    g.adjacency.entry(j).or_default().insert(i);
                }
            }
        }
        g
    }

    pub(crate) fn indices(&self) -> Vec<usize> {
        self.adjacency.keys().copied().collect()
    }

    pub(crate) fn elimination_order(&self, heuristic: OrderingHeuristic) -> ContractionOrder {
        let mut adjacency = self.adjacency.clone();
        let mut order = Vec::with_capacity(adjacency.len());
        let mut width = 0usize;

        while !adjacency.is_empty() {
            let chosen = match heuristic {
                OrderingHeuristic::MinDegree => *adjacency
                    .iter()
                    .min_by_key(|(idx, neigh)| (neigh.len(), **idx))
                    .map(|(idx, _)| idx)
                    .expect("non-empty"),
                OrderingHeuristic::MinFill => *adjacency
                    .iter()
                    .min_by_key(|(idx, neigh)| {
                        let fill = Self::fill_in(&adjacency, neigh);
                        (fill, neigh.len(), **idx)
                    })
                    .map(|(idx, _)| idx)
                    .expect("non-empty"),
            };

            let neighbours = adjacency.remove(&chosen).unwrap_or_default();
            width = width.max(neighbours.len() + 1);

            // Connect the neighbours into a clique and drop the eliminated index.
            for &n in &neighbours {
                if let Some(adj) = adjacency.get_mut(&n) {
                    adj.remove(&chosen);
                    for &m in &neighbours {
                        if m != n {
                            adj.insert(m);
                        }
                    }
                }
            }
            order.push(chosen);
        }
        ContractionOrder {
            order,
            width,
            heuristic,
        }
    }

    fn fill_in(
        adjacency: &BTreeMap<usize, BTreeSet<usize>>,
        neighbours: &BTreeSet<usize>,
    ) -> usize {
        let mut fill = 0;
        let neigh: Vec<usize> = neighbours.iter().copied().collect();
        for (i, &a) in neigh.iter().enumerate() {
            for &b in neigh.iter().skip(i + 1) {
                let connected = adjacency.get(&a).map(|s| s.contains(&b)).unwrap_or(false);
                if !connected {
                    fill += 1;
                }
            }
        }
        fill
    }

    pub(crate) fn best_order(&self) -> ContractionOrder {
        let a = self.elimination_order(OrderingHeuristic::MinDegree);
        let b = self.elimination_order(OrderingHeuristic::MinFill);
        if b.width < a.width {
            b
        } else {
            a
        }
    }
}
