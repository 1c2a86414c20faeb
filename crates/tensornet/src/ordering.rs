//! Contraction-order heuristics.
//!
//! Bucket elimination contracts the network one *index* at a time; the cost is
//! exponential in the **contraction width** — the rank of the largest
//! intermediate tensor. QTensor's key ingredient is a good elimination order;
//! this module provides the two standard greedy heuristics (min-degree and
//! min-fill) over the index interaction graph (the "line graph" of the tensor
//! network) plus width estimation, so the backend can pick the cheaper order
//! before contracting.
//!
//! The graph is stored as dense bit rows. Its vertices are the distinct index
//! ids in ascending order, numbered `0..n` (an expectation plan's compact ids
//! number themselves); row `v` holds one bit per neighbour, in as many 64-bit
//! words as `n` needs. The degree of `v` is a popcount. Its fill — the edges
//! eliminating it would add — is `C(d, 2) − ½ Σ_{a ∈ N(v)} |N(a) ∩ N(v)|`,
//! since each edge among the neighbours is counted from both of its ends.
//! Eliminating `v` ORs `N(v)` into each neighbour's row and clears that
//! row's own bit and `v`'s.
//!
//! The orders are the ones the `BTreeMap<usize, BTreeSet<usize>>` graph this
//! replaced returned, to the index: both scan the live vertices in
//! ascending id and pick the least key — `(degree, id)` for min-degree,
//! `(fill, degree, id)` for min-fill — and the keys are the same numbers
//! computed another way. Identical orders give
//! identical contraction programs, so no energy moves by a bit. That map
//! version survives as a test-only oracle (`ordering/reference.rs`).

#[cfg(test)]
pub(crate) mod reference;

/// Which greedy heuristic to use when ordering indices for elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingHeuristic {
    /// Eliminate the index with the fewest neighbours first.
    MinDegree,
    /// Eliminate the index whose elimination adds the fewest new edges
    /// (fill-in) to the interaction graph.
    MinFill,
}

/// An elimination order together with its estimated contraction width.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractionOrder {
    /// Indices in elimination order.
    pub order: Vec<usize>,
    /// Estimated contraction width: the largest clique formed during
    /// elimination (equals the largest intermediate tensor rank + 1 bucket
    /// index, an upper bound on what the contractor will see).
    pub width: usize,
    /// The heuristic that produced this order.
    pub heuristic: OrderingHeuristic,
}

/// The index interaction graph: vertices are index ids, with an edge between
/// two indices whenever some tensor carries both.
#[derive(Debug, Clone, Default)]
pub struct InteractionGraph {
    /// The distinct index ids in ascending order: vertex `v` is `ids[v]`.
    ids: Vec<usize>,
    /// 64-bit words per row.
    words: usize,
    /// Row `v` is `rows[v * words..][..words]`; bit `u` of it is set when
    /// some tensor carries both `ids[u]` and `ids[v]`. Bit `v` never is.
    rows: Vec<u64>,
}

impl InteractionGraph {
    /// Build the interaction graph from the index lists of all tensors. An
    /// id repeated within one list is one index and adds no edge to itself
    /// (a [`Tensor`](crate::Tensor) never carries an index twice).
    pub fn from_tensor_indices<'a, T, I>(tensors: I) -> Self
    where
        T: Copy + Into<usize> + 'a,
        I: IntoIterator<Item = &'a [T]>,
    {
        let lists: Vec<&[T]> = tensors.into_iter().collect();
        let mut ids: Vec<usize> = lists
            .iter()
            .flat_map(|l| l.iter().map(|&i| i.into()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let words = ids.len().div_ceil(64);
        let mut rows = vec![0; ids.len() * words];
        let mut vertices = Vec::new();
        for list in lists {
            vertices.clear();
            vertices.extend(list.iter().map(|&i| {
                ids.binary_search(&i.into())
                    .expect("every id of every list was collected")
            }));
            for (k, &a) in vertices.iter().enumerate() {
                for &b in &vertices[k + 1..] {
                    if a != b {
                        set(&mut rows[a * words..][..words], b);
                        set(&mut rows[b * words..][..words], a);
                    }
                }
            }
        }
        InteractionGraph { ids, words, rows }
    }

    /// Number of index vertices.
    pub fn num_indices(&self) -> usize {
        self.ids.len()
    }

    /// All index ids in the graph.
    pub fn indices(&self) -> Vec<usize> {
        self.ids.clone()
    }

    /// Compute an elimination order with the requested heuristic.
    ///
    /// Elimination simulates the contraction: removing an index connects all
    /// of its remaining neighbours into a clique (they end up in the same
    /// intermediate tensor). The returned width is `1 +` the largest
    /// neighbourhood encountered, i.e. the rank of the largest bucket tensor
    /// before summation.
    pub fn elimination_order(&self, heuristic: OrderingHeuristic) -> ContractionOrder {
        let (n, words) = (self.ids.len(), self.words);
        let mut rows = self.rows.clone();
        let mut live = vec![0; words];
        for v in 0..n {
            set(&mut live, v);
        }
        let mut neighbours = vec![0; words];
        let mut order = Vec::with_capacity(n);
        let mut width = 0usize;

        for _ in 0..n {
            // Vertices are scanned in ascending id, and every key ends in
            // the id, so ties break as on the index ids themselves.
            let row = |v: usize| &rows[v * words..][..words];
            let chosen = match heuristic {
                OrderingHeuristic::MinDegree => ones(&live).min_by_key(|&v| (count(row(v)), v)),
                OrderingHeuristic::MinFill => ones(&live).min_by_key(|&v| {
                    let neighbourhood = row(v);
                    let degree = count(neighbourhood);
                    // Every edge among the neighbours is seen from both ends.
                    let present: usize = ones(neighbourhood)
                        .map(|a| count_common(row(a), neighbourhood))
                        .sum::<usize>()
                        / 2;
                    (degree * degree.saturating_sub(1) / 2 - present, degree, v)
                }),
            }
            .expect("a vertex is left");

            neighbours.copy_from_slice(row(chosen));
            width = width.max(count(&neighbours) + 1);
            // Connect the neighbours into a clique and drop the eliminated
            // index.
            for a in ones(&neighbours) {
                let row = &mut rows[a * words..][..words];
                for (word, &other) in row.iter_mut().zip(&neighbours) {
                    *word |= other;
                }
                clear(row, a);
                clear(row, chosen);
            }
            clear(&mut live, chosen);
            order.push(self.ids[chosen]);
        }
        ContractionOrder {
            order,
            width,
            heuristic,
        }
    }

    /// Pick the better (smaller-width) of the min-degree and min-fill orders.
    pub fn best_order(&self) -> ContractionOrder {
        let a = self.elimination_order(OrderingHeuristic::MinDegree);
        let b = self.elimination_order(OrderingHeuristic::MinFill);
        if b.width < a.width {
            b
        } else {
            a
        }
    }
}

fn set(bits: &mut [u64], bit: usize) {
    bits[bit / 64] |= 1 << (bit % 64);
}

fn clear(bits: &mut [u64], bit: usize) {
    bits[bit / 64] &= !(1 << (bit % 64));
}

fn count(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

fn count_common(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// The set bits, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(k, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = (rest != 0).then(|| k * 64 + rest.trailing_zeros() as usize);
            rest &= rest.wrapping_sub(1);
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::reference::HEURISTICS;
    use super::*;

    #[test]
    fn interaction_graph_from_tensors() {
        // Tensors: {0,1}, {1,2}, {2,3}
        let lists: Vec<Vec<usize>> = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let g = InteractionGraph::from_tensor_indices(lists.iter().map(|v| v.as_slice()));
        assert_eq!(g.num_indices(), 4);
        assert_eq!(g.indices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn chain_has_width_two() {
        // A path interaction graph eliminates with width 2 (rank-2 buckets).
        let lists: Vec<Vec<usize>> = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]];
        let g = InteractionGraph::from_tensor_indices(lists.iter().map(|v| v.as_slice()));
        for h in [OrderingHeuristic::MinDegree, OrderingHeuristic::MinFill] {
            let o = g.elimination_order(h);
            assert_eq!(o.order.len(), 5);
            assert_eq!(o.width, 2, "heuristic {h:?}");
        }
    }

    #[test]
    fn clique_width_equals_size() {
        // One tensor over 4 indices: the interaction graph is K4.
        let lists: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3]];
        let g = InteractionGraph::from_tensor_indices(lists.iter().map(|v| v.as_slice()));
        let o = g.elimination_order(OrderingHeuristic::MinDegree);
        assert_eq!(o.width, 4);
    }

    #[test]
    fn orders_are_permutations_of_indices() {
        let lists: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![5, 0]];
        let g = InteractionGraph::from_tensor_indices(lists.iter().map(|v| v.as_slice()));
        for h in HEURISTICS {
            let o = g.elimination_order(h);
            let mut sorted = o.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5], "heuristic {h:?}");
        }
    }

    #[test]
    fn min_fill_is_no_worse_than_natural_on_a_cycle() {
        // A 6-cycle of rank-2 tensors.
        let lists: Vec<Vec<usize>> = (0..6).map(|i| vec![i, (i + 1) % 6]).collect();
        let g = InteractionGraph::from_tensor_indices(lists.iter().map(|v| v.as_slice()));
        // Eliminating in ascending id has width 3: index 0 joins 1 and 5.
        let fill = g.elimination_order(OrderingHeuristic::MinFill);
        assert!(fill.width <= 3);
    }

    #[test]
    fn best_order_picks_smaller_width() {
        let lists: Vec<Vec<usize>> =
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0], vec![1, 3]];
        let g = InteractionGraph::from_tensor_indices(lists.iter().map(|v| v.as_slice()));
        let best = g.best_order();
        let md = g.elimination_order(OrderingHeuristic::MinDegree);
        let mf = g.elimination_order(OrderingHeuristic::MinFill);
        assert!(best.width <= md.width);
        assert!(best.width <= mf.width || best.width <= md.width);
    }

    #[test]
    fn empty_graph_gives_empty_order() {
        let g = InteractionGraph::from_tensor_indices(std::iter::empty::<&[usize]>());
        let o = g.elimination_order(OrderingHeuristic::MinDegree);
        assert!(o.order.is_empty());
        assert_eq!(o.width, 0);
    }

    #[test]
    fn a_repeated_id_is_one_index() {
        // `Tensor::new` rejects such a list, so no network carries one. The
        // map-based graph gave the id an edge to itself, which counted it
        // among its own neighbours; the bit rows have no such bit.
        let repeated: Vec<Vec<usize>> = vec![vec![4, 9, 4], vec![9, 2], vec![7, 7]];
        let once: Vec<Vec<usize>> = vec![vec![4, 9], vec![9, 2], vec![7]];
        let g = InteractionGraph::from_tensor_indices(repeated.iter().map(|v| v.as_slice()));
        let want = InteractionGraph::from_tensor_indices(once.iter().map(|v| v.as_slice()));
        assert_eq!(g.indices(), vec![2, 4, 7, 9]);
        for h in HEURISTICS {
            assert_eq!(g.elimination_order(h), want.elimination_order(h), "{h:?}");
        }
        assert_eq!(g.best_order().width, 2);
    }

    #[test]
    fn rows_span_as_many_words_as_the_indices_need() {
        // A 150-index path over sparse ids (three words per row), and one
        // tensor over 70 indices (a clique across the first word boundary).
        let path: Vec<Vec<usize>> = (0..149).map(|k| vec![1000 + 7 * k, 1007 + 7 * k]).collect();
        let g = InteractionGraph::from_tensor_indices(path.iter().map(|v| v.as_slice()));
        assert_eq!(g.num_indices(), 150);
        for h in HEURISTICS {
            let o = g.elimination_order(h);
            assert_eq!(o.order.len(), 150);
            assert_eq!(o.width, 2, "{h:?}");
        }
        let clique: Vec<usize> = (0..70).map(|k| 3 * k).collect();
        let g = InteractionGraph::from_tensor_indices([clique.as_slice()]);
        assert_eq!(g.best_order().width, 70);
        assert_eq!(g.best_order().order, clique);
    }
}
