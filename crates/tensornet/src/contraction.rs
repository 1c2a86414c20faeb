//! Bucket (variable) elimination over a list of tensors.
//!
//! Given an elimination order over index ids, the contractor repeatedly
//! collects every tensor carrying the next index, multiplies them together,
//! sums out the index, and pushes the result back into the pool. When every
//! index has been eliminated the pool holds only scalars whose product is the
//! value of the closed network.

use crate::error::TensorNetError;
use crate::ordering::ContractionOrder;
use crate::tensor::Tensor;
use num_complex::Complex64;

/// Hard cap on the rank of any intermediate tensor. 2^26 complex entries is
/// ~1 GiB; anything beyond that indicates a pathological ordering for the
/// workloads this crate targets.
pub const DEFAULT_WIDTH_LIMIT: usize = 26;

/// Statistics gathered during a contraction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContractionStats {
    /// Largest intermediate tensor rank observed.
    pub max_rank: usize,
    /// Total number of pairwise tensor multiplications performed.
    pub multiplications: usize,
    /// Number of indices eliminated.
    pub eliminated_indices: usize,
}

/// Contract a closed tensor network (no open indices) to its scalar value
/// using the given elimination order.
pub fn contract_with_order(
    tensors: Vec<Tensor>,
    order: &ContractionOrder,
    width_limit: usize,
) -> Result<(Complex64, ContractionStats), TensorNetError> {
    let mut pool = tensors;
    let mut stats = ContractionStats::default();

    for &index in &order.order {
        // Pull out every tensor carrying this index.
        let (bucket, rest): (Vec<Tensor>, Vec<Tensor>) =
            pool.into_iter().partition(|t| t.has_index(index));
        pool = rest;

        if bucket.is_empty() {
            continue;
        }

        // Multiply the bucket together...
        let mut product = bucket[0].clone();
        for t in bucket.iter().skip(1) {
            product = product.multiply(t);
            stats.multiplications += 1;
            if product.rank() > width_limit {
                return Err(TensorNetError::WidthLimitExceeded {
                    width: product.rank(),
                    limit: width_limit,
                });
            }
            stats.max_rank = stats.max_rank.max(product.rank());
        }
        stats.max_rank = stats.max_rank.max(product.rank());

        // ...and sum out the eliminated index.
        let reduced = product.sum_over(index);
        stats.eliminated_indices += 1;
        pool.push(reduced);
    }

    // Everything left must be scalar; multiply them together.
    let mut value = Complex64::new(1.0, 0.0);
    for t in pool {
        match t.as_scalar() {
            Some(v) => value *= v,
            None => {
                return Err(TensorNetError::OpenIndicesRemain { count: t.rank() });
            }
        }
    }
    Ok((value, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{InteractionGraph, OrderingHeuristic};

    fn c(re: f64) -> Complex64 {
        Complex64::new(re, 0.0)
    }

    fn order(tensors: &[Tensor], heuristic: OrderingHeuristic) -> ContractionOrder {
        InteractionGraph::from_tensor_indices(tensors.iter().map(|t| t.indices()))
            .elimination_order(heuristic)
    }

    fn contract(tensors: Vec<Tensor>, order: &ContractionOrder) -> (Complex64, ContractionStats) {
        contract_with_order(tensors, order, DEFAULT_WIDTH_LIMIT).unwrap()
    }

    #[test]
    fn contract_single_vector_pair() {
        // Σ_i a[i] b[i] = 1*3 + 2*4 = 11
        let a = Tensor::new(vec![0], vec![c(1.0), c(2.0)]).unwrap();
        let b = Tensor::new(vec![0], vec![c(3.0), c(4.0)]).unwrap();
        let tensors = vec![a, b];
        let order = order(&tensors, OrderingHeuristic::MinDegree);
        let (value, stats) = contract(tensors, &order);
        assert_eq!(value, c(11.0));
        assert_eq!(stats.eliminated_indices, 1);
    }

    #[test]
    fn contract_matrix_chain_trace() {
        // Tr(A B) with A = [[1,2],[3,4]], B = [[5,6],[7,8]]:
        // Σ_{ij} A[i,j] B[j,i] = 1*5 + 2*7 + 3*6 + 4*8 = 69.
        let a = Tensor::new(vec![0, 1], vec![c(1.0), c(2.0), c(3.0), c(4.0)]).unwrap();
        let b = Tensor::new(vec![1, 0], vec![c(5.0), c(6.0), c(7.0), c(8.0)]).unwrap();
        let tensors = vec![a, b];
        let order = order(&tensors, OrderingHeuristic::MinFill);
        let (value, _) = contract(tensors, &order);
        assert_eq!(value, c(69.0));
    }

    #[test]
    fn contraction_value_is_order_independent() {
        // A small ring network: value must not depend on the order.
        let t01 = Tensor::new(vec![0, 1], vec![c(1.0), c(0.5), c(0.25), c(2.0)]).unwrap();
        let t12 = Tensor::new(vec![1, 2], vec![c(0.5), c(1.5), c(1.0), c(1.0)]).unwrap();
        let t23 = Tensor::new(vec![2, 3], vec![c(2.0), c(0.0), c(1.0), c(1.0)]).unwrap();
        let t30 = Tensor::new(vec![3, 0], vec![c(1.0), c(1.0), c(0.5), c(0.5)]).unwrap();
        let tensors = vec![t01, t12, t23, t30];
        let by_degree = order(&tensors, OrderingHeuristic::MinDegree);
        let by_fill = order(&tensors, OrderingHeuristic::MinFill);
        let descending = ContractionOrder {
            order: vec![3, 2, 1, 0],
            ..by_degree.clone()
        };
        let (v1, _) = contract(tensors.clone(), &by_degree);
        let (v2, _) = contract(tensors.clone(), &by_fill);
        let (v3, _) = contract(tensors, &descending);
        assert!((v1 - v2).norm() < 1e-12);
        assert!((v1 - v3).norm() < 1e-12);
    }

    #[test]
    fn scalars_multiply_through() {
        let s1 = Tensor::new(vec![], vec![c(2.0)]).unwrap();
        let s2 = Tensor::new(vec![], vec![c(-3.0)]).unwrap();
        let order = order(&[], OrderingHeuristic::MinDegree);
        let (value, stats) = contract(vec![s1, s2], &order);
        assert_eq!(value, c(-6.0));
        assert_eq!(stats.eliminated_indices, 0);
    }

    #[test]
    fn width_limit_is_enforced() {
        // A star of vector tensors sharing one hub index is fine, but many
        // pairwise-disjoint indices in one bucket blow up. Construct tensors
        // that force a big intermediate: three tensors each sharing index 0
        // but carrying 3 extra unique indices, and eliminate the hub first.
        let mut tensors = Vec::new();
        for k in 0..3 {
            let idxs = vec![0, 10 + 3 * k, 11 + 3 * k, 12 + 3 * k];
            tensors.push(Tensor::new(idxs, vec![c(1.0); 16]).unwrap());
        }
        let order = ContractionOrder {
            order: vec![0],
            ..order(&tensors, OrderingHeuristic::MinDegree)
        };
        let result = contract_with_order(tensors, &order, 5);
        assert!(matches!(
            result,
            Err(TensorNetError::WidthLimitExceeded { .. })
        ));
    }

    #[test]
    fn incomplete_order_leaves_open_indices() {
        let a = Tensor::new(vec![0, 1], vec![c(1.0); 4]).unwrap();
        let order = ContractionOrder {
            order: vec![0],
            width: 2,
            heuristic: OrderingHeuristic::MinDegree,
        };
        let result = contract_with_order(vec![a], &order, DEFAULT_WIDTH_LIMIT);
        assert!(matches!(
            result,
            Err(TensorNetError::OpenIndicesRemain { .. })
        ));
    }

    #[test]
    fn stats_report_max_rank() {
        let a = Tensor::new(vec![0, 1], vec![c(1.0); 4]).unwrap();
        let b = Tensor::new(vec![1, 2], vec![c(1.0); 4]).unwrap();
        let tensors = vec![a, b];
        let order = order(&tensors, OrderingHeuristic::MinDegree);
        let (_, stats) = contract(tensors, &order);
        assert!(stats.max_rank >= 2);
        assert!(stats.multiplications >= 1);
    }
}
