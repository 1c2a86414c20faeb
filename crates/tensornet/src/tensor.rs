//! Dense tensors over binary indices.
//!
//! Every index of a quantum-circuit tensor network has dimension 2, which
//! keeps the layout simple: a tensor with `r` indices stores `2^r` complex
//! entries, with the **first index being the most significant bit** of the
//! flat position.

use crate::error::TensorNetError;
use num_complex::Complex64;
use std::collections::BTreeSet;

/// A dense complex tensor whose indices all have dimension 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Index ids in significance order (first = most significant bit).
    indices: Vec<usize>,
    /// `2^indices.len()` entries, row-major over the index bits.
    data: Vec<Complex64>,
}

impl Tensor {
    /// Build a tensor from indices and data; `data.len()` must equal
    /// `2^indices.len()` and indices must be distinct.
    pub fn new(indices: Vec<usize>, data: Vec<Complex64>) -> Result<Tensor, TensorNetError> {
        let expected = 1usize << indices.len();
        if data.len() != expected {
            return Err(TensorNetError::InvalidTensorData {
                indices: indices.len(),
                expected,
                got: data.len(),
            });
        }
        let mut seen = BTreeSet::new();
        for &i in &indices {
            if !seen.insert(i) {
                return Err(TensorNetError::DuplicateIndex { index: i });
            }
        }
        Ok(Tensor { indices, data })
    }

    /// The index ids of this tensor.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The number of indices (tensor rank).
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// Raw data slice.
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Scalar value of a rank-0 tensor.
    pub fn as_scalar(&self) -> Option<Complex64> {
        if self.indices.is_empty() {
            Some(self.data[0])
        } else {
            None
        }
    }

    /// Whether this tensor carries the given index.
    pub fn has_index(&self, index: usize) -> bool {
        self.indices.contains(&index)
    }

    /// Elementwise (broadcasting) product of two tensors: the result carries
    /// the union of the indices; shared indices are matched, none are summed.
    pub fn multiply(&self, other: &Tensor) -> Tensor {
        // Result index order: self's indices followed by other's new indices.
        let mut result_indices = self.indices.clone();
        for &idx in &other.indices {
            if !result_indices.contains(&idx) {
                result_indices.push(idx);
            }
        }
        let rank = result_indices.len();
        let size = 1usize << rank;
        let mut data = vec![Complex64::new(0.0, 0.0); size];

        // Precompute, for each operand, the mapping from result-bit position
        // to operand-bit position.
        let self_positions: Vec<usize> = self
            .indices
            .iter()
            .map(|idx| {
                result_indices
                    .iter()
                    .position(|r| r == idx)
                    .expect("index present")
            })
            .collect();
        let other_positions: Vec<usize> = other
            .indices
            .iter()
            .map(|idx| {
                result_indices
                    .iter()
                    .position(|r| r == idx)
                    .expect("index present")
            })
            .collect();

        for (pos, entry) in data.iter_mut().enumerate() {
            // Bit i of `pos` corresponds to result_indices[rank - 1 - i]?  We
            // defined the first index as most significant, so result index j
            // occupies bit (rank - 1 - j).
            let bit_of = |j: usize| (pos >> (rank - 1 - j)) & 1;
            let mut self_pos = 0usize;
            for &j in &self_positions {
                self_pos = (self_pos << 1) | bit_of(j);
            }
            let mut other_pos = 0usize;
            for &j in &other_positions {
                other_pos = (other_pos << 1) | bit_of(j);
            }
            *entry = self.data[self_pos] * other.data[other_pos];
        }
        Tensor {
            indices: result_indices,
            data,
        }
    }

    /// Sum the tensor over one of its indices, reducing the rank by one.
    /// Summing over an index the tensor does not carry is a no-op clone.
    pub fn sum_over(&self, index: usize) -> Tensor {
        let Some(pos) = self.indices.iter().position(|&i| i == index) else {
            return self.clone();
        };
        let rank = self.indices.len();
        let new_indices: Vec<usize> = self
            .indices
            .iter()
            .copied()
            .filter(|&i| i != index)
            .collect();
        let new_rank = rank - 1;
        let mut data = vec![Complex64::new(0.0, 0.0); 1usize << new_rank];

        for (old_pos, &value) in self.data.iter().enumerate() {
            // Remove the bit at position `pos` (most-significant-first order).
            let bit_index = rank - 1 - pos; // bit position within old_pos
            let high = old_pos >> (bit_index + 1);
            let low = old_pos & ((1usize << bit_index) - 1);
            let new_pos = (high << bit_index) | low;
            data[new_pos] += value;
        }
        Tensor {
            indices: new_indices,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex64 {
        Complex64::new(re, 0.0)
    }

    #[test]
    fn new_validates_data_length() {
        assert!(Tensor::new(vec![0, 1], vec![c(1.0); 4]).is_ok());
        assert!(matches!(
            Tensor::new(vec![0, 1], vec![c(1.0); 3]),
            Err(TensorNetError::InvalidTensorData { .. })
        ));
        assert!(matches!(
            Tensor::new(vec![0, 0], vec![c(1.0); 4]),
            Err(TensorNetError::DuplicateIndex { .. })
        ));
    }

    #[test]
    fn scalar_round_trip() {
        let t = Tensor::new(vec![], vec![c(2.5)]).unwrap();
        assert_eq!(t.rank(), 0);
        assert_eq!(t.as_scalar(), Some(c(2.5)));
        assert_eq!(t.data(), &[c(2.5)]);
    }

    #[test]
    fn value_at_uses_msb_first_order() {
        // T[i0, i1] with data [t00, t01, t10, t11]: selecting a value of one
        // index (a one-hot vector on it, summed out) leaves the other's.
        let t = Tensor::new(vec![7, 9], vec![c(0.0), c(1.0), c(2.0), c(3.0)]).unwrap();
        let one = |index| Tensor::new(vec![index], vec![c(0.0), c(1.0)]).unwrap();
        assert_eq!(t.multiply(&one(7)).sum_over(7).data(), &[c(2.0), c(3.0)]);
        assert_eq!(t.multiply(&one(9)).sum_over(9).data(), &[c(1.0), c(3.0)]);
    }

    #[test]
    fn multiply_disjoint_indices_is_outer_product() {
        let a = Tensor::new(vec![0], vec![c(1.0), c(2.0)]).unwrap();
        let b = Tensor::new(vec![1], vec![c(3.0), c(4.0)]).unwrap();
        let p = a.multiply(&b);
        assert_eq!(p.rank(), 2);
        assert_eq!(p.indices(), &[0, 1]);
        // p[i0, i1] = a[i0] * b[i1]
        assert_eq!(p.data(), &[c(3.0), c(4.0), c(6.0), c(8.0)]);
    }

    #[test]
    fn multiply_shared_index_is_elementwise() {
        let a = Tensor::new(vec![0], vec![c(1.0), c(2.0)]).unwrap();
        let b = Tensor::new(vec![0], vec![c(5.0), c(7.0)]).unwrap();
        let p = a.multiply(&b);
        assert_eq!(p.rank(), 1);
        assert_eq!(p.data(), &[c(5.0), c(14.0)]);
    }

    #[test]
    fn multiply_mixed_shared_and_free_indices() {
        // a[i, j], b[j, k]: product has indices [i, j, k],
        // p[i,j,k] = a[i,j] * b[j,k]
        let a = Tensor::new(vec![0, 1], vec![c(1.0), c(2.0), c(3.0), c(4.0)]).unwrap();
        let b = Tensor::new(vec![1, 2], vec![c(5.0), c(6.0), c(7.0), c(8.0)]).unwrap();
        let p = a.multiply(&b);
        assert_eq!(p.indices(), &[0, 1, 2]);
        // Check a couple of entries: p[0,1,0] = a[0,1]*b[1,0] = 2*7 = 14.
        assert_eq!(p.data()[0b010], c(14.0));
        // p[1,0,1] = a[1,0]*b[0,1] = 3*6 = 18.
        assert_eq!(p.data()[0b101], c(18.0));
    }

    #[test]
    fn multiply_matches_matrix_product_when_summed() {
        // (A·B)[i,k] = Σ_j A[i,j] B[j,k]; multiply then sum_over(j).
        let a = Tensor::new(vec![0, 1], vec![c(1.0), c(2.0), c(3.0), c(4.0)]).unwrap();
        let b = Tensor::new(vec![1, 2], vec![c(5.0), c(6.0), c(7.0), c(8.0)]).unwrap();
        let prod = a.multiply(&b).sum_over(1);
        assert_eq!(prod.indices(), &[0, 2]);
        // Row-major matrix product of [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]].
        assert_eq!(prod.data(), &[c(19.0), c(22.0), c(43.0), c(50.0)]);
    }

    #[test]
    fn sum_over_reduces_rank() {
        let t = Tensor::new(vec![3, 8], vec![c(1.0), c(2.0), c(3.0), c(4.0)]).unwrap();
        let s = t.sum_over(3);
        assert_eq!(s.indices(), &[8]);
        assert_eq!(s.data(), &[c(4.0), c(6.0)]);
        let s2 = t.sum_over(8);
        assert_eq!(s2.indices(), &[3]);
        assert_eq!(s2.data(), &[c(3.0), c(7.0)]);
    }

    #[test]
    fn sum_over_missing_index_is_noop() {
        let t = Tensor::new(vec![1], vec![c(1.0), c(2.0)]).unwrap();
        assert_eq!(t.sum_over(99), t);
    }

    #[test]
    fn sum_all_equals_iterated_sum_over() {
        let t = Tensor::new(vec![0, 1, 2], (0..8).map(|i| c(i as f64)).collect()).unwrap();
        let total: Complex64 = t.data().iter().sum();
        let reduced = t.sum_over(0).sum_over(1).sum_over(2);
        assert_eq!(reduced.as_scalar().unwrap(), total);
        assert_eq!(total, c(28.0));
    }

    #[test]
    fn multiply_with_scalar() {
        let s = Tensor::new(vec![], vec![c(3.0)]).unwrap();
        let t = Tensor::new(vec![4], vec![c(1.0), c(2.0)]).unwrap();
        let p = s.multiply(&t);
        assert_eq!(p.indices(), &[4]);
        assert_eq!(p.data(), &[c(3.0), c(6.0)]);
        let q = t.multiply(&s);
        assert_eq!(q.data(), &[c(3.0), c(6.0)]);
    }
}
