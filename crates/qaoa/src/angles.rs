//! [`Angles`]: one family of a trained circuit's angles (its γs or its βs),
//! stored inline at shallow depths.
//!
//! A search keeps one [`TrainedCircuit`](crate::energy::TrainedCircuit) per
//! candidate and graph in its outcome, and nearly all of them sit at
//! p ≤ 2. In two `Vec<f64>`s, each circuit's angles would take two heap
//! blocks of a few bytes apiece, most of the allocations in a search
//! outcome. Inline, they take none, at the size of a `Vec`.

use serde::{Deserialize, Error, Serialize, Value};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;

/// Layers kept inline; deeper circuits keep their angles on the heap.
const INLINE: usize = 2;

/// One angle per QAOA layer. Reads as a `[f64]`, and serializes as a
/// sequence, like the `Vec<f64>` it replaces.
#[derive(Clone)]
pub struct Angles(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [f64; INLINE] },
    Heap(Box<[f64]>),
}

impl Angles {
    pub fn as_slice(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(angles) => angles,
        }
    }
}

impl From<&[f64]> for Angles {
    fn from(angles: &[f64]) -> Self {
        if angles.len() > INLINE {
            return Angles(Repr::Heap(angles.into()));
        }
        let mut buf = [0.0; INLINE];
        buf[..angles.len()].copy_from_slice(angles);
        Angles(Repr::Inline {
            len: angles.len() as u8,
            buf,
        })
    }
}

impl From<Vec<f64>> for Angles {
    fn from(angles: Vec<f64>) -> Self {
        Angles::from(angles.as_slice())
    }
}

impl Deref for Angles {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl Borrow<[f64]> for Angles {
    fn borrow(&self) -> &[f64] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Angles {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Angles {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Angles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Serialize for Angles {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for Angles {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Vec::<f64>::from_value(value).map(Angles::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angles_take_the_size_of_a_vec_and_keep_shallow_depths_inline() {
        assert_eq!(
            std::mem::size_of::<Angles>(),
            std::mem::size_of::<Vec<f64>>()
        );
        for p in 0..=4 {
            let flat: Vec<f64> = (0..p).map(|k| 0.1 * k as f64 - 0.25).collect();
            let angles = Angles::from(flat.as_slice());
            assert_eq!(angles.as_slice(), flat.as_slice());
            assert_eq!(matches!(angles.0, Repr::Inline { .. }), p <= INLINE);
            assert_eq!(format!("{angles:?}"), format!("{flat:?}"));
        }
    }

    #[test]
    fn angles_serialize_exactly_like_the_vec_they_replace() {
        for flat in [vec![], vec![0.5], vec![-1.25, 3.0e-17], vec![0.1, 0.2, 0.3]] {
            let angles = Angles::from(flat.clone());
            let value = angles.to_value();
            assert_eq!(value, flat.to_value());
            assert_eq!(Angles::from_value(&value).unwrap(), angles);
        }
    }
}
