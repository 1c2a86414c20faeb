//! Circuit parameters: bound constants and named free parameters.
//!
//! The searched mixers in the paper share a single variational angle `β`
//! across every qubit (Fig. 6 shows `RX(2β)·RY(2β)` on all ten qubits). To
//! express that economically the [`Parameter`] type carries a *multiplier*,
//! so `Parameter::free("beta", 2.0)` represents `2β` and binding `β = 0.4`
//! yields an angle of `0.8`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A gate angle: either a bound constant or `multiplier × named-parameter`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Parameter {
    /// No parameter (for parameterless gates).
    #[default]
    None,
    /// A fixed numeric angle in radians.
    Bound(f64),
    /// A named free parameter scaled by a constant multiplier.
    Free {
        /// Parameter name, e.g. `"beta"` or `"gamma_1"`.
        name: String,
        /// Constant multiplier applied at bind time.
        multiplier: f64,
    },
}

impl Parameter {
    /// A bound constant angle.
    pub fn bound(value: f64) -> Self {
        Parameter::Bound(value)
    }

    /// A free parameter `multiplier × name`.
    pub fn free(name: impl Into<String>, multiplier: f64) -> Self {
        Parameter::Free {
            name: name.into(),
            multiplier,
        }
    }

    /// Whether this is `Parameter::None`.
    pub fn is_none(&self) -> bool {
        matches!(self, Parameter::None)
    }

    /// The parameter name if free.
    pub fn name(&self) -> Option<&str> {
        match self {
            Parameter::Free { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Resolve to a numeric angle given an assignment lookup.
    ///
    /// Returns `None` when the parameter is free and the lookup does not
    /// contain its name, or when called on `Parameter::None`.
    pub fn resolve(&self, lookup: &dyn Fn(&str) -> Option<f64>) -> Option<f64> {
        match self {
            Parameter::None => None,
            Parameter::Bound(v) => Some(*v),
            Parameter::Free { name, multiplier } => lookup(name).map(|v| v * multiplier),
        }
    }

    /// Numeric value if already bound.
    pub fn value(&self) -> Option<f64> {
        match self {
            Parameter::Bound(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<f64> for Parameter {
    fn from(v: f64) -> Self {
        Parameter::Bound(v)
    }
}

impl fmt::Display for Parameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parameter::None => write!(f, "-"),
            Parameter::Bound(v) => write!(f, "{v:.4}"),
            Parameter::Free { name, multiplier } => {
                if (*multiplier - 1.0).abs() < f64::EPSILON {
                    write!(f, "{name}")
                } else {
                    write!(f, "{multiplier}*{name}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_resolves_to_itself() {
        let p = Parameter::bound(1.25);
        assert_eq!(p.resolve(&|_| None), Some(1.25));
        assert_eq!(p.value(), Some(1.25));
    }

    #[test]
    fn free_resolves_with_multiplier() {
        let p = Parameter::free("beta", 2.0);
        assert_eq!(p.name(), Some("beta"));
        let resolved = p.resolve(&|n| if n == "beta" { Some(0.5) } else { None });
        assert_eq!(resolved, Some(1.0));
    }

    #[test]
    fn free_without_assignment_is_unresolved() {
        let p = Parameter::free("gamma", 1.0);
        assert_eq!(p.resolve(&|_| None), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Parameter::None.to_string(), "-");
        assert_eq!(Parameter::free("beta", 1.0).to_string(), "beta");
        assert_eq!(Parameter::free("beta", 2.0).to_string(), "2*beta");
        assert_eq!(Parameter::bound(0.5).to_string(), "0.5000");
    }

    #[test]
    fn from_f64() {
        let p: Parameter = 0.75.into();
        assert_eq!(p, Parameter::Bound(0.75));
    }
}
