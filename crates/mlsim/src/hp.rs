//! Hyper-parameter settings and grid expansion.

use std::fmt;

/// One hyper-parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum HpValue {
    /// Integer-valued HP (batch size, #layers, …).
    Int(i64),
    /// Real-valued HP (learning rate, decay rate, …).
    Float(f64),
    /// Categorical HP (kernel function, …).
    Text(String),
}

impl fmt::Display for HpValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpValue::Int(v) => write!(f, "{v}"),
            HpValue::Float(v) => write!(f, "{v}"),
            HpValue::Text(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for HpValue {
    fn from(v: i64) -> Self {
        HpValue::Int(v)
    }
}

impl From<f64> for HpValue {
    fn from(v: f64) -> Self {
        HpValue::Float(v)
    }
}

impl From<&str> for HpValue {
    fn from(v: &str) -> Self {
        HpValue::Text(v.to_string())
    }
}

/// An ordered set of named hyper-parameter values — one point of the search
/// grid (one "model" in the paper's Fig. 2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HpSetting {
    entries: Vec<(String, HpValue)>,
}

impl HpSetting {
    /// Creates an empty setting.
    pub fn new() -> Self {
        HpSetting::default()
    }

    /// Appends a named value, builder-style.
    pub fn with(mut self, key: &str, value: impl Into<HpValue>) -> Self {
        self.entries.push((key.to_string(), value.into()));
        self
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&HpValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Integer value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key is missing or not an integer.
    pub fn int(&self, key: &str) -> i64 {
        match self.get(key) {
            Some(HpValue::Int(v)) => *v,
            other => panic!("hp {key:?} expected int, got {other:?}"),
        }
    }

    /// Float value of `key` (integer values are widened).
    ///
    /// # Panics
    ///
    /// Panics if the key is missing or textual.
    pub fn float(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(HpValue::Float(v)) => *v,
            Some(HpValue::Int(v)) => *v as f64,
            other => panic!("hp {key:?} expected float, got {other:?}"),
        }
    }

    /// Text value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key is missing or not textual.
    pub fn text(&self, key: &str) -> &str {
        match self.get(key) {
            Some(HpValue::Text(v)) => v,
            other => panic!("hp {key:?} expected text, got {other:?}"),
        }
    }

    /// Stable compact identifier, e.g. `bs=128,lr=0.01,kernel=RBF`.
    pub fn id(&self) -> String {
        self.entries
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The key/value pairs in insertion order.
    pub fn entries(&self) -> &[(String, HpValue)] {
        &self.entries
    }

    /// Stable 64-bit hash of the setting (FNV-1a over the id), used to
    /// derive per-configuration seeds.
    pub fn stable_hash(&self) -> u64 {
        fnv1a(self.id().as_bytes())
    }
}

/// FNV-1a over `bytes` — the hash [`HpSetting::stable_hash`] applies to
/// the formatted id. Exposed so callers that already hold the id string
/// can hash it without re-formatting the setting.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl fmt::Display for HpSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// One axis of a hyper-parameter grid: a key plus candidate values.
#[derive(Debug, Clone, PartialEq)]
pub struct GridAxis {
    /// HP name.
    pub key: String,
    /// Candidate values.
    pub values: Vec<HpValue>,
}

impl GridAxis {
    /// Creates an axis from any value list.
    pub fn new(key: &str, values: Vec<HpValue>) -> Self {
        GridAxis { key: key.to_string(), values }
    }
}

/// Cartesian product of all axes, in row-major (last axis fastest) order.
///
/// ```
/// use spottune_mlsim::hp::{expand_grid, GridAxis, HpValue};
///
/// let grid = expand_grid(&[
///     GridAxis::new("bs", vec![HpValue::Int(64), HpValue::Int(128)]),
///     GridAxis::new("lr", vec![HpValue::Float(0.01), HpValue::Float(0.001)]),
/// ]);
/// assert_eq!(grid.len(), 4);
/// assert_eq!(grid[0].id(), "bs=64,lr=0.01");
/// assert_eq!(grid[3].id(), "bs=128,lr=0.001");
/// ```
pub fn expand_grid(axes: &[GridAxis]) -> Vec<HpSetting> {
    let mut out = vec![HpSetting::new()];
    for axis in axes {
        assert!(!axis.values.is_empty(), "grid axis {:?} is empty", axis.key);
        let mut next = Vec::with_capacity(out.len() * axis.values.len());
        for partial in &out {
            for v in &axis.values {
                next.push(partial.clone().with(&axis.key, v.clone()));
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors() {
        let hp = HpSetting::new()
            .with("bs", 128i64)
            .with("lr", 0.01)
            .with("kernel", "RBF");
        assert_eq!(hp.int("bs"), 128);
        assert_eq!(hp.float("lr"), 0.01);
        assert_eq!(hp.float("bs"), 128.0); // int widens
        assert_eq!(hp.text("kernel"), "RBF");
        assert_eq!(hp.id(), "bs=128,lr=0.01,kernel=RBF");
        assert!(hp.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn wrong_type_panics() {
        let hp = HpSetting::new().with("lr", 0.01);
        let _ = hp.int("lr");
    }

    #[test]
    fn grid_expansion_is_cartesian_and_ordered() {
        let grid = expand_grid(&[
            GridAxis::new("a", vec![HpValue::Int(1), HpValue::Int(2)]),
            GridAxis::new("b", vec![HpValue::Int(3), HpValue::Int(4), HpValue::Int(5)]),
        ]);
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[0].id(), "a=1,b=3");
        assert_eq!(grid[1].id(), "a=1,b=4");
        assert_eq!(grid[5].id(), "a=2,b=5");
    }

    #[test]
    fn stable_hash_distinguishes_settings() {
        let a = HpSetting::new().with("bs", 128i64);
        let b = HpSetting::new().with("bs", 64i64);
        assert_ne!(a.stable_hash(), b.stable_hash());
        assert_eq!(a.stable_hash(), a.clone().stable_hash());
    }

    #[test]
    fn empty_grid_is_single_empty_setting() {
        let grid = expand_grid(&[]);
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].id(), "");
    }
}
