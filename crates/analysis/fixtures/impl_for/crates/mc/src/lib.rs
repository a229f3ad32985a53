//! `impl … for` fixture: neither a trait impl's `for` nor a higher-ranked
//! `for<'a>` opens a loop, so the leak after them must still be audited.
//! The analyzer must report exactly one map-iter finding, on the
//! `.values()` line.

use std::collections::HashMap;
use std::fmt;

pub struct Totals {
    by_name: HashMap<String, f64>,
}

impl fmt::Debug for Totals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Totals")
    }
}

/// A higher-ranked bound.
pub fn apply<F>(f: F) -> usize
where
    F: for<'a> Fn(&'a str) -> usize,
{
    f("x")
}

impl Totals {
    /// The seeded leak: a float sum in hash order.
    pub fn total(&self) -> f64 {
        self.by_name.values().sum() // line 30: the one expected finding
    }

    /// A real loop, over a sequence: nothing to flag.
    pub fn lengths(names: &[String]) -> Vec<usize> {
        let mut out = Vec::new();
        for name in names {
            out.push(name.len());
        }
        out
    }
}
