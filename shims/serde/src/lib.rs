//! Vendored minimal stand-in for the `serde` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small serde surface Virtuoso actually uses:
//!
//! * a [`Serialize`] trait that writes compact JSON text directly (consumed
//!   by the vendored `serde_json` shim's `to_string`),
//! * a [`Deserialize`] marker trait,
//! * `#[derive(Serialize)]` / `#[derive(Deserialize)]` re-exported from the
//!   vendored `serde_derive` proc-macro crate (behind the usual `derive`
//!   feature flag).
//!
//! The data model is intentionally tiny: types serialize straight to a JSON
//! string rather than through a `Serializer` abstraction. That is all the
//! simulator needs — reports and configurations are serialized for human
//! inspection, never round-tripped.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Types that can render themselves as compact JSON.
///
/// This is the shim's stand-in for `serde::Serialize`; the derive macro
/// generates `write_json` for structs and enums.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// Marker stand-in for `serde::Deserialize`. The simulator never
/// deserializes, so no behaviour is required.
pub trait Deserialize {}

fn write_escaped_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_serialize_display {
    ($($t:ty),* $(,)?) => {
        $(impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{}", self);
            }
        })*
    };
}

impl_serialize_display!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

macro_rules! impl_serialize_float {
    ($($t:ty),* $(,)?) => {
        $(impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{}", self);
                } else {
                    out.push_str("null");
                }
            }
        })*
    };
}

impl_serialize_float!(f32, f64);

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_escaped_str(self, out);
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_escaped_str(self, out);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        let mut buf = [0u8; 4];
        write_escaped_str(self.encode_utf8(&mut buf), out);
    }
}

impl Serialize for () {
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

fn write_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

/// JSON object keys must be strings: serialize the key, then quote it if the
/// encoding was not already a string literal.
fn write_key<K: Serialize>(key: &K, out: &mut String) {
    let mut tmp = String::new();
    key.write_json(&mut tmp);
    if tmp.starts_with('"') {
        out.push_str(&tmp);
    } else {
        write_escaped_str(&tmp, out);
    }
}

fn write_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(k, out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn write_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {
        $(impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$idx.write_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        })*
    };
}

impl_serialize_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}
