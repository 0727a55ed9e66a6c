//! 64-bit FNV-1a: the hash behind run fingerprints, the store's build
//! stamp and its content addresses.
//!
//! [`Fnv64`] is also a [`std::fmt::Write`] sink, so a `format_args!`
//! rendering is hashed byte by byte as it is formatted, with no
//! intermediate `String`. The bytes hashed are exactly the bytes
//! `format!` would have produced.
//!
//! # Examples
//!
//! ```
//! use std::fmt::Write;
//! use piranha_types::Fnv64;
//!
//! let (name, cpus) = ("p8", [1u64, 2]);
//! let mut h = Fnv64::new();
//! write!(h, "{name}|{cpus:?}").unwrap();
//! assert_eq!(h.finish(), Fnv64::hash(format!("{name}|{cpus:?}").as_bytes()));
//! ```

use std::fmt;

/// FNV-1a state over 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-64 offset basis: the state before any byte.
    pub const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of `bytes` from the offset basis.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    /// Fold `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(Fnv64::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn continuing_the_state_equals_hashing_the_concatenation() {
        let mut h = Fnv64::new();
        h.write(b"piranha-store/");
        h.write(b"key");
        assert_eq!(h.finish(), Fnv64::hash(b"piranha-store/key"));
    }

    #[test]
    fn formatting_sink_hashes_the_rendered_bytes() {
        let (name, txns, rates) = ("x", Some(3u64), [0.5f64]);
        let mut h = Fnv64::new();
        write!(h, "{name}|{txns:?}|{rates:?}").unwrap();
        assert_eq!(
            h.finish(),
            Fnv64::hash(format!("{name}|{txns:?}|{rates:?}").as_bytes())
        );
    }
}
