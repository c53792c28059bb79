//! FNV-1a: the fast, deterministic hasher behind state fingerprints.

use std::hash::{Hash, Hasher};

/// A 64-bit FNV-1a [`Hasher`]. Unlike `std`'s default hasher it is
/// unseeded, so equal values hash equal across runs and processes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Fnv {
    /// The FNV-1a hash of one value.
    pub fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = Fnv::default();
        value.hash(&mut h);
        h.finish()
    }

    /// Feeds a collection whose iteration order carries no meaning (a
    /// `HashMap`'s is seeded per instance): the items' hashes are sorted
    /// first, so equal collections hash equal in any order.
    pub fn write_unordered<T: Hash>(&mut self, items: impl IntoIterator<Item = T>) {
        let mut hashes: Vec<u64> = items.into_iter().map(|item| Self::hash_of(&item)).collect();
        hashes.sort_unstable();
        hashes.hash(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unordered_collections_hash_equal_in_any_order() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.write_unordered([(1u64, 'x'), (2, 'y')]);
        b.write_unordered([(2u64, 'y'), (1, 'x')]);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::default();
        c.write_unordered([(1u64, 'x'), (2, 'z')]);
        assert_ne!(a.finish(), c.finish());
        assert_eq!(Fnv::hash_of(&0u8), 0xaf63_bd4c_8601_b7df, "FNV-1a of one zero byte");
    }
}
