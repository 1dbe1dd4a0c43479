//! Globally-unique identifiers for regions and spaces.
//!
//! A region id encodes its home node in the top 16 bits, so any node can
//! route a request for an unknown region without a directory lookup — the
//! analogue of the paper's `address_t` values that are meaningful on every
//! processor and can be stored inside shared data.

/// Identifier of a shared region. Bits 48..64 hold the home node's rank;
/// bits 0..48 hold a per-home allocation sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

impl RegionId {
    /// Compose an id from a home rank and per-home sequence number.
    pub fn new(home: usize, seq: u64) -> Self {
        debug_assert!(home < (1 << 16));
        debug_assert!(seq < (1 << 48));
        RegionId(((home as u64) << 48) | seq)
    }

    /// The rank of the region's home node.
    pub fn home(self) -> usize {
        (self.0 >> 48) as usize
    }

    /// The per-home allocation sequence number.
    pub fn seq(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }

    /// The sentinel "null pointer" region id.
    pub const NULL: RegionId = RegionId(u64::MAX);

    /// Whether this is the null region id.
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }
}

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}.{}", self.home(), self.seq())
    }
}

/// Identifier of a space. Spaces are created collectively (every node calls
/// `new_space` in the same program order), so a simple per-node counter
/// yields identical ids machine-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpaceId(pub u32);

impl std::fmt::Display for SpaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_id_round_trip() {
        let r = RegionId::new(13, 0xABCDE);
        assert_eq!(r.home(), 13);
        assert_eq!(r.seq(), 0xABCDE);
    }

    #[test]
    fn null_is_distinct() {
        assert!(RegionId::NULL.is_null());
        assert!(!RegionId::new(0, 0).is_null());
        assert!(!RegionId::new(63, (1 << 48) - 2).is_null());
    }

    /// The runtime's region table is indexed by home, then `seq`, and its
    /// iteration order stands in for a sort by id.
    #[test]
    fn integer_order_is_home_then_seq() {
        // Lexicographically increasing (home, seq) pairs.
        let pairs = [(0, 0), (0, 1), (0, (1 << 48) - 1), (1, 0), (1, 7), (255, 3), (4095, 0)];
        let ids = pairs.map(|(home, seq)| RegionId::new(home, seq));
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        assert!(ids.iter().all(|&r| r < RegionId::NULL));
    }

    #[test]
    fn display_forms() {
        assert_eq!(RegionId::new(3, 7).to_string(), "r3.7");
        assert_eq!(SpaceId(2).to_string(), "s2");
    }
}
