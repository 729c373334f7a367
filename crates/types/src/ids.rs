//! Protocol newtypes: views, heights, and replica identifiers.

use std::fmt;

/// A view number (`cview` / `b.view` in the paper).
///
/// Views increase monotonically; each view has a unique leader. The
/// genesis block carries view 0 and the protocol starts in view 1.
///
/// # Example
///
/// ```
/// use marlin_types::View;
///
/// let v = View(3);
/// assert_eq!(v.next(), View(4));
/// assert!(View(4) > v);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct View(pub u64);

impl View {
    /// The genesis view (0); real operation starts at view 1.
    pub const GENESIS: View = View(0);

    /// The highest view a replica enters and a decoder accepts. 2^48
    /// views last 89 years at one view change per 10 µs; bounding both
    /// what a replica journals and what a peer or a disk can claim keeps
    /// [`View::next`] far from overflowing, and lets a journal replay
    /// every view it wrote.
    pub const MAX: View = View((1 << 48) - 1);

    /// The view after this one.
    pub fn next(self) -> View {
        View(self.0 + 1)
    }

    /// `self - other`, saturating at zero.
    pub fn gap(self, other: View) -> u64 {
        self.0.saturating_sub(other.0)
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for View {
    fn from(v: u64) -> Self {
        View(v)
    }
}

/// A block height: the number of blocks on the branch led by a block
/// (the genesis block has height 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Height(pub u64);

impl Height {
    /// The genesis height (0).
    pub const GENESIS: Height = Height(0);

    /// The height directly above.
    pub fn next(self) -> Height {
        Height(self.0 + 1)
    }

    /// The height two above (used by virtual blocks, which sit at
    /// `qc.height + 2`).
    pub fn plus(self, delta: u64) -> Height {
        Height(self.0 + delta)
    }

    /// The height directly below.
    ///
    /// # Panics
    ///
    /// Panics if called on height 0.
    pub fn prev(self) -> Height {
        assert!(self.0 > 0, "genesis has no predecessor height");
        Height(self.0 - 1)
    }
}

impl fmt::Debug for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Height {
    fn from(h: u64) -> Self {
        Height(h)
    }
}

/// Identifies one of the `n` replicas, `p_0 .. p_{n-1}`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// The replica's index as a `usize`, e.g. for key-store lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The round-robin leader of `view` among `n` replicas.
    ///
    /// # Example
    ///
    /// ```
    /// use marlin_types::{ReplicaId, View};
    ///
    /// assert_eq!(ReplicaId::leader_of(View(1), 4), ReplicaId(1));
    /// assert_eq!(ReplicaId::leader_of(View(5), 4), ReplicaId(1));
    /// ```
    pub fn leader_of(view: View, n: usize) -> ReplicaId {
        ReplicaId((view.0 % n as u64) as u32)
    }
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ReplicaId {
    fn from(i: u32) -> Self {
        ReplicaId(i)
    }
}

impl From<usize> for ReplicaId {
    fn from(i: usize) -> Self {
        ReplicaId(i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_ordering_and_next() {
        assert!(View(2) < View(3));
        assert_eq!(View(2).next(), View(3));
        assert_eq!(View::GENESIS.next(), View(1));
        assert_eq!(View(7).gap(View(3)), 4);
        assert_eq!(View(3).gap(View(7)), 0);
    }

    #[test]
    fn height_arithmetic() {
        assert_eq!(Height(4).next(), Height(5));
        assert_eq!(Height(4).plus(2), Height(6));
        assert_eq!(Height(4).prev(), Height(3));
    }

    #[test]
    #[should_panic(expected = "no predecessor")]
    fn genesis_height_has_no_prev() {
        Height::GENESIS.prev();
    }

    #[test]
    fn leader_rotation_wraps() {
        for v in 0..20u64 {
            assert_eq!(ReplicaId::leader_of(View(v), 4).0 as u64, v % 4);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(View(9).to_string(), "9");
        assert_eq!(format!("{:?}", View(9)), "v9");
        assert_eq!(Height(2).to_string(), "2");
        assert_eq!(ReplicaId(1).to_string(), "p1");
    }
}
