//! Fixed-length hash digests.

use std::fmt;

/// A 32-byte SHA-256 digest.
///
/// Used throughout the workspace as block identifiers and parent links
/// (`pl` in the paper's block syntax).
///
/// # Example
///
/// ```
/// use marlin_crypto::{sha256, Digest};
///
/// let d: Digest = sha256(b"genesis");
/// assert_eq!(d.as_bytes().len(), 32);
/// assert_ne!(d, Digest::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The all-zero digest; used as the parent link of the genesis block
    /// and as the `⊥` parent link of virtual blocks.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Wraps raw bytes as a digest.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Borrows the digest's bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning its bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Lowercase hexadecimal rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// A short 8-hex-character prefix, for logs and traces.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_round_trip() {
        assert_eq!(Digest::from_bytes([0u8; 32]), Digest::ZERO);
        assert_eq!(Digest::default(), Digest::ZERO);
    }

    #[test]
    fn hex_rendering() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0xde;
        bytes[1] = 0xad;
        let d = Digest::from_bytes(bytes);
        assert!(d.to_hex().starts_with("dead"));
        assert_eq!(d.short(), "dead0000");
        assert_eq!(d.to_hex().len(), 64);
    }

    #[test]
    fn debug_is_nonempty_and_short() {
        let s = format!("{:?}", Digest::ZERO);
        assert!(s.contains("00000000"));
    }

    #[test]
    fn ordering_is_bytewise() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        a[0] = 1;
        b[0] = 2;
        assert!(Digest::from_bytes(a) < Digest::from_bytes(b));
    }
}
