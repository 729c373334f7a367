//! Protocol construction by kind, for drivers that need no journal.

use crate::config::{build_replica, Config, ProtocolKind};
use crate::util::Protocol;

/// Constructs a boxed protocol instance of the given kind with no
/// durable state (see [`build_replica`] for the journal-backed forms).
pub fn build_protocol(kind: ProtocolKind, config: Config) -> Box<dyn Protocol> {
    build_replica(kind, config, None, false, None)
}
