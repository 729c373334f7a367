//! Replica configuration.

use crate::chained::{ChainedHotStuffRules, ChainedMarlinRules};
use crate::hotstuff::HotStuffRules;
use crate::jolteon::JolteonRules;
use crate::journal::SafetyJournal;
use crate::marlin::MarlinRules;
use crate::marlin_four_phase::FourPhaseRules;
use crate::replica::{Replica, Rules};
use crate::two_phase_insecure::TwoPhaseInsecureRules;
use crate::util::Protocol;
use marlin_crypto::{CostModel, KeyStore, QcFormat};
use marlin_storage::SnapshotStore;
use marlin_types::ReplicaId;
use std::sync::Arc;

/// Which protocol a replica runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Marlin (two-phase, linear view change) — the paper's protocol.
    Marlin,
    /// Basic three-phase HotStuff.
    HotStuff,
    /// Chained (pipelined) Marlin.
    ChainedMarlin,
    /// Chained (pipelined) HotStuff.
    ChainedHotStuff,
    /// Jolteon-style two-phase protocol with a quadratic view change.
    Jolteon,
    /// The insecure two-phase HotStuff strawman of Section IV-B.
    TwoPhaseInsecure,
    /// The four-phase "half-baked attempt" of Section IV-D (linear view
    /// change without virtual blocks) — an ablation.
    MarlinFourPhase,
}

impl ProtocolKind {
    /// Human-readable protocol name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Marlin => "marlin",
            ProtocolKind::HotStuff => "hotstuff",
            ProtocolKind::ChainedMarlin => "chained-marlin",
            ProtocolKind::ChainedHotStuff => "chained-hotstuff",
            ProtocolKind::Jolteon => "jolteon",
            ProtocolKind::TwoPhaseInsecure => "two-phase-insecure",
            ProtocolKind::MarlinFourPhase => "marlin-four-phase",
        }
    }
}

/// Constructs a boxed replica of `kind`.
///
/// With a `journal`, the replica — of every kind — write-ahead
/// journals its safety state to it, and `recovered` additionally
/// rebuilds that state from the journal's replay (amnesia-safe
/// restart; feed [`crate::Event::Recovered`] afterwards). `snapshots`
/// attaches durable sync-anchor storage, again to every kind; a
/// persisted anchor ahead of the journal-rebuilt tip is installed.
pub fn build_replica(
    kind: ProtocolKind,
    config: Config,
    journal: Option<SafetyJournal>,
    recovered: bool,
    snapshots: Option<SnapshotStore>,
) -> Box<dyn Protocol> {
    fn build<R: Rules + 'static>(
        config: Config,
        journal: Option<SafetyJournal>,
        recovered: bool,
        snapshots: Option<SnapshotStore>,
    ) -> Box<dyn Protocol> {
        let mut replica: Replica<R> = match journal {
            Some(j) if recovered => Replica::recover(config, j),
            Some(j) => Replica::with_journal(config, j),
            None => Replica::new(config),
        };
        if let Some(s) = snapshots {
            replica.core.base.attach_snapshot_store(s);
        }
        Box::new(replica)
    }
    let build = match kind {
        ProtocolKind::Marlin => build::<MarlinRules>,
        ProtocolKind::HotStuff => build::<HotStuffRules>,
        ProtocolKind::ChainedMarlin => build::<ChainedMarlinRules>,
        ProtocolKind::ChainedHotStuff => build::<ChainedHotStuffRules>,
        ProtocolKind::Jolteon => build::<JolteonRules>,
        ProtocolKind::TwoPhaseInsecure => build::<TwoPhaseInsecureRules>,
        ProtocolKind::MarlinFourPhase => build::<FourPhaseRules>,
    };
    build(config, journal, recovered, snapshots)
}

/// Static configuration shared by all protocol implementations.
///
/// # Example
///
/// ```
/// use marlin_core::Config;
///
/// let mut cfg = Config::for_test(4, 1);
/// cfg.batch_size = 200;
/// assert_eq!(cfg.quorum(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Config {
    /// This replica's id.
    pub id: ReplicaId,
    /// Total number of replicas `n ≥ 3f + 1`.
    pub n: usize,
    /// Fault tolerance `f`.
    pub f: usize,
    /// The system key material (trusted setup output).
    pub keys: Arc<KeyStore>,
    /// CPU cost model for cryptographic operations.
    pub cost: CostModel,
    /// Wire format for quorum certificates.
    pub qc_format: QcFormat,
    /// Maximum transactions per proposed block.
    pub batch_size: usize,
    /// Base view timeout in simulated nanoseconds.
    pub base_timeout_ns: u64,
    /// Rotating-leader mode (the paper's Section VI "performance under
    /// failures" experiment): when set, a leader voluntarily hands over
    /// after this many simulated nanoseconds even without failures.
    pub rotation_interval_ns: Option<u64>,
    /// Verify vote shares in amortized batches at quorum-trigger points
    /// instead of one stand-alone verification per arriving share.
    pub batch_verify: bool,
    /// Size of the simulated crypto worker pool. Combine/assembly
    /// charges divide across workers, and multi-lane drivers spread
    /// independent crypto charges over this many lanes. `1` reproduces
    /// the historical single-lane timing exactly.
    pub crypto_workers: usize,
    /// Record a self-certifying snapshot anchor (and prune committed
    /// prefixes one interval behind it) every this many commits.
    /// `0` disables block sync + snapshots entirely, which keeps every
    /// pre-existing deterministic fingerprint bit-identical.
    pub sync_snapshot_interval: u64,
    /// Commit-height gap beyond which a replica stops trying to commit
    /// block-by-block and starts a ranged sync instead.
    pub sync_lag_threshold: u64,
    /// Maximum resident mempool transactions across both lanes. `0`
    /// keeps the legacy unbounded queue (and every pre-existing
    /// deterministic fingerprint bit-identical); nonzero turns on
    /// explicit admission control — an arrival over capacity is
    /// rejected with a retryable backpressure signal instead of being
    /// queued, which is what keeps goodput at its peak past saturation.
    pub mempool_capacity: usize,
    /// Decouple payload dissemination from proposals, for every rule
    /// set: admitted transactions are sealed into digest-addressed
    /// batches and pushed to all replicas ahead of the proposal, and
    /// the leader proposes a digest (with a fetch-by-digest fallback)
    /// only once a quorum has acknowledged holding the batch. Off by
    /// default; when off, the normal case proposes whole blocks exactly
    /// as before.
    pub dissemination: bool,
}

impl Config {
    /// A configuration suitable for unit tests: zero crypto cost,
    /// threshold QCs, small batches, 100 ms base timeout.
    pub fn for_test(n: usize, f: usize) -> Self {
        Config {
            id: ReplicaId(0),
            n,
            f,
            keys: Arc::new(KeyStore::generate(n, f, 0xBEEF)),
            cost: CostModel::zero(),
            qc_format: QcFormat::Threshold,
            batch_size: 100,
            base_timeout_ns: 100_000_000,
            rotation_interval_ns: None,
            batch_verify: false,
            crypto_workers: 1,
            sync_snapshot_interval: 0,
            sync_lag_threshold: 64,
            mempool_capacity: 0,
            dissemination: false,
        }
    }

    /// Whether any mempool/dissemination knob departs from the legacy
    /// synthetic-workload defaults. Admission telemetry is only emitted
    /// when this holds, so legacy traces stay byte-identical.
    pub fn mempool_configured(&self) -> bool {
        self.mempool_capacity > 0 || self.dissemination
    }

    /// The same configuration bound to replica `id`.
    pub fn with_id(&self, id: ReplicaId) -> Self {
        Config { id, ..self.clone() }
    }

    /// Quorum size `n − f`.
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// The leader of `view` (round-robin).
    pub fn leader_of(&self, view: marlin_types::View) -> ReplicaId {
        ReplicaId::leader_of(view, self.n)
    }

    /// Whether this replica leads `view`.
    pub fn is_leader(&self, view: marlin_types::View) -> bool {
        self.leader_of(view) == self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_types::View;

    #[test]
    fn quorum_math() {
        let c = Config::for_test(4, 1);
        assert_eq!(c.quorum(), 3);
        let c = Config::for_test(31, 10);
        assert_eq!(c.quorum(), 21);
    }

    #[test]
    fn leadership_rotates() {
        let c = Config::for_test(4, 1).with_id(ReplicaId(2));
        assert!(c.is_leader(View(2)));
        assert!(c.is_leader(View(6)));
        assert!(!c.is_leader(View(3)));
        assert_eq!(c.leader_of(View(5)), ReplicaId(1));
    }

    #[test]
    fn protocol_names() {
        assert_eq!(ProtocolKind::Marlin.name(), "marlin");
        assert_eq!(ProtocolKind::ChainedHotStuff.name(), "chained-hotstuff");
    }
}
