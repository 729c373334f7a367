//! Property tests for the mempool's three contracts: deduplication,
//! per-client monotone sequencing, and priority-lane ordering — driven
//! by randomized multi-client submission schedules with replays,
//! reorders, and capacity pressure — plus a differential test against
//! a reference model that tracks resident ids in a set of its own.

use bytes::Bytes;
use marlin_mempool::{Admission, Mempool, MempoolConfig, MempoolStats};
use marlin_types::Transaction;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// SplitMix64, so one `u64` seed drives a whole schedule (the vendored
/// proptest draws only flat tuples).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn tx(client: u32, seq: u32, fee: u8) -> Transaction {
    let id = (u64::from(client) << 32) | u64::from(seq);
    Transaction::new(id, client, Bytes::from(vec![fee, 0, 0]), 0)
}

/// Runs a randomized schedule of submissions (fresh, replayed, and
/// occasionally drained) and checks every invariant after every step.
fn run_schedule(seed: u64, steps: usize, capacity: usize, threshold: u8) {
    let mut rng = Rng(seed);
    let mut mp = Mempool::new(MempoolConfig {
        capacity,
        priority_fee_threshold: threshold,
    });
    const CLIENTS: u32 = 5;
    let mut next_seq = [1u32; CLIENTS as usize];
    let mut ever_admitted: HashSet<u64> = HashSet::new();
    let mut drained: Vec<Transaction> = Vec::new();

    for _ in 0..steps {
        let r = rng.next();
        let client = (r % u64::from(CLIENTS)) as u32;
        match (r >> 8) % 10 {
            // Mostly: submit this client's next fresh sequence.
            0..=5 => {
                let seq = next_seq[client as usize];
                let fee = (r >> 16) as u8;
                let t = tx(client, seq, fee);
                match mp.admit(t.clone()) {
                    Admission::Admitted => {
                        assert!(
                            ever_admitted.insert(t.id),
                            "admitted the same id twice: {t:?}"
                        );
                        next_seq[client as usize] = seq + 1;
                    }
                    Admission::Full => {
                        assert!(capacity > 0 && mp.len() >= capacity, "spurious Full");
                        // Full is transient: the id was not burned, so
                        // the client retries the same seq later.
                    }
                    Admission::Duplicate => panic!("fresh seq {seq} rejected as duplicate"),
                }
            }
            // Replay an already-used sequence: must never be admitted.
            6..=7 => {
                let used = next_seq[client as usize].saturating_sub(1);
                if used == 0 {
                    continue;
                }
                let seq = ((r >> 16) % u64::from(used)) as u32 + 1;
                assert_eq!(
                    mp.admit(tx(client, seq, (r >> 24) as u8)),
                    Admission::Duplicate,
                    "replayed c{client}/s{seq} slipped through"
                );
            }
            // Drain a batch.
            _ => {
                let batch = mp.take((r >> 16) as usize % 8 + 1);
                drained.extend(batch);
            }
        }
        if capacity > 0 {
            assert!(mp.len() <= capacity, "capacity bound violated");
        }
    }
    drained.extend(mp.take(usize::MAX));

    // Exactly-once: everything drained was admitted exactly once.
    let mut seen = HashSet::new();
    for t in &drained {
        assert!(seen.insert(t.id), "drained {t:?} twice");
        assert!(ever_admitted.contains(&t.id));
    }
    assert_eq!(seen.len(), ever_admitted.len(), "admitted tx lost");

    // Per-client order: sequences appear in strictly increasing order
    // within each (client, lane) stream. Across lanes a high-fee later
    // seq may overtake, so compare within the lane classification.
    for lane_priority in [false, true] {
        for client in 0..CLIENTS {
            let seqs: Vec<u32> = drained
                .iter()
                .filter(|t| {
                    t.client_of_id() == client
                        && (threshold > 0 && t.fee() >= threshold) == lane_priority
                })
                .map(Transaction::seq_of_id)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "client {client} lane order broken: {seqs:?}"
            );
        }
    }
}

/// Priority-lane ordering on a drained prefix: every priority tx
/// admitted before a `take` drains ahead of every normal tx.
fn run_priority_schedule(seed: u64, rounds: usize) {
    let mut rng = Rng(seed);
    let threshold = 100u8;
    let mut mp = Mempool::new(MempoolConfig {
        capacity: 0,
        priority_fee_threshold: threshold,
    });
    let mut seq = 1u32;
    for _ in 0..rounds {
        let n = rng.next() % 12 + 1;
        for _ in 0..n {
            let fee = (rng.next() % 256) as u8;
            mp.admit(tx(1, seq, fee));
            seq += 1;
        }
        let batch = mp.take((rng.next() % 16) as usize);
        // No normal tx may precede a priority tx in one drain.
        let first_normal = batch.iter().position(|t| t.fee() < threshold);
        if let Some(i) = first_normal {
            assert!(
                batch[i..].iter().all(|t| t.fee() < threshold),
                "normal tx drained before priority tx: {batch:?}"
            );
        }
    }
}

/// The reference model: a pool that keeps every resident id in a
/// `HashSet` and checks it before the watermark on admit, clears it on
/// take and consults it on requeue. `Mempool` must agree with it on
/// every outcome, counter and drained order.
struct ResidentSetPool {
    cfg: MempoolConfig,
    priority: VecDeque<Transaction>,
    normal: VecDeque<Transaction>,
    resident: HashSet<u64>,
    watermark: HashMap<u32, u32>,
    stats: MempoolStats,
}

impl ResidentSetPool {
    fn new(cfg: MempoolConfig) -> Self {
        ResidentSetPool {
            cfg,
            priority: VecDeque::new(),
            normal: VecDeque::new(),
            resident: HashSet::new(),
            watermark: HashMap::new(),
            stats: MempoolStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.priority.len() + self.normal.len()
    }

    fn is_priority(&self, tx: &Transaction) -> bool {
        self.cfg.priority_fee_threshold > 0 && tx.fee() >= self.cfg.priority_fee_threshold
    }

    fn admit(&mut self, tx: Transaction) -> Admission {
        if self.resident.contains(&tx.id) {
            self.stats.duplicates += 1;
            return Admission::Duplicate;
        }
        let (client, seq) = (tx.client_of_id(), tx.seq_of_id());
        if self.watermark.get(&client).is_some_and(|&hi| seq <= hi) {
            self.stats.duplicates += 1;
            return Admission::Duplicate;
        }
        if self.cfg.capacity > 0 && self.len() >= self.cfg.capacity {
            self.stats.rejected_full += 1;
            return Admission::Full;
        }
        self.watermark.insert(client, seq);
        self.resident.insert(tx.id);
        self.stats.admitted += 1;
        if self.is_priority(&tx) {
            self.stats.priority_admitted += 1;
            self.priority.push_back(tx);
        } else {
            self.normal.push_back(tx);
        }
        Admission::Admitted
    }

    fn requeue(&mut self, txs: Vec<Transaction>) {
        for tx in txs.into_iter().rev() {
            if !self.resident.insert(tx.id) {
                continue;
            }
            if self.is_priority(&tx) {
                self.priority.push_front(tx);
            } else {
                self.normal.push_front(tx);
            }
        }
    }

    fn take(&mut self, max: usize) -> Vec<Transaction> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(tx) = self
                .priority
                .pop_front()
                .or_else(|| self.normal.pop_front())
            else {
                break;
            };
            self.resident.remove(&tx.id);
            out.push(tx);
        }
        out
    }
}

/// Drives `Mempool` and the reference model through one randomized
/// schedule — fresh, replayed and ahead-of-sequence admits from several
/// clients, `Full` under a small capacity, takes of random sizes, and
/// requeues of drained transactions (twice over, mixed with resident
/// ids, with repeats inside one call) — and asserts after every call
/// that both answer identically.
fn run_differential(seed: u64, steps: usize, capacity: usize, threshold: u8) {
    let mut rng = Rng(seed);
    let cfg = MempoolConfig {
        capacity,
        priority_fee_threshold: threshold,
    };
    let (mut mp, mut model) = (Mempool::new(cfg), ResidentSetPool::new(cfg));
    const CLIENTS: u32 = 4;
    let mut next_seq = [0u32; CLIENTS as usize];
    let mut drained: Vec<Transaction> = Vec::new();
    for step in 0..steps {
        let r = rng.next();
        let client = (r % u64::from(CLIENTS)) as u32;
        let fee = (r >> 40) as u8;
        let next = &mut next_seq[client as usize];
        match (r >> 8) % 16 {
            // A fresh admit: the client's next sequence.
            0..=5 => {
                let t = tx(client, *next, fee);
                let got = mp.admit(t.clone());
                assert_eq!(got, model.admit(t), "step {step}: fresh admit");
                if got == Admission::Admitted {
                    *next += 1;
                }
            }
            // A replay at or below the client's last sequence.
            6..=7 => {
                let seq = ((r >> 16) % u64::from(*next + 1)) as u32;
                let t = tx(client, seq, fee);
                assert_eq!(mp.admit(t.clone()), model.admit(t), "step {step}: replay");
            }
            // Out of order: a sequence ahead of the next one.
            8 => {
                let seq = *next + 1 + ((r >> 16) % 3) as u32;
                let t = tx(client, seq, fee);
                let got = mp.admit(t.clone());
                assert_eq!(got, model.admit(t), "step {step}: ahead-of-sequence admit");
                if got == Admission::Admitted {
                    *next = seq + 1;
                }
            }
            // A take of random size, zero and oversized included.
            9..=11 => {
                let max = ((r >> 16) % 10) as usize;
                let got = mp.take(max);
                assert_eq!(got, model.take(max), "step {step}: take({max})");
                drained.extend(got);
            }
            // Requeue a suffix of what was drained; it stays in
            // `drained`, so a later requeue of it finds it resident.
            12..=13 => {
                let k = ((r >> 16) as usize) % (drained.len() + 1);
                let back = drained[drained.len() - k..].to_vec();
                mp.requeue(back.clone());
                model.requeue(back);
            }
            // Requeue resident ids (under either fee) mixed with drained
            // ones, one of them twice.
            _ => {
                let mut back: Vec<Transaction> = model.normal.iter().take(2).cloned().collect();
                back.extend(model.priority.iter().take(1).cloned());
                back.extend(drained.last().cloned());
                if let Some(t) = back.first() {
                    back.push(tx(t.client_of_id(), t.seq_of_id(), fee));
                }
                mp.requeue(back.clone());
                model.requeue(back);
            }
        }
        assert_eq!(mp.stats(), model.stats, "step {step}: stats");
        assert_eq!(mp.len(), model.len(), "step {step}: len");
        assert_eq!(mp.priority_len(), model.priority.len(), "step {step}");
        assert_eq!(mp.is_empty(), model.len() == 0, "step {step}");
    }
    assert_eq!(mp.take(usize::MAX), model.take(usize::MAX), "final drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Mempool` and the resident-set reference model agree on every
    /// admission, counter, length and drained order, unbounded and
    /// under a capacity small enough to answer `Full` often.
    #[test]
    fn matches_the_resident_set_reference_model(
        seed in 0u64..1_000_000_000,
        steps in 16usize..600,
        capacity in 0usize..12,
        threshold in 0u8..=255,
    ) {
        run_differential(seed, steps, capacity, threshold);
    }

    /// Unbounded pool: dedup + sequencing + exactly-once drain.
    #[test]
    fn unbounded_schedules_hold_invariants(seed in 0u64..1_000_000_000, steps in 16usize..400) {
        run_schedule(seed, steps, 0, 0);
    }

    /// Bounded pool with fee lanes: the capacity bound holds, Full is
    /// transient, and lane-local ordering survives overload.
    #[test]
    fn bounded_schedules_hold_invariants(
        seed in 0u64..1_000_000_000,
        steps in 16usize..400,
        capacity in 1usize..32,
        threshold in 0u8..=255,
    ) {
        run_schedule(seed, steps, capacity, threshold);
    }

    /// Priority lane strictly precedes the normal lane in every drain.
    #[test]
    fn priority_drains_first(seed in 0u64..1_000_000_000, rounds in 1usize..64) {
        run_priority_schedule(seed, rounds);
    }
}
