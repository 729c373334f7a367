//! A replicated key-value store on top of the Marlin consensus core:
//! clients issue SET/DELETE commands, every replica applies committed
//! blocks in order to its own copy of the state (as the simulator's
//! telemetry sink), and reads hit local state.
//!
//! ```text
//! cargo run --example replicated_kv
//! ```

use marlin_bft::core::{Config, Event, ProtocolKind};
use marlin_bft::simnet::{Invariants, SimConfig, SimNet};
use marlin_bft::telemetry::{Telemetry, TelemetrySink};
use marlin_bft::types::{Block, ReplicaId, Transaction};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The replicated state machine: a key-value map driven by
/// `SET key value` / `DEL key` transaction payloads.
#[derive(Default)]
struct KvState {
    map: BTreeMap<String, String>,
    applied_txs: u64,
}

impl KvState {
    /// Applies one committed block's transactions in order.
    fn apply_block(&mut self, block: &Block) {
        for tx in block.payload().iter() {
            self.applied_txs += 1;
            let text = String::from_utf8_lossy(tx.payload);
            let mut words = text.split(' ');
            match (words.next(), words.next(), words.next()) {
                (Some("SET"), Some(key), Some(value)) => {
                    self.map.insert(key.to_string(), value.to_string());
                }
                (Some("DEL"), Some(key), None) => {
                    self.map.remove(key);
                }
                _ => {} // not a command (e.g. benchmark filler)
            }
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }
}

/// Each replica's copy of the state machine, fed its committed blocks.
#[derive(Clone, Default)]
struct Apps(Rc<RefCell<[KvState; 4]>>);

impl TelemetrySink for Apps {
    fn record(&mut self, _at_ns: u64, replica: ReplicaId, event: Telemetry<'_>) {
        let Telemetry::Committed(blocks) = event else {
            return;
        };
        let app = &mut self.0.borrow_mut()[replica.index()];
        for block in blocks {
            app.apply_block(block);
        }
    }
}

fn main() {
    let mut sim = SimNet::new(
        ProtocolKind::Marlin,
        Config::for_test(4, 1),
        SimConfig::instant(),
    );
    let (apps, invariants) = (Apps::default(), Invariants::new(&[], u64::MAX));
    sim.set_telemetry(Box::new(apps.clone()));
    sim.set_invariant_checker(Box::new(invariants.clone()));
    sim.run_until_idle(); // the start-up block
    let leader = ReplicaId(1);

    // Submit a little banking workload through consensus.
    let commands = [
        "SET alice 100",
        "SET bob 50",
        "SET alice 75",
        "SET carol 10",
        "DEL bob",
    ];
    println!("submitting {} commands through Marlin…", commands.len());
    let txs: Vec<Transaction> = commands
        .iter()
        .enumerate()
        .map(|(i, cmd)| Transaction::new(i as u64 + 1, 0, cmd.as_bytes().to_vec().into(), 0))
        .collect();
    sim.inject(leader, Event::NewTransactions(txs));
    sim.run_until_idle();
    assert_eq!(invariants.violations(), []);

    // Every replica applied its committed chain to its own state
    // machine — they all converge on the same state.
    for (replica, app) in apps.0.borrow().iter().enumerate() {
        let id = ReplicaId(replica as u32);
        println!(
            "{id}: alice={:<4} bob={:<4} carol={:<4} ({} commands applied)",
            app.get("alice").unwrap_or("∅"),
            app.get("bob").unwrap_or("∅"),
            app.get("carol").unwrap_or("∅"),
            app.applied_txs
        );
        assert_eq!(app.get("alice"), Some("75"));
        assert_eq!(app.get("bob"), None);
    }
    println!("all replicas converged: alice=75, bob deleted, carol=10");
}
