//! A replicated key-value store on top of the Marlin consensus core:
//! clients issue SET/DELETE commands, every replica applies committed
//! blocks in order to its own copy of the state, and reads hit local
//! state.
//!
//! ```text
//! cargo run --example replicated_kv
//! ```

use marlin_bft::core::{harness::Cluster, Config, ProtocolKind};
use marlin_bft::types::{Block, ReplicaId, Transaction};
use std::collections::BTreeMap;

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
            let text = String::from_utf8_lossy(&tx.payload);
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

fn main() {
    let mut cluster = Cluster::new(ProtocolKind::Marlin, Config::for_test(4, 1), 7);
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
    cluster.inject_transactions(leader, txs);
    cluster.run_until_idle();
    cluster.assert_consistent();

    // Every replica replays its committed chain into its own state
    // machine — they all converge on the same state.
    for replica in 0..4u32 {
        let id = ReplicaId(replica);
        let mut app = KvState::default();
        for block in cluster.committed_blocks(id) {
            app.apply_block(block);
        }
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
