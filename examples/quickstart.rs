//! Quickstart: a four-replica Marlin cluster committing transactions
//! in-process, on the simulator's zero-latency profile.
//!
//! ```text
//! cargo run --example quickstart [-- --telemetry PATH]
//! ```
//!
//! With `--telemetry PATH`, every consensus event and message send is
//! folded into a metrics registry; the run writes a JSON snapshot to
//! `PATH` and the Prometheus text exposition to `PATH` with a `.prom`
//! extension (validated against the line-format checker before it is
//! written).

use marlin_bft::core::{Config, Note, ProtocolKind};
use marlin_bft::simnet::{CommitObserver, Invariants, SimConfig, SimNet};
use marlin_bft::telemetry::{check_prometheus_text, Registry, RegistryRecorder};
use marlin_bft::types::{Block, ReplicaId};
use std::cell::RefCell;
use std::rc::Rc;

/// The application end of consensus: every block p0 commits, in order.
#[derive(Clone, Default)]
struct Chain(Rc<RefCell<Vec<Block>>>);

impl CommitObserver for Chain {
    fn on_commit(&mut self, replica: ReplicaId, _now_ns: u64, blocks: &[Block]) {
        if replica == ReplicaId(0) {
            self.0.borrow_mut().extend_from_slice(blocks);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--telemetry")
        .map(|i| args.get(i + 1).expect("--telemetry needs a path").into());

    // n = 4 replicas tolerating f = 1 Byzantine fault.
    let config = Config::for_test(4, 1);
    let mut sim = SimNet::new(ProtocolKind::Marlin, config, SimConfig::instant());
    let (chain, invariants) = (Chain::default(), Invariants::new(&[], u64::MAX));
    sim.set_observer(Box::new(chain.clone()));
    sim.set_invariant_checker(Box::new(invariants.clone()));
    sim.run_until_idle(); // the start-up block
    let registry = Registry::new();
    if telemetry_path.is_some() {
        sim.set_telemetry(Box::new(RegistryRecorder::new(&registry)));
    }

    println!("submitting 3 batches of 100 transactions to the view-1 leader…");
    for round in 1..=3 {
        sim.schedule_client_batch(ReplicaId(1), sim.now_ns(), 100, 150);
        sim.run_until_idle();
        println!(
            "  round {round}: every replica has committed {} transactions",
            sim.committed_txs(ReplicaId(0))
        );
    }

    assert_eq!(invariants.violations(), []);
    println!("\ncommitted chain (as seen by p0):");
    for block in chain.0.borrow().iter() {
        println!(
            "  height {:>3}  view {}  {:>3} txs  id {}",
            block.height(),
            block.view(),
            block.payload().len(),
            block.id()
        );
    }

    let qcs_formed = sim
        .notes()
        .iter()
        .filter(|(_, _, n)| matches!(n, Note::QcFormed { .. }))
        .count();
    println!("\n{qcs_formed} quorum certificates were formed — two per block (prepare + commit):");
    println!("Marlin commits in two phases where HotStuff needs three.");

    if let Some(path) = telemetry_path {
        let snapshot = registry.snapshot();
        let prom = snapshot.to_prometheus();
        let samples = check_prometheus_text(&prom).expect("exporter emits valid exposition text");
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create telemetry output directory");
        }
        std::fs::write(&path, snapshot.to_json()).expect("write JSON snapshot");
        let prom_path = path.with_extension("prom");
        std::fs::write(&prom_path, prom).expect("write Prometheus text");
        println!(
            "\ntelemetry: {} Prometheus samples validated; wrote {} and {}",
            samples,
            path.display(),
            prom_path.display()
        );
    }
}
