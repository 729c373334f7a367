//! Block ids, batch digests and batch wire bytes against references
//! built field by field from the transaction list, over batches of every
//! payload class: empty, 150-byte, short, and at least one hash-staging
//! buffer long (4 KiB and more, which bypass the stage). Whatever a
//! `Batch` keeps inside, these bytes are what every replica hashes and
//! sends, so they may not move.

use bytes::Bytes;
use marlin_crypto::{sha256, Digest};
use marlin_types::codec::{decode, encode};
use marlin_types::{Batch, Block, BlockId, Height, Justify, Qc, Transaction, View};
use proptest::prelude::*;

prop_compose! {
    fn arb_tx()(
        id in any::<u64>(),
        client in any::<u32>(),
        len in prop_oneof![Just(0usize), Just(150usize), 0usize..300, 4096usize..6000],
        ts in any::<u64>(),
        fill in any::<u8>(),
    ) -> Transaction {
        let payload: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        Transaction::new(id, client, Bytes::from(payload), ts)
    }
}

fn arb_txs() -> impl Strategy<Value = Vec<Transaction>> {
    prop_oneof![
        prop::collection::vec(arb_tx(), 0..4),
        prop::collection::vec(arb_tx(), 0..300),
    ]
}

/// The transaction list as block ids and batch digests hash it: a `u64`
/// count, then per transaction `id ‖ client ‖ payload length (u32) ‖
/// payload`, little-endian, `submitted_at_ns` left out.
fn put_transactions(preimage: &mut Vec<u8>, txs: &[Transaction]) {
    preimage.extend_from_slice(&(txs.len() as u64).to_le_bytes());
    for tx in txs {
        preimage.extend_from_slice(&tx.id.to_le_bytes());
        preimage.extend_from_slice(&tx.client.to_le_bytes());
        preimage.extend_from_slice(&(tx.payload.len() as u32).to_le_bytes());
        preimage.extend_from_slice(&tx.payload);
    }
}

fn batch_digest(txs: &[Transaction]) -> Digest {
    let mut preimage = b"marlin.batch.v1".to_vec();
    put_transactions(&mut preimage, txs);
    sha256(&preimage)
}

fn block_id(
    parent: Option<BlockId>,
    (pview, view, height): (u64, u64, u64),
    txs: &[Transaction],
    justify: &Justify,
) -> Digest {
    let mut preimage = b"marlin.block.v2".to_vec();
    match parent {
        Some(id) => {
            preimage.push(1);
            preimage.extend_from_slice(id.digest().as_bytes());
        }
        None => preimage.push(0),
    }
    for field in [pview, view, height] {
        preimage.extend_from_slice(&field.to_le_bytes());
    }
    put_transactions(&mut preimage, txs);
    preimage.push(justify.iter().count() as u8);
    for qc in justify.iter() {
        preimage.extend_from_slice(qc.signing_bytes());
        preimage.extend_from_slice(qc.sig().agg().as_bytes());
    }
    sha256(&preimage)
}

/// A batch on the wire: a `u32` count, then per transaction `id ‖
/// client ‖ payload length (u32) ‖ submitted_at_ns ‖ payload`.
fn batch_wire(txs: &[Transaction]) -> Vec<u8> {
    let mut wire = (txs.len() as u32).to_le_bytes().to_vec();
    for tx in txs {
        wire.extend_from_slice(&tx.id.to_le_bytes());
        wire.extend_from_slice(&tx.client.to_le_bytes());
        wire.extend_from_slice(&(tx.payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&tx.submitted_at_ns.to_le_bytes());
        wire.extend_from_slice(&tx.payload);
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The digest, the wire bytes, their length and a round trip through
    /// the codec all match the field-by-field references, and iterating
    /// the batch gives every field back in order.
    #[test]
    fn batch_digest_and_wire_match_references(txs in arb_txs()) {
        let batch = Batch::new(txs.clone());
        prop_assert_eq!(batch.len(), txs.len());
        prop_assert_eq!(batch.is_empty(), txs.is_empty());
        prop_assert_eq!(batch.digest().digest(), batch_digest(&txs));
        let wire = encode(&batch);
        prop_assert_eq!(&wire[..], &batch_wire(&txs)[..]);
        prop_assert_eq!(batch.wire_len(), wire.len());
        let decoded: Batch = decode(&wire.freeze()).unwrap();
        prop_assert_eq!(&decoded, &batch);
        prop_assert_eq!(decoded.digest(), batch.digest());
        for b in [&batch, &decoded] {
            prop_assert_eq!(b.iter().count(), txs.len());
            for (got, tx) in b.iter().zip(&txs) {
                prop_assert_eq!(got.id, tx.id);
                prop_assert_eq!(got.client, tx.client);
                prop_assert_eq!(got.payload, &tx.payload[..]);
                prop_assert_eq!(got.submitted_at_ns, tx.submitted_at_ns);
                prop_assert_eq!(&got.to_transaction(), tx);
            }
        }
    }

    /// Normal and virtual blocks, with and without a certificate, carry
    /// the id the reference preimage names, before and after a round
    /// trip through the codec.
    #[test]
    fn block_ids_match_reference_preimage(
        txs in arb_txs(),
        views in (0u64..1000, 1u64..1000, 1u64..1000),
        normal in any::<bool>(),
        certified in any::<bool>(),
    ) {
        let g = Block::genesis();
        let justify = match certified {
            true => Justify::One(Qc::genesis(g.id())),
            false => Justify::None,
        };
        let (pview, view, height) = (View(views.0), View(views.1), Height(views.2));
        let batch = Batch::new(txs.clone());
        let (block, parent) = match normal {
            true => (Block::new_normal(g.id(), pview, view, height, batch, justify), Some(g.id())),
            false => (Block::new_virtual(pview, view, height, batch, justify), None),
        };
        let expected = block_id(parent, views, &txs, &justify);
        prop_assert_eq!(block.id().digest(), expected);
        let decoded: Block = decode(&encode(&block).freeze()).unwrap();
        prop_assert_eq!(decoded.id().digest(), expected);
        prop_assert_eq!(&decoded, &block);
    }
}

#[test]
fn empty_batch_matches_references() {
    let empty = Batch::empty();
    assert_eq!(empty, Batch::new(Vec::new()));
    assert_eq!(empty.digest().digest(), batch_digest(&[]));
    assert_eq!(&encode(&empty)[..], &batch_wire(&[])[..]);
    assert_eq!(empty.wire_len(), 4);
    assert_eq!(empty.iter().count(), 0);
}
