//! Property-based tests: the rank rules form a total preorder consistent
//! with Figure 4, and the wire codec round-trips arbitrary messages at
//! exactly the modeled byte length.

use bytes::Bytes;
use marlin_crypto::{sha256, PartialSig, QcFormat, SignerBitmap};
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::rank::{block_rank_gt, qc_rank_cmp};
use marlin_types::{
    Batch, Block, BlockId, BlockKind, BlockMeta, Decide, Height, Justify, Message, MsgBody, Phase,
    Proposal, Qc, QcSeed, ReplicaId, Transaction, VcCert, View, ViewChange, Vote,
};
use proptest::prelude::*;
use std::cmp::Ordering;

fn arb_phase() -> impl Strategy<Value = Phase> {
    prop_oneof![
        Just(Phase::PrePrepare),
        Just(Phase::Prepare),
        Just(Phase::PreCommit),
        Just(Phase::Commit),
    ]
}

fn arb_kind() -> impl Strategy<Value = BlockKind> {
    prop_oneof![Just(BlockKind::Normal), Just(BlockKind::Virtual)]
}

fn arb_digest() -> impl Strategy<Value = BlockId> {
    any::<u64>().prop_map(|x| BlockId::from_digest(sha256(&x.to_le_bytes())))
}

prop_compose! {
    fn arb_seed()(
        phase in arb_phase(),
        view in 0u64..50,
        block in arb_digest(),
        height in 0u64..100,
        block_view in 0u64..50,
        pview in 0u64..50,
        block_kind in arb_kind(),
    ) -> QcSeed {
        QcSeed {
            phase,
            view: View(view),
            block,
            height: Height(height),
            block_view: View(block_view),
            pview: View(pview),
            block_kind,
        }
    }
}

prop_compose! {
    fn arb_qc()(
        seed in arb_seed(),
        bits in any::<u128>(),
        agg in any::<u64>(),
        format in prop_oneof![Just(QcFormat::SigGroup), Just(QcFormat::Threshold)],
    ) -> Qc {
        let sig = marlin_crypto::CombinedSig::from_parts(
            format,
            SignerBitmap::from_bits(bits),
            sha256(&agg.to_le_bytes()),
        );
        Qc::new(seed, sig)
    }
}

prop_compose! {
    fn arb_meta()(
        id in arb_digest(),
        view in 0u64..20,
        height in 0u64..40,
        pview in 0u64..20,
        kind in arb_kind(),
        rank_boost in any::<bool>(),
    ) -> BlockMeta {
        BlockMeta { id, view: View(view), height: Height(height), pview: View(pview), kind, rank_boost }
    }
}

prop_compose! {
    fn arb_tx()(
        id in any::<u64>(),
        client in 0u32..64,
        len in 0usize..300,
        ts in any::<u64>(),
        fill in any::<u8>(),
    ) -> Transaction {
        Transaction::new(id, client, Bytes::from(vec![fill; len]), ts)
    }
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    prop::collection::vec(arb_tx(), 0..8).prop_map(Batch::new)
}

fn arb_justify() -> BoxedStrategy<Justify> {
    prop_oneof![
        Just(Justify::None),
        arb_qc().prop_map(Justify::One),
        (arb_qc(), arb_qc()).prop_map(|(a, b)| Justify::Two(a, b)),
    ]
    .boxed()
}

prop_compose! {
    fn arb_block()(
        parent in prop::option::of(arb_digest()),
        pview in 0u64..20,
        view in 1u64..20,
        height in 1u64..40,
        payload in arb_batch(),
        justify in arb_justify(),
    ) -> Block {
        match parent {
            Some(p) => Block::new_normal(p, View(pview), View(view), Height(height), payload, justify),
            None => Block::new_virtual(View(pview), View(view), Height(height), payload, justify),
        }
    }
}

fn arb_parsig() -> impl Strategy<Value = PartialSig> {
    (0usize..100, any::<u64>())
        .prop_map(|(signer, x)| PartialSig::from_parts(signer, sha256(&x.to_le_bytes())))
}

fn arb_body() -> BoxedStrategy<MsgBody> {
    prop_oneof![
        // Proposal with 0..2 blocks and 0..4 VC certs.
        (
            arb_phase(),
            prop::collection::vec(arb_block(), 0..3),
            arb_justify(),
            prop::collection::vec((0u32..8, arb_qc(), any::<[u8; 64]>()), 0..4)
        )
            .prop_map(|(phase, blocks, justify, certs)| {
                let vc_proof = certs
                    .into_iter()
                    .map(|(from, high_qc, sig)| VcCert {
                        from: ReplicaId(from),
                        high_qc,
                        sig: marlin_crypto::Signature::from_bytes(sig),
                    })
                    .collect();
                MsgBody::Proposal(Proposal {
                    phase,
                    blocks,
                    justify,
                    vc_proof,
                })
            }),
        (arb_seed(), arb_parsig(), prop::option::of(arb_qc())).prop_map(
            |(seed, parsig, locked_qc)| MsgBody::Vote(Vote {
                seed,
                parsig,
                locked_qc
            })
        ),
        (
            arb_meta(),
            arb_justify(),
            arb_parsig(),
            prop::option::of(any::<[u8; 64]>())
        )
            .prop_map(|(last_voted, high_qc, parsig, cert)| {
                MsgBody::ViewChange(ViewChange {
                    last_voted,
                    high_qc,
                    parsig,
                    cert: cert.map(marlin_crypto::Signature::from_bytes),
                })
            }),
        arb_qc().prop_map(|qc| MsgBody::Decide(Decide { commit_qc: qc })),
        arb_digest().prop_map(|block| MsgBody::FetchRequest { block }),
        (arb_block(), prop::option::of(arb_digest())).prop_map(|(block, virtual_parent)| {
            MsgBody::FetchResponse {
                block,
                virtual_parent,
            }
        }),
    ]
    .boxed()
}

prop_compose! {
    fn arb_message()(
        from in 0u32..100,
        view in 0u64..50,
        body in arb_body(),
    ) -> Message {
        Message::new(ReplicaId(from), View(view), body)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Figure 4's rules form a total preorder: comparability is total
    /// (guaranteed by the Ordering return type), comparison is
    /// transitive, and swapping arguments flips the result.
    #[test]
    fn qc_rank_is_total_preorder(a in arb_qc(), b in arb_qc(), c in arb_qc()) {
        let ab = qc_rank_cmp(&a, &b);
        let ba = qc_rank_cmp(&b, &a);
        prop_assert_eq!(ab, ba.reverse());
        let bc = qc_rank_cmp(&b, &c);
        let ac = qc_rank_cmp(&a, &c);
        if ab == Ordering::Equal && bc == Ordering::Equal {
            prop_assert_eq!(ac, Ordering::Equal);
        }
        if (ab != Ordering::Less) && (bc != Ordering::Less) {
            prop_assert_ne!(ac, Ordering::Less);
        }
    }

    /// Rank agrees with Figure 4 rule by rule.
    #[test]
    fn qc_rank_matches_figure4(a in arb_qc(), b in arb_qc()) {
        let expected = if a.view() != b.view() {
            a.view().cmp(&b.view())
        } else {
            let (ha, hb) = (a.phase().is_high_class(), b.phase().is_high_class());
            if ha != hb {
                ha.cmp(&hb)
            } else if ha {
                a.height().cmp(&b.height())
            } else {
                Ordering::Equal
            }
        };
        prop_assert_eq!(qc_rank_cmp(&a, &b), expected);
    }

    /// Block rank is irreflexive and asymmetric (a strict partial order).
    #[test]
    fn block_rank_is_strict_partial_order(a in arb_meta(), b in arb_meta(), c in arb_meta()) {
        prop_assert!(!block_rank_gt(&a, &a));
        if block_rank_gt(&a, &b) {
            prop_assert!(!block_rank_gt(&b, &a));
        }
        if block_rank_gt(&a, &b) && block_rank_gt(&b, &c) {
            prop_assert!(block_rank_gt(&a, &c));
        }
    }

    /// Codec: decode(encode(m)) == m and the encoding length equals the
    /// modeled wire length, with and without the shadow optimisation.
    #[test]
    fn codec_round_trip(msg in arb_message(), shadow in any::<bool>()) {
        let encoded = encode_message(&msg, shadow);
        prop_assert_eq!(encoded.len(), msg.wire_len(shadow));
        let decoded = decode_message(&encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Truncating any encoding never panics and always errors.
    #[test]
    fn codec_rejects_truncation(msg in arb_message(), frac in 0.0f64..1.0) {
        let encoded = encode_message(&msg, false);
        let cut = ((encoded.len() as f64) * frac) as usize;
        if cut < encoded.len() {
            prop_assert!(decode_message(&encoded.slice(..cut)).is_err());
        }
    }

    /// Block ids are deterministic and collision-free across distinct
    /// metadata within the generated domain.
    #[test]
    fn block_ids_deterministic(b in arb_block()) {
        let rebuilt = match b.parent_id() {
            Some(p) => Block::new_normal(p, b.pview(), b.view(), b.height(), b.payload().clone(), *b.justify()),
            None => Block::new_virtual(b.pview(), b.view(), b.height(), b.payload().clone(), *b.justify()),
        };
        prop_assert_eq!(rebuilt.id(), b.id());
    }
}
