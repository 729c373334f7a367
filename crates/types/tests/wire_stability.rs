//! Wire-format stability: golden encodings pin the codec so accidental
//! format changes (which would desynchronise byte accounting and break
//! cross-version interop) fail loudly.

use bytes::Bytes;
use marlin_crypto::{KeyStore, QcFormat};
use marlin_types::codec::{decode_message, encode_message};
use marlin_types::{
    Batch, Block, BlockId, BlockKind, Decide, Height, Justify, Message, MsgBody, Phase, Proposal,
    Qc, QcSeed, ReplicaId, Transaction, VcCert, View, ViewChange, Vote,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn golden_message() -> Message {
    let g = Block::genesis();
    let qc = Qc::genesis(g.id());
    let tx = Transaction::new(7, 3, Bytes::from_static(b"op"), 42);
    let block = Block::new_normal(
        g.id(),
        g.view(),
        View(1),
        g.height().next(),
        Batch::new(vec![tx]),
        Justify::One(qc),
    );
    Message::new(
        ReplicaId(1),
        View(1),
        MsgBody::Proposal(marlin_types::Proposal {
            phase: Phase::Prepare,
            blocks: vec![block],
            justify: Justify::One(qc),
            vc_proof: Vec::new(),
        }),
    )
}

/// The golden bytes for [`golden_message`], captured from the v1 codec.
/// If this test fails because the format deliberately changed, bump the
/// codec version tags and refresh the constant.
const GOLDEN_HEX: &str =
    "010000000100000000000000000101010000000000000000000000000000000000000000000000\
000000000000000000000000000000000001000000000000000100000000000000010100000000\
000000000000000000000000000000000000000000000000000000000000000000000000000000\
000000000000000000000000000000000000000000000100000000000000000000000000000000\
000000000000000000000000000000000000000000000000000000000000000000000000000000\
000000000000000000000000000000000000000000000000000000000000000000000000000000\
0001000000070000000000000003000000020000002a000000000000006f700101000000000000\
000000000000000000000000000000000000000000000000000000000000000000000000000000\
000000000000000000000000000000000000000001000000000000000000000000000000000000\
000000000000000000000000000000000000000000000000000000000000000000000000000000\
000000000000000000000000000000000000000000000000000000000000000000000000000000\
00";

#[test]
fn golden_encoding_is_stable() {
    let msg = golden_message();
    let encoded = encode_message(&msg, false);
    let got = hex(&encoded);
    // Self-check first: decode must round-trip regardless.
    assert_eq!(decode_message(&encoded).unwrap(), msg);
    assert_eq!(
        got,
        GOLDEN_HEX.replace('\n', ""),
        "wire format changed — if intentional, bump the version tags and refresh GOLDEN_HEX"
    );
}

#[test]
fn wire_len_constants_are_stable() {
    // The byte-accounting building blocks the evaluation depends on.
    assert_eq!(Transaction::HEADER_LEN, 24);
    assert_eq!(marlin_crypto::SIGNATURE_LEN, 64);
    assert_eq!(marlin_crypto::THRESHOLD_SIG_LEN, 96);
    let qc = Qc::genesis(BlockId::GENESIS);
    assert_eq!(qc.wire_len(), 66 + 96);
    let g = Block::genesis();
    assert_eq!(g.wire_len() - g.payload().wire_len(), 33 + 24 + 1);
    assert_eq!(g.wire_len(), 33 + 24 + 1 + 4);
    let msg = |body| Message::new(ReplicaId(0), View(0), body);
    let fetch = msg(MsgBody::FetchRequest { block: g.id() });
    assert_eq!(fetch.wire_len(false), 45);
    // Header(13) + block meta(58) + empty justify(1) + partial
    // signature(72) + no cert(1).
    let keys = KeyStore::generate(4, 1, 1);
    let vc = msg(MsgBody::ViewChange(ViewChange {
        last_voted: g.meta(),
        high_qc: Justify::None,
        parsig: keys.signer(0).sign_partial(b"vc"),
        cert: None,
    }));
    assert_eq!(vc.wire_len(false), 13 + 58 + 1 + 72 + 1);
}

fn signed_qc(keys: &KeyStore, phase: Phase, view: u64, format: QcFormat) -> Qc {
    let seed = QcSeed {
        phase,
        view: View(view),
        block: BlockId::from_digest(marlin_crypto::sha256(&[view as u8])),
        height: Height(view),
        block_view: View(view),
        pview: View(view - 1),
        block_kind: BlockKind::Normal,
    };
    let partials: Vec<_> = (0..3)
        .map(|i| keys.signer(i).sign_partial(&seed.signing_bytes()))
        .collect();
    Qc::combine(seed, &partials, keys, format).unwrap()
}

/// One message of every shape that carries a QC, a signature or a
/// payload, built with `format` certificates (n = 4, t = 3).
fn shapes(format: QcFormat) -> Vec<(&'static str, Message)> {
    let keys = KeyStore::generate(4, 1, 11);
    let hi = signed_qc(&keys, Phase::Prepare, 2, format);
    let pre = signed_qc(&keys, Phase::PrePrepare, 3, format);
    let commit = signed_qc(&keys, Phase::Commit, 5, format);
    let g = Block::genesis();
    let tx = |id: u64, len: usize| Transaction::new(id, 1, Bytes::from(vec![id as u8; len]), id);
    let batch = Batch::new(vec![tx(1, 150), tx(2, 0)]);
    let b1 = Block::new_normal(
        g.id(),
        g.view(),
        View(3),
        Height(3),
        batch.clone(),
        Justify::One(hi),
    );
    let shadow = Block::new_virtual(View(2), View(3), Height(4), batch.clone(), Justify::One(hi));
    let b2 = Block::new_normal(
        b1.id(),
        b1.view(),
        View(4),
        Height(4),
        Batch::new(vec![tx(3, 40)]),
        Justify::Two(pre, hi),
    );
    let vote_seed = b1.vote_seed(Phase::Prepare, View(3));
    let parsig = keys.signer(1).sign_partial(&vote_seed.signing_bytes());
    let vote = Vote {
        seed: vote_seed,
        parsig,
        locked_qc: None,
    };
    let vc = ViewChange {
        last_voted: b1.meta(),
        high_qc: Justify::One(hi),
        parsig,
        cert: None,
    };
    let cert = |i: u32| VcCert {
        from: ReplicaId(i),
        high_qc: hi,
        sig: keys
            .signer(i as usize)
            .sign(&VcCert::signing_bytes(ReplicaId(i), View(4), &hi)),
    };
    let proposal = |phase, blocks, justify, vc_proof| {
        MsgBody::Proposal(Proposal {
            phase,
            blocks,
            justify,
            vc_proof,
        })
    };
    let digest = batch.digest();
    let bodies = vec![
        ("vote", MsgBody::Vote(vote.clone())),
        (
            "vote+lock",
            MsgBody::Vote(Vote {
                locked_qc: Some(hi),
                ..vote
            }),
        ),
        ("view-change/one", MsgBody::ViewChange(vc.clone())),
        (
            "view-change/two",
            MsgBody::ViewChange(ViewChange {
                high_qc: Justify::Two(pre, hi),
                ..vc.clone()
            }),
        ),
        (
            "view-change/cert",
            MsgBody::ViewChange(ViewChange {
                cert: Some(cert(0).sig),
                ..vc
            }),
        ),
        ("decide", MsgBody::Decide(Decide { commit_qc: commit })),
        (
            "prepare/one-block",
            proposal(
                Phase::Prepare,
                vec![b1.clone()],
                Justify::One(hi),
                Vec::new(),
            ),
        ),
        (
            "pre-prepare/shadow-pair",
            proposal(
                Phase::PrePrepare,
                vec![b1.clone(), shadow],
                Justify::One(hi),
                Vec::new(),
            ),
        ),
        (
            "jolteon/three-certs",
            proposal(
                Phase::Prepare,
                Vec::new(),
                Justify::One(hi),
                (0..3).map(cert).collect(),
            ),
        ),
        (
            "fetch-response",
            MsgBody::FetchResponse {
                block: b1.clone(),
                virtual_parent: Some(g.id()),
            },
        ),
        (
            "snapshot-response",
            MsgBody::SnapshotResponse {
                snapshot: Some((b1.clone(), commit)),
            },
        ),
        (
            "block-range-response",
            MsgBody::BlockRangeResponse {
                from_height: Height(3),
                blocks: vec![b1, b2],
            },
        ),
        (
            "catch-up-response/none",
            MsgBody::CatchUpResponse { commit_qc: None },
        ),
        (
            "catch-up-response/genesis",
            MsgBody::CatchUpResponse {
                commit_qc: Some(Qc::genesis(g.id())),
            },
        ),
        (
            "payload-push",
            MsgBody::PayloadPush {
                digest,
                batch: batch.clone(),
            },
        ),
        (
            "payload-response",
            MsgBody::PayloadResponse {
                digest,
                batch: Some(batch),
            },
        ),
        (
            "digest-proposal",
            MsgBody::DigestProposal {
                digest,
                justify: Justify::One(hi),
            },
        ),
    ];
    bodies
        .into_iter()
        .map(|(name, body)| (name, Message::new(ReplicaId(1), View(4), body)))
        .collect()
}

/// `[wire_len(false), wire_len(true), authenticator_count()]` per shape.
type Pinned = &'static [(&'static str, [usize; 3])];

const THRESHOLD: Pinned = &[
    ("vote", [152, 152, 1]),
    ("vote+lock", [314, 314, 2]),
    ("view-change/one", [307, 307, 2]),
    ("view-change/two", [469, 469, 3]),
    ("view-change/cert", [371, 371, 3]),
    ("decide", [175, 175, 1]),
    ("prepare/one-block", [602, 602, 2]),
    ("pre-prepare/shadow-pair", [1024, 822, 3]),
    ("jolteon/three-certs", [870, 870, 7]),
    ("fetch-response", [468, 468, 1]),
    ("snapshot-response", [598, 598, 2]),
    ("block-range-response", [895, 895, 3]),
    ("catch-up-response/none", [14, 14, 0]),
    ("catch-up-response/genesis", [176, 176, 0]),
    ("payload-push", [247, 247, 0]),
    ("payload-response", [248, 248, 0]),
    ("digest-proposal", [208, 208, 1]),
];

const SIG_GROUP: Pinned = &[
    ("vote", [152, 152, 1]),
    ("vote+lock", [426, 426, 4]),
    ("view-change/one", [419, 419, 4]),
    ("view-change/two", [693, 693, 7]),
    ("view-change/cert", [483, 483, 5]),
    ("decide", [287, 287, 3]),
    ("prepare/one-block", [826, 826, 6]),
    ("pre-prepare/shadow-pair", [1360, 1158, 9]),
    ("jolteon/three-certs", [1318, 1318, 15]),
    ("fetch-response", [580, 580, 3]),
    ("snapshot-response", [822, 822, 6]),
    ("block-range-response", [1231, 1231, 9]),
    ("catch-up-response/none", [14, 14, 0]),
    ("catch-up-response/genesis", [176, 176, 0]),
    ("payload-push", [247, 247, 0]),
    ("payload-response", [248, 248, 0]),
    ("digest-proposal", [320, 320, 3]),
];

/// The numbers the evaluation reads off a message — bytes with the
/// shadow optimisation off and on, and authenticators (Table I, the
/// ablations, the simulator's bandwidth model, the perf ledger) — as
/// literals, under both QC formats. The shadow pair differs by exactly
/// its shared payload; a genesis QC and the payload plane carry no
/// authenticator.
#[test]
fn derived_wire_numbers_are_pinned() {
    for (format, pinned) in [
        (QcFormat::Threshold, THRESHOLD),
        (QcFormat::SigGroup, SIG_GROUP),
    ] {
        let got: Vec<(&str, [usize; 3])> = shapes(format)
            .iter()
            .map(|(name, m)| {
                let row = [m.wire_len(false), m.wire_len(true), m.authenticator_count()];
                assert_eq!(encode_message(m, false).len(), row[0], "{format:?} {name}");
                assert_eq!(encode_message(m, true).len(), row[1], "{format:?} {name}");
                (*name, row)
            })
            .collect();
        assert_eq!(got, pinned, "{format:?}");
    }
}

#[test]
fn heights_and_views_encode_little_endian() {
    let msg = Message::new(
        ReplicaId(0x0A0B0C0D),
        View(0x1122334455667788),
        MsgBody::FetchRequest {
            block: BlockId::GENESIS,
        },
    );
    let enc = encode_message(&msg, false);
    assert_eq!(&enc[0..4], &[0x0D, 0x0C, 0x0B, 0x0A]);
    assert_eq!(
        &enc[4..12],
        &[0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
    );
}
