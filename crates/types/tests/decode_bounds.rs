//! Two decode bounds over every place they apply: each tag byte on the
//! wire refuses a value it does not define, naming the tag and the byte,
//! and a view above 2^48 − 1 is refused wherever a view is read.
//!
//! A tag's position is found, not hard-coded: two messages that differ
//! only in that tag's value first differ at the tag byte.

use bytes::Bytes;
use marlin_crypto::{KeyStore, QcFormat};
use marlin_types::codec::{decode_message, encode_message, DecodeError};
use marlin_types::{
    Batch, Block, BlockId, BlockKind, Decide, Height, Justify, Message, MsgBody, Phase, Proposal,
    Qc, QcSeed, ReplicaId, Transaction, View, ViewChange, Vote,
};

fn keys() -> KeyStore {
    KeyStore::generate(4, 1, 11)
}

fn seed(view: u64, kind: BlockKind) -> QcSeed {
    QcSeed {
        phase: Phase::Prepare,
        view: View(view),
        block: BlockId::from_digest(marlin_crypto::sha256(&[view as u8])),
        height: Height(view),
        block_view: View(view),
        pview: View(view - 1),
        block_kind: kind,
    }
}

fn qc(format: QcFormat) -> Qc {
    let (keys, seed) = (keys(), seed(2, BlockKind::Normal));
    let partials: Vec<_> = (0..3)
        .map(|i| keys.signer(i).sign_partial(&seed.signing_bytes()))
        .collect();
    Qc::combine(seed, &partials, &keys, format).unwrap()
}

fn msg(body: MsgBody) -> Message {
    Message::new(ReplicaId(1), View(3), body)
}

fn vote(kind: BlockKind, locked_qc: Option<Qc>) -> MsgBody {
    let seed = seed(3, kind);
    let parsig = keys().signer(1).sign_partial(&seed.signing_bytes());
    MsgBody::Vote(Vote {
        seed,
        parsig,
        locked_qc,
    })
}

fn proposal(phase: Phase, blocks: Vec<Block>) -> MsgBody {
    MsgBody::Proposal(Proposal {
        phase,
        blocks,
        justify: Justify::One(qc(QcFormat::Threshold)),
        vc_proof: Vec::new(),
    })
}

/// A normal block at height 1, and a virtual one with the same fields
/// but its parent link.
fn blocks() -> (Block, Block) {
    let payload = Batch::new(vec![Transaction::new(1, 1, Bytes::from_static(b"tx"), 5)]);
    let justify = Justify::One(Qc::genesis(BlockId::GENESIS));
    let normal = Block::new_normal(
        BlockId::GENESIS,
        View(0),
        View(1),
        Height(1),
        payload.clone(),
        justify,
    );
    let virt = Block::new_virtual(View(0), View(1), Height(1), payload, justify);
    (normal, virt)
}

/// Writes `bad` over the tag at which `a` and `b` first differ in `a`'s
/// frame, and asserts the decoder refuses exactly that byte, as `what`.
fn refuses(what: &str, a: MsgBody, b: MsgBody, bad: u8) {
    let (a, b) = (
        encode_message(&msg(a), false),
        encode_message(&msg(b), false),
    );
    let at = a.iter().zip(b.iter()).position(|(x, y)| x != y).unwrap();
    let mut frame = a.to_vec();
    frame[at] = bad;
    match decode_message(&frame.into()) {
        Err(DecodeError::BadTag { what: got, tag }) => {
            assert_eq!((got, tag), (what, bad), "tag at byte {at}")
        }
        other => panic!("{what} at byte {at}: expected BadTag({bad}), got {other:?}"),
    }
}

#[test]
fn every_tag_refuses_an_undefined_value() {
    let (normal, virt) = blocks();
    let g = Block::genesis();
    let batch = Some(g.payload().clone());
    let fetch = |block: &Block, virtual_parent| MsgBody::FetchResponse {
        block: block.clone(),
        virtual_parent,
    };
    let fetch_request = MsgBody::FetchRequest {
        block: BlockId::GENESIS,
    };
    for bad in [17, 0x80, 0xff] {
        refuses(
            "MsgBody",
            fetch_request.clone(),
            MsgBody::SnapshotRequest,
            bad,
        );
    }
    for bad in [4, 0xff] {
        refuses(
            "Phase",
            proposal(Phase::Prepare, vec![]),
            proposal(Phase::Commit, vec![]),
            bad,
        );
    }
    refuses(
        "BlockKind",
        vote(BlockKind::Normal, None),
        vote(BlockKind::Virtual, None),
        2,
    );
    let decide = |format| {
        MsgBody::Decide(Decide {
            commit_qc: qc(format),
        })
    };
    refuses(
        "QcFormat",
        decide(QcFormat::SigGroup),
        decide(QcFormat::Threshold),
        2,
    );
    let digest_proposal = |justify| MsgBody::DigestProposal {
        digest: Batch::empty().digest(),
        justify,
    };
    let q = qc(QcFormat::Threshold);
    refuses(
        "Justify",
        digest_proposal(Justify::One(q)),
        digest_proposal(Justify::Two(q, q)),
        3,
    );
    refuses("ParentLink", fetch(&normal, None), fetch(&virt, None), 2);
    for bad in [3, 0x83, 0x7f] {
        refuses(
            "Proposal.blocks",
            proposal(Phase::PrePrepare, vec![normal.clone()]),
            proposal(Phase::PrePrepare, vec![normal.clone(), virt.clone()]),
            bad,
        );
    }
    // FetchResponse.virtual_parent is written as a parent link.
    refuses(
        "ParentLink",
        fetch(&g, None),
        fetch(&g, Some(normal.id())),
        2,
    );
    // Every Option: its tag is 0 or 1, nothing else.
    let view_change = |cert| {
        MsgBody::ViewChange(ViewChange {
            last_voted: g.meta(),
            high_qc: Justify::None,
            parsig: keys().signer(0).sign_partial(b"vc"),
            cert,
        })
    };
    let sig = keys().signer(0).sign(b"cert");
    let digest = Batch::empty().digest();
    let options = [
        (
            vote(BlockKind::Normal, None),
            vote(BlockKind::Normal, Some(q)),
        ),
        (view_change(None), view_change(Some(sig))),
        (
            MsgBody::CatchUpResponse { commit_qc: None },
            MsgBody::CatchUpResponse { commit_qc: Some(q) },
        ),
        (
            MsgBody::SnapshotResponse { snapshot: None },
            MsgBody::SnapshotResponse {
                snapshot: Some((normal.clone(), q)),
            },
        ),
        (
            MsgBody::PayloadResponse {
                digest,
                batch: None,
            },
            MsgBody::PayloadResponse { digest, batch },
        ),
    ];
    for (none, some) in options {
        for bad in [2, 0xff] {
            refuses("Option", none.clone(), some.clone(), bad);
        }
    }
}

const MAX_VIEW: u64 = (1 << 48) - 1;

fn view_refused(frame: Vec<u8>, view: u64) {
    assert_eq!(
        decode_message(&frame.into()),
        Err(DecodeError::FieldTooLarge {
            what: "View",
            len: view as usize,
            max: MAX_VIEW as usize,
        })
    );
}

/// A peer-chosen view cannot reach `View::next`'s overflow: the header
/// view and a QC seed's view are both refused above 2^48 − 1, which
/// round-trips.
#[test]
fn views_above_the_ceiling_are_refused() {
    assert_eq!(View::MAX, View(MAX_VIEW));
    let fetch = MsgBody::FetchRequest {
        block: BlockId::GENESIS,
    };
    let mut frame = encode_message(&msg(fetch.clone()), false).to_vec();
    frame[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
    view_refused(frame, u64::MAX);

    let decide = |view: u64| {
        let mut seed = seed(2, BlockKind::Normal);
        seed.view = View(view);
        let commit_qc = Qc::new(seed, *Qc::genesis(BlockId::GENESIS).sig());
        msg(MsgBody::Decide(Decide { commit_qc }))
    };
    view_refused(encode_message(&decide(1 << 48), false).to_vec(), 1 << 48);

    for m in [
        Message::new(ReplicaId(0), View(MAX_VIEW), fetch),
        decide(MAX_VIEW),
    ] {
        assert_eq!(decode_message(&encode_message(&m, false)), Ok(m));
    }
}
