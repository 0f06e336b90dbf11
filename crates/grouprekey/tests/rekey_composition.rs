//! `KeyServer::rekey` is exactly the composition of the public calls it
//! is built from: `KeyTree::process_batch_compacting_in` →
//! `UkaAssignment::build` → `ServerController::begin_message` (over a
//! clone of the sealed packets, with the `3 + 20h` USR-length hint) →
//! `ServerSession::start`. Replays that trace the server's layers one
//! public call at a time rely on this equality, so it is pinned here on
//! ENC packet bytes, the round-one multicast schedule and the group key,
//! with compaction off and on.

use grouprekey::{KeyServer, ServerOptions};
use keytree::{Batch, CompactionPolicy, KeyTree, MarkOutcome, MarkScratch, MemberId};
use rekeymsg::UkaAssignment;
use rekeyproto::{ServerConfig, ServerController};
use wirecrypto::{KeyGen, SymKey};

const N: u32 = 1024;
const DEGREE: u32 = 4;

/// Everything observable about one message on both sides of the check.
#[derive(Debug, PartialEq)]
struct Message {
    outcome: MarkOutcome,
    enc_bytes: Vec<Vec<u8>>,
    schedule_bytes: Vec<Vec<u8>>,
    group_key: Option<SymKey>,
}

fn options(compaction: CompactionPolicy) -> ServerOptions {
    ServerOptions {
        degree: DEGREE,
        // ρ > 1 with adaptation off: every round-one schedule carries
        // proactive parity, so the FEC encode is compared too.
        protocol: ServerConfig {
            initial_rho: 1.6,
            adapt_rho: false,
            ..ServerConfig::default()
        },
        compaction,
        ..ServerOptions::default()
    }
}

/// The membership plan: a mass departure that leaves every eighth member
/// (sparse enough to trip compaction), small mixed churn batches, then a
/// join storm that forces splits. Keys are minted per side, in plan
/// order, right before each batch is processed.
fn plan() -> Vec<(Vec<MemberId>, Vec<MemberId>)> {
    let mut batches = vec![(vec![], (0..N).filter(|m| m % 8 != 0).collect())];
    for r in 0..7u32 {
        let joins = (0..4).map(|i| 2000 + r * 4 + i).collect();
        let leaves = (1..4).map(|i| 8 * (r * 5 + i)).collect();
        batches.push((joins, leaves));
    }
    batches.push(((3000..4000).collect(), vec![0, 32]));
    batches
}

fn with_keys(joins: &[MemberId], mut mint: impl FnMut() -> SymKey) -> Vec<(MemberId, SymKey)> {
    joins.iter().map(|&m| (m, mint())).collect()
}

fn emit_all<T>(items: &[T], emit: impl Fn(&T) -> Vec<u8>) -> Vec<Vec<u8>> {
    items.iter().map(emit).collect()
}

fn through_key_server(compaction: CompactionPolicy) -> Vec<Message> {
    let opts = options(compaction);
    let layout = opts.protocol.layout;
    let mut server = KeyServer::bootstrap(N, opts);
    plan()
        .into_iter()
        .map(|(joins, leaves)| {
            let joins = with_keys(&joins, || server.mint_individual_key());
            let mut artifacts = server.rekey(Batch::new(joins, leaves));
            let schedule = artifacts.session.start();
            Message {
                outcome: (*artifacts.outcome).clone(),
                enc_bytes: emit_all(&artifacts.assignment.packets, |p| p.emit(&layout)),
                schedule_bytes: emit_all(&schedule, |p| p.emit(&layout)),
                group_key: server.tree().group_key(),
            }
        })
        .collect()
}

fn through_public_calls(compaction: CompactionPolicy) -> Vec<Message> {
    let opts = options(compaction);
    let layout = opts.protocol.layout;
    let mut keygen = KeyGen::from_seed(opts.keygen_seed);
    let mut tree = KeyTree::balanced(N, DEGREE, &mut keygen);
    let mut scratch = MarkScratch::new();
    let controller = ServerController::new(opts.protocol);
    let mut msg_seq = 0u64;
    plan()
        .into_iter()
        .map(|(joins, leaves)| {
            let joins = with_keys(&joins, || keygen.next_key());
            msg_seq += 1;
            let outcome = tree.process_batch_compacting_in(
                Batch::new(joins, leaves),
                &mut keygen,
                &mut scratch,
                &opts.compaction,
            );
            let assignment = UkaAssignment::build(&tree, &outcome, msg_seq, &layout)
                .expect("marking outcome seals against its own tree");
            let hint = layout.usr_packet_len(tree.height() as usize + 1);
            let mut session = controller.begin_message(assignment.packets.clone(), hint);
            let schedule = session.start();
            Message {
                enc_bytes: emit_all(&assignment.packets, |p| p.emit(&layout)),
                schedule_bytes: emit_all(&schedule, |p| p.emit(&layout)),
                group_key: tree.group_key(),
                outcome,
            }
        })
        .collect()
}

fn assert_same(compaction: CompactionPolicy) -> Vec<Message> {
    let server = through_key_server(compaction);
    let composed = through_public_calls(compaction);
    assert_eq!(server.len(), composed.len());
    for (i, (s, c)) in server.iter().zip(&composed).enumerate() {
        assert_eq!(s.outcome, c.outcome, "message {i}: marking outcome");
        assert_eq!(s.enc_bytes, c.enc_bytes, "message {i}: ENC packet bytes");
        assert_eq!(
            s.schedule_bytes, c.schedule_bytes,
            "message {i}: round-one schedule"
        );
        assert_eq!(s.group_key, c.group_key, "message {i}: group key");
    }
    server
}

#[test]
fn rekey_matches_public_call_composition_compaction_off() {
    let messages = assert_same(CompactionPolicy::DISABLED);
    assert!(messages.iter().all(|m| m.outcome.relocations.is_empty()));
    assert!(
        messages.iter().any(|m| !m.outcome.moves.is_empty()),
        "the join storm must split"
    );
}

#[test]
fn rekey_matches_public_call_composition_compaction_on() {
    let messages = assert_same(CompactionPolicy::DEFAULT_ON);
    assert!(
        messages.iter().any(|m| !m.outcome.relocations.is_empty()),
        "the plan must exercise compaction relocations"
    );
    assert!(
        messages
            .iter()
            .all(|m| m.schedule_bytes.len() > m.enc_bytes.len()),
        "every round-one schedule carries proactive parity"
    );
}
