//! `server_batch`: the key server alone, on large simultaneous batches.
//!
//! No members and no network: an interval runs from batch closed to the
//! round-one multicast schedule being ready. The replay below is the
//! barrier path of `KeyServer::rekey` (the default `ServerOptions`) written
//! out against the public functions it calls.

use std::sync::Arc;
use std::time::Instant;

use grouprekey::{KeyServer, ServerOptions, UserAgent};
use keytree::{CompactionPolicy, KeyTree, MarkOutcome, MarkScratch, MemberId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rekeymsg::{Layout, Packet, UkaAssignment};
use rekeyproto::{ServerConfig, ServerController};
use wirecrypto::KeyGen;

use crate::common::{digest, Churn, IntervalOut};
use crate::trace::{Layer, Tracer};
use crate::workload::{Counts, Step, Workload};

/// The largest full d=4 group whose node IDs stay inside the 16-bit wire
/// format when J = L.
const N: u32 = 16384;
const DEGREE: u32 = 4;
const JOINS: usize = 1024;
const LEAVES: usize = 1024;
/// Members whose agents check each interval's schedule.
const SAMPLE: usize = 4;

/// ρ = 1.6 held fixed, so every interval FEC-encodes proactive parity.
fn options() -> ServerOptions {
    ServerOptions {
        degree: DEGREE,
        protocol: ServerConfig {
            initial_rho: 1.6,
            adapt_rho: false,
            ..ServerConfig::default()
        },
        ..ServerOptions::default()
    }
}

pub struct Live {
    server: KeyServer,
    churn: Churn,
    sampler: SmallRng,
}

pub struct Replay {
    tree: KeyTree,
    keygen: KeyGen,
    scratch: MarkScratch,
    controller: ServerController,
    layout: Layout,
    msg_seq: u64,
    last_outcome: Option<Arc<MarkOutcome>>,
    churn: Churn,
}

pub struct ServerBatch;

impl Workload for ServerBatch {
    type Live = Live;
    type Replay = Replay;

    const NAME: &'static str = "server_batch";
    const HAS_MEMBERS: bool = false;

    fn setup(seed: u64) -> Live {
        Live {
            server: KeyServer::bootstrap(N, options()),
            churn: Churn::new(seed, N, JOINS, LEAVES),
            sampler: SmallRng::seed_from_u64(seed ^ 0x5A3B_1E00),
        }
    }

    fn step(live: &mut Live) -> Step {
        let t0 = Instant::now();
        let server = &mut live.server;
        let batch = live
            .churn
            .next_batch(|id| (id, server.mint_individual_key()));
        let t1 = Instant::now();

        // Agents for the check, built from the pre-batch tree outside the
        // timed region: a few members that stay, and one that leaves.
        let staying: Vec<MemberId> = {
            let live_now = live.churn.live();
            let old = live_now.len() - JOINS;
            (0..SAMPLE)
                .map(|_| live_now[live.sampler.gen_range(0..old)])
                .collect()
        };
        let agent_of = |m: MemberId| {
            let tree = live.server.tree();
            let node = tree
                .node_of_member(m)
                .expect("sampled member is in the tree");
            let path = tree.keys_for_member(m).expect("sampled member has a path");
            UserAgent::with_path(m, node, path[0].1, DEGREE, path)
        };
        let mut agents: Vec<UserAgent> = staying.iter().map(|&m| agent_of(m)).collect();
        let mut leaver = agent_of(batch.leaves[0]);

        let t2 = Instant::now();
        let mut artifacts = live.server.rekey(batch);
        let schedule = artifacts.session.start();
        let t3 = Instant::now();
        // `artifacts` drops after the checks, outside the timed region, as
        // the replay's session does.

        let session = &artifacts.session;
        let tree = live.server.tree();
        let group_key = tree.group_key();
        let out = IntervalOut {
            enc_packets: session.real_enc_count(),
            nacks_round1: 0,
            rounds_histogram: Vec::new(),
            usr_packets: 0,
            usr_bytes: 0,
            key_digest: group_key.map(digest),
            rho: session.rho(),
            num_nack: live.server.controller().num_nack,
            bandwidth_overhead: session.bandwidth_overhead(),
        };
        let check = check_schedule(
            &schedule,
            artifacts.msg_seq,
            &mut agents,
            &mut leaver,
            tree,
            group_key,
        );
        Step {
            gen_ns: (t1 - t0).as_nanos() as u64,
            interval_ns: (t3 - t2).as_nanos() as u64,
            out,
            check,
        }
    }

    fn replay_setup(seed: u64) -> Replay {
        // As `KeyServer::bootstrap`.
        let opts = options();
        let mut keygen = KeyGen::from_seed(opts.keygen_seed);
        let tree = KeyTree::balanced(N, DEGREE, &mut keygen);
        Replay {
            tree,
            keygen,
            scratch: MarkScratch::new(),
            controller: ServerController::new(opts.protocol),
            layout: opts.protocol.layout,
            msg_seq: 0,
            last_outcome: None,
            churn: Churn::new(seed, N, JOINS, LEAVES),
        }
    }

    fn replay_step(r: &mut Replay, tr: &mut Tracer, c: &mut Counts) -> IntervalOut {
        let keygen = &mut r.keygen;
        let batch = r.churn.next_batch(|id| (id, keygen.next_key()));
        tr.begin_interval();
        r.msg_seq += 1;
        let msg_seq = r.msg_seq;
        let (tree, keygen, scratch) = (&mut r.tree, &mut r.keygen, &mut r.scratch);
        let outcome = tr.call(Layer::KeytreeMark, || {
            tree.process_batch_compacting_in(batch, keygen, scratch, &CompactionPolicy::DISABLED)
        });
        let (tree, layout) = (&r.tree, &r.layout);
        let assignment = tr
            .call(Layer::Uka, || {
                UkaAssignment::build(tree, &outcome, msg_seq, layout)
            })
            .expect("marking outcome seals against its own tree");
        let usr_hint = layout.usr_packet_len(tree.height() as usize + 1);
        let controller = &r.controller;
        let mut session = tr.call(Layer::ServerBegin, || {
            controller.begin_message(assignment.packets.clone(), usr_hint)
        });
        c.mark_encryptions += outcome.encryptions.len() as u64;
        r.last_outcome = Some(Arc::new(outcome));
        let schedule = tr.call(Layer::ServerStart, || session.start());
        tr.end_interval();

        c.uka_keys_sealed += assignment.stats.distinct_encryptions as u64;
        c.uka_duplication += assignment.stats.duplication_overhead();
        c.parity_round1 += session.stats.parity_multicast as u64;
        drop(schedule);
        IntervalOut {
            enc_packets: session.real_enc_count(),
            nacks_round1: 0,
            rounds_histogram: Vec::new(),
            usr_packets: 0,
            usr_bytes: 0,
            key_digest: r.tree.group_key().map(digest),
            rho: session.rho(),
            num_nack: r.controller.num_nack,
            bandwidth_overhead: session.bandwidth_overhead(),
        }
    }

    fn notes() -> &'static [&'static str] {
        &[
            "the 16-bit wire IDs cap byte-faithful workloads at N=2^14 for d=4 when J<=L; N=16384 is the largest full group that fits",
            "slower and less steady at 2 workers than at 1: the cost of fanning out to taskpool workers is measured, not pinned away",
        ]
    }
}

/// Each sampled member applies the ENC packet that serves its new ID and
/// must hold the new group key; the leaver applies every ENC packet and
/// must not (forward secrecy).
fn check_schedule(
    schedule: &[Packet],
    msg_seq: u64,
    agents: &mut [UserAgent],
    leaver: &mut UserAgent,
    tree: &KeyTree,
    group_key: Option<wirecrypto::SymKey>,
) -> Result<(), String> {
    let encs = || {
        schedule.iter().filter_map(|p| match p {
            Packet::Enc(e) => Some(e),
            _ => None,
        })
    };
    for agent in agents.iter_mut() {
        let m = agent.member();
        let uid = tree
            .node_of_member(m)
            .ok_or(format!("msg {msg_seq}: member {m} left the tree"))?;
        let pkt = encs()
            .find(|e| e.serves(uid as u16))
            .ok_or(format!("msg {msg_seq}: no ENC packet serves member {m}"))?;
        agent
            .apply_enc(pkt, msg_seq)
            .map_err(|e| format!("msg {msg_seq}: member {m}: {e}"))?;
        if agent.group_key() != group_key {
            return Err(format!(
                "msg {msg_seq}: member {m} missed the new group key"
            ));
        }
    }
    for pkt in encs() {
        let _ = leaver.apply_enc(pkt, msg_seq);
    }
    if leaver.group_key() == group_key {
        return Err(format!(
            "msg {msg_seq}: departed member {} recovered the new group key",
            leaver.member()
        ));
    }
    Ok(())
}
