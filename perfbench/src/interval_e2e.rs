//! `interval_e2e`: the byte-faithful `grouprekey::driver::Group::rekey`.
//!
//! The replay below is `Group::rekey` written out against the public
//! functions it calls, so that each call can carry a span. It keeps its
//! own server, agents and network built from the same seed, and the run
//! fails if its outputs ever differ from the program's.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use grouprekey::driver::Group;
use grouprekey::{KeyServer, ServerOptions, UserAgent};
use keytree::{Batch, MarkOutcome, MemberId, NodeId};
use netsim::{Network, NetworkConfig};
use rekeymsg::Packet;
use rekeyproto::{RoundDecision, UserOutcome, UserSession};

use crate::common::{digest, Churn, IntervalOut};
use crate::trace::{Layer, Tracer};
use crate::workload::{Counts, Step, Workload};

const N: u32 = 4096;
const DEGREE: u32 = 4;
const JOINS: usize = 64;
const LEAVES: usize = 64;
/// `Group`'s own cap on delivery rounds per message.
const MAX_ROUNDS: usize = 64;

fn options() -> ServerOptions {
    ServerOptions {
        degree: DEGREE,
        ..ServerOptions::default()
    }
}

/// The paper's network (alpha 0.2, p_high 0.20, p_low 0.02, p_source
/// 0.01, bursty loss), its loss draws seeded from the benchmark seed.
fn network(seed: u64) -> NetworkConfig {
    NetworkConfig {
        n_users: N as usize,
        seed,
        ..NetworkConfig::default()
    }
}

pub struct Live {
    group: Group,
    churn: Churn,
}

pub struct Replay {
    server: KeyServer,
    agents: BTreeMap<MemberId, UserAgent>,
    net: Network,
    net_index: BTreeMap<MemberId, usize>,
    free_indices: Vec<usize>,
    clock: f64,
    churn: Churn,
}

pub struct IntervalE2e;

impl Workload for IntervalE2e {
    type Live = Live;
    type Replay = Replay;

    const NAME: &'static str = "interval_e2e";
    const HAS_MEMBERS: bool = true;

    fn setup(seed: u64) -> Live {
        Live {
            group: Group::new(N, options(), network(seed)),
            churn: Churn::new(seed, N, JOINS, LEAVES),
        }
    }

    fn step(live: &mut Live) -> Step {
        let t0 = Instant::now();
        let group = &mut live.group;
        let batch = live.churn.next_batch(|id| group.mint_join(id));
        let t1 = Instant::now();
        let report = group.rekey(batch);
        let t2 = Instant::now();

        let key = group.group_key();
        let out = IntervalOut::from_report(&report, key);
        let check = if !group.all_agents_synchronized() {
            Err(format!(
                "msg {}: a live agent lacks the group key",
                report.msg_seq
            ))
        } else if out.served() != group.agents.len() {
            // Every leave changes the group key, so every live member
            // needs keys and must appear in the rounds histogram.
            Err(format!(
                "msg {}: rounds histogram counts {} members, {} are live",
                report.msg_seq,
                out.served(),
                group.agents.len()
            ))
        } else {
            Ok(())
        };
        Step {
            gen_ns: (t1 - t0).as_nanos() as u64,
            interval_ns: (t2 - t1).as_nanos() as u64,
            out,
            check,
        }
    }

    fn replay_setup(seed: u64) -> Replay {
        // As `Group::new`.
        let opts = options();
        let server = KeyServer::bootstrap(N, opts);
        let net_cfg = network(seed);
        let net = Network::new(net_cfg);
        let mut agents = BTreeMap::new();
        let mut net_index = BTreeMap::new();
        for m in 0..N {
            let tree = server.tree();
            let node = tree.node_of_member(m).expect("bootstrap member has a node");
            let path = tree
                .keys_for_member(m)
                .expect("bootstrap member has a path");
            let individual = path[0].1;
            agents.insert(m, UserAgent::with_path(m, node, individual, DEGREE, path));
            net_index.insert(m, m as usize);
        }
        Replay {
            server,
            agents,
            net,
            net_index,
            free_indices: (N as usize..net_cfg.n_users).rev().collect(),
            clock: 0.0,
            churn: Churn::new(seed, N, JOINS, LEAVES),
        }
    }

    fn replay_step(r: &mut Replay, tr: &mut Tracer, c: &mut Counts) -> IntervalOut {
        let server = &mut r.server;
        let batch = r.churn.next_batch(|id| (id, server.mint_individual_key()));
        tr.begin_interval();
        let (mut out, outcome) = r.rekey(batch, tr, c);
        tr.end_interval();

        out.key_digest = r.server.tree().group_key().map(digest);
        for (&m, agent) in &r.agents {
            let node = r.server.tree().node_of_member(m).unwrap_or(agent.node_id());
            c.keys_needed += outcome.encryptions_for_user(node, DEGREE).len() as u64;
            c.members_keyed += 1;
        }
        out
    }

    fn notes() -> &'static [&'static str] {
        &[
            "Group::rekey never calls absorb_feedback, so rho stays 1.0 and numNACK 20 throughout; rho is reported per interval so a fix shows",
            "the 16-bit wire IDs cap byte-faithful workloads at N=2^14 for d=4 when J<=L",
        ]
    }
}

impl Replay {
    /// `Group::rekey`, with a span around each call into the crates.
    fn rekey(
        &mut self,
        batch: Batch,
        tr: &mut Tracer,
        c: &mut Counts,
    ) -> (IntervalOut, Arc<MarkOutcome>) {
        let clk = tr.clock();
        let mut old_ids: BTreeMap<MemberId, NodeId> = self
            .agents
            .keys()
            .map(|&m| (m, self.agents[&m].node_id()))
            .collect();
        let joins = batch.joins.clone();
        let leaves = batch.leaves.clone();

        let server = &mut self.server;
        let mut artifacts = tr.call(Layer::GroupServerRekey, || server.rekey(batch));
        let msg_seq = artifacts.msg_seq;
        let layout = artifacts.session.blocks().layout();
        c.mark_encryptions += artifacts.outcome.encryptions.len() as u64;
        c.uka_keys_sealed += artifacts.assignment.stats.distinct_encryptions as u64;
        c.uka_duplication += artifacts.assignment.stats.duplication_overhead();

        for rl in &artifacts.outcome.relocations {
            if let Some(agent) = self.agents.get_mut(&rl.member) {
                agent.accept_relocation(rl.new_id);
            }
            old_ids.insert(rl.member, rl.new_id);
        }
        for m in &leaves {
            self.agents.remove(m);
            if let Some(idx) = self.net_index.remove(m) {
                self.free_indices.push(idx);
            }
        }
        for (m, key) in &joins {
            let node = self
                .server
                .tree()
                .node_of_member(*m)
                .expect("joined member placed by the batch");
            self.agents
                .insert(*m, UserAgent::new(*m, node, *key, DEGREE));
            let idx = self
                .free_indices
                .pop()
                .expect("network has a free receiver link for the joiner");
            self.net_index.insert(*m, idx);
        }

        let k = self.server.controller().config().block_size;
        let mut new_fold = tr.fold(Layer::UserNew);
        let tree = self.server.tree();
        let mut sessions: BTreeMap<MemberId, UserSession> = self
            .agents
            .keys()
            .map(|&m| {
                let old = old_ids
                    .get(&m)
                    .copied()
                    .unwrap_or_else(|| tree.node_of_member(m).expect("joiner has a node"));
                let session = new_fold.time(clk, || {
                    UserSession::new(old, DEGREE, k, layout).expect_msg_id((msg_seq & 0x3f) as u8)
                });
                (m, session)
            })
            .collect();
        tr.close(&mut [&mut new_fold]);
        let member_of_node: BTreeMap<NodeId, MemberId> = self
            .agents
            .keys()
            .map(|&m| {
                let node = tree.node_of_member(m).expect("live member has a node");
                (node, m)
            })
            .collect();

        let send_interval = self.net.config().send_interval_ms;
        let rtt = 2.0 * self.net.config().one_way_delay_ms;
        let mut round = 1usize;
        let schedule = tr.call(Layer::ServerStart, || artifacts.session.start());
        let parity_round1 = artifacts.session.stats.parity_multicast;
        let mut action = RoundDecision::Multicast(schedule);
        let mut members: Vec<MemberId> = Vec::new();
        let mut listeners: Vec<usize> = Vec::new();
        let mut delivered: Vec<bool> = Vec::new();

        loop {
            match &action {
                RoundDecision::Multicast(schedule) => {
                    for pkt in schedule {
                        self.clock += send_interval;
                        let bytes = tr.call(Layer::WireEmit, || pkt.emit(&layout));
                        c.emit_bytes += bytes.len() as u64;
                        members.clear();
                        members.extend(
                            sessions
                                .iter()
                                .filter(|(_, s)| !s.is_satisfied())
                                .map(|(&m, _)| m),
                        );
                        listeners.clear();
                        listeners.extend(members.iter().map(|m| self.net_index[m]));
                        if listeners.is_empty() {
                            break;
                        }
                        let (net, now) = (&mut self.net, self.clock);
                        tr.call(Layer::NetMulticast, || {
                            net.multicast_to_into(now, &listeners, &mut delivered)
                        });
                        c.mc_packets += 1;
                        c.mc_listeners += listeners.len() as u64;
                        let mut parse = tr.fold(Layer::WireParse);
                        let mut receive = tr.fold(Layer::UserReceive);
                        for (pos, &ok) in delivered.iter().enumerate() {
                            if ok {
                                c.mc_delivered += 1;
                                let s = sessions.get_mut(&members[pos]).expect("member session");
                                // Three clock reads time both calls.
                                let t0 = clk.now();
                                let parsed = Packet::parse(&bytes, &layout);
                                let t1 = clk.now();
                                parse.add(t1 - t0);
                                let Ok(parsed) = parsed else {
                                    c.parse_failed += 1;
                                    continue;
                                };
                                s.receive(&parsed);
                                receive.add(clk.now() - t1);
                            }
                        }
                        tr.close(&mut [&mut parse, &mut receive]);
                    }
                }
                RoundDecision::Unicast(wave) => {
                    for node in &wave.targets {
                        let Some(&m) = member_of_node.get(node) else {
                            continue;
                        };
                        let server = &self.server;
                        let usr = tr
                            .call(Layer::GroupServerUsr, || server.usr_packet(m))
                            .expect("usr packet for live member");
                        let bytes = tr.call(Layer::WireEmit, || Packet::Usr(usr).emit(&layout));
                        c.emit_bytes += bytes.len() as u64;
                        for _ in 0..wave.duplicates {
                            self.clock += send_interval;
                            let (net, now, idx) = (&mut self.net, self.clock, self.net_index[&m]);
                            let ok = tr.call(Layer::NetUnicast, || net.unicast(now, idx));
                            c.uc_packets += 1;
                            if ok {
                                c.uc_delivered += 1;
                                let Ok(parsed) =
                                    tr.call(Layer::WireParse, || Packet::parse(&bytes, &layout))
                                else {
                                    c.parse_failed += 1;
                                    continue;
                                };
                                let s = sessions.get_mut(&m).expect("member session");
                                tr.call(Layer::UserReceive, || s.receive(&parsed));
                            }
                        }
                    }
                }
                RoundDecision::Done => {}
            }
            self.clock += rtt;

            // Round boundary: NACKs over the (lossless) reverse path.
            let mut boundary: Vec<MemberId> = sessions.keys().copied().collect();
            boundary.sort_unstable();
            let mut eor = tr.fold(Layer::UserEndOfRound);
            let mut emit = tr.fold(Layer::WireEmit);
            let mut parse = tr.fold(Layer::WireParse);
            let mut accept = tr.fold(Layer::ServerAcceptNack);
            for m in boundary {
                let s = sessions.get_mut(&m).expect("member session");
                if let Some(nack) = eor.time(clk, || s.end_of_round()) {
                    c.user_nacks += 1;
                    let bytes = emit.time(clk, || Packet::Nack(nack).emit(&layout));
                    c.emit_bytes += bytes.len() as u64;
                    let Ok(Packet::Nack(parsed)) =
                        parse.time(clk, || Packet::parse(&bytes, &layout))
                    else {
                        c.parse_failed += 1;
                        continue;
                    };
                    let node = self
                        .server
                        .tree()
                        .node_of_member(m)
                        .expect("NACKing member has a node");
                    let session = &mut artifacts.session;
                    accept.time(clk, || session.accept_nack(node, &parsed));
                }
            }
            tr.close(&mut [&mut eor, &mut emit, &mut parse, &mut accept]);

            action = tr.call(Layer::ServerEndOfRound, || artifacts.session.end_of_round());
            if matches!(action, RoundDecision::Done) {
                break;
            }
            round += 1;
            assert!(
                round <= MAX_ROUNDS,
                "delivery did not complete within {MAX_ROUNDS} rounds"
            );
        }

        let mut hist: Vec<usize> = Vec::new();
        let mut apply = tr.fold(Layer::AgentApply);
        for (m, s) in &sessions {
            let agent = self.agents.get_mut(m).expect("live member has an agent");
            let applied = match s.outcome() {
                UserOutcome::Enc(pkt) => apply.time(clk, || agent.apply_enc(pkt, msg_seq)),
                UserOutcome::Usr(pkt) => apply.time(clk, || agent.apply_usr(pkt, msg_seq)),
                UserOutcome::Pending => Ok(()),
            };
            if applied.is_err() {
                c.apply_failed += 1;
            }
            if let Some(r) = s.rounds_to_success() {
                if hist.len() < r {
                    hist.resize(r, 0);
                }
                hist[r - 1] += 1;
            }
        }
        tr.close(&mut [&mut apply]);

        let session = &artifacts.session;
        c.parity_round1 += parity_round1 as u64;
        c.parity_reactive += (session.stats.parity_multicast - parity_round1) as u64;
        let out = IntervalOut {
            enc_packets: session.real_enc_count(),
            nacks_round1: session.first_round_nack_count(),
            rounds_histogram: hist,
            usr_packets: session.stats.usr_sent,
            usr_bytes: session.stats.usr_bytes,
            key_digest: None,
            rho: session.rho(),
            num_nack: self.server.controller().num_nack,
            bandwidth_overhead: session.bandwidth_overhead(),
        };
        (out, Arc::clone(&artifacts.outcome))
    }
}
