//! `figure_sim`: `grouprekey::experiment::ExperimentRun`, the path that
//! regenerates the paper's figures.
//!
//! Every message builds a fresh balanced tree and runs leave-only marking,
//! and members are share counters rather than bytes. The replay below is
//! `ExperimentRun::step` and its transport loop written out against the
//! public functions they call.

use std::collections::HashMap;
use std::time::Instant;

use grouprekey::experiment::{ExperimentParams, ExperimentRun};
use grouprekey::sim::SimUser;
use keytree::{Batch, KeyTree, MemberId, NodeId};
use netsim::Network;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rekeymsg::{NackPacket, Packet, UkaAssignment, UsrPacket};
use rekeyproto::{RoundDecision, ServerController};
use wirecrypto::{KeyGen, SymKey};

use crate::common::IntervalOut;
use crate::trace::{Layer, Tracer};
use crate::workload::{Counts, Step, Workload};

/// The figures' defaults (N=4096, d=4, J=0, L=N/4, adaptive ρ and
/// numNACK, unicast after two rounds) under the benchmark seed.
fn params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::default()
    }
}

pub struct Live {
    run: ExperimentRun,
    members: usize,
}

pub struct Replay {
    p: ExperimentParams,
    net: Network,
    controller: ServerController,
    rng: SmallRng,
    clock: f64,
    msg_seq: u64,
    users: Vec<SimUser>,
    true_blocks: Vec<Option<u8>>,
    by_node: HashMap<NodeId, usize>,
    listeners: Vec<usize>,
    listener_slots: Vec<usize>,
    delivered: Vec<bool>,
    nack: NackPacket,
}

pub struct FigureSim;

impl Workload for FigureSim {
    type Live = Live;
    type Replay = Replay;

    const NAME: &'static str = "figure_sim";
    const HAS_MEMBERS: bool = true;

    fn setup(seed: u64) -> Live {
        let p = params(seed);
        Live {
            run: ExperimentRun::new(p),
            members: p.n as usize - p.leaves.min(p.n as usize) + p.joins,
        }
    }

    fn step(live: &mut Live) -> Step {
        // The batch is drawn inside `step` from the run's seeded stream.
        let t0 = Instant::now();
        let report = live.run.step();
        let t1 = Instant::now();
        let out = IntervalOut::from_report(&report, None);
        let check = if report.unserved_users != 0 {
            Err(format!(
                "msg {}: {} users unserved",
                report.msg_seq, report.unserved_users
            ))
        } else if out.served() != live.members {
            Err(format!(
                "msg {}: rounds histogram counts {} users, {} needed keys",
                report.msg_seq,
                out.served(),
                live.members
            ))
        } else {
            Ok(())
        };
        Step {
            gen_ns: 0,
            interval_ns: (t1 - t0).as_nanos() as u64,
            out,
            check,
        }
    }

    fn replay_setup(seed: u64) -> Replay {
        // As `ExperimentRun::new`.
        let p = params(seed);
        let mut net_cfg = p.net;
        net_cfg.n_users = p.n as usize + p.joins;
        net_cfg.seed = p.seed;
        let mut proto = p.protocol;
        proto.seed = p.seed ^ 0xABCD;
        Replay {
            net: Network::new(net_cfg),
            controller: ServerController::new(proto),
            rng: SmallRng::seed_from_u64(p.seed ^ 0x00C0_FFEE),
            clock: 0.0,
            msg_seq: 0,
            users: Vec::new(),
            true_blocks: Vec::new(),
            by_node: HashMap::new(),
            listeners: Vec::new(),
            listener_slots: Vec::new(),
            delivered: Vec::new(),
            nack: NackPacket {
                msg_id: 0,
                requests: Vec::new(),
            },
            p,
        }
    }

    fn replay_step(r: &mut Replay, tr: &mut Tracer, c: &mut Counts) -> IntervalOut {
        tr.begin_interval();
        let out = r.step(tr, c);
        tr.end_interval();
        out
    }

    fn notes() -> &'static [&'static str] {
        &["rho and numNACK adapt between messages; members are share counters, so member-side byte work does not run here"]
    }
}

impl Replay {
    /// `ExperimentRun::step`, with a span around each call into the crates.
    fn step(&mut self, tr: &mut Tracer, c: &mut Counts) -> IntervalOut {
        self.msg_seq += 1;
        let msg_seq = self.msg_seq;
        let p = self.p;
        let mut kg = KeyGen::from_seed(self.rng.gen());

        // The experiment's batch: a fresh tree, uniform leavers.
        let mut tree = tr.call(Layer::KeytreeBalanced, || {
            KeyTree::balanced(p.n, p.degree, &mut kg)
        });
        let l = p.leaves.min(p.n as usize);
        let mut pool: Vec<MemberId> = (0..p.n).collect();
        for i in 0..l {
            let pick = self.rng.gen_range(i..pool.len());
            pool.swap(i, pick);
        }
        let leaves: Vec<MemberId> = pool[..l].to_vec();
        let joins: Vec<(MemberId, SymKey)> = (0..p.joins as u32)
            .map(|i| (p.n + i, kg.next_key()))
            .collect();
        let batch = Batch::new(joins, leaves);
        let outcome = tr.call(Layer::KeytreeMark, || tree.process_batch(&batch, &mut kg));
        let layout = p.protocol.layout;
        let assignment = tr
            .call(Layer::Uka, || {
                UkaAssignment::build(&tree, &outcome, msg_seq, &layout)
            })
            .expect("marking outcome seals against its own tree");
        let usr_hint = layout.usr_packet_len(tree.height() as usize + 1);
        let num_nack_used = self.controller.num_nack;
        let controller = &self.controller;
        let mut session = tr.call(Layer::ServerBegin, || {
            controller.begin_message(assignment.packets.clone(), usr_hint)
        });
        c.mark_encryptions += outcome.encryptions.len() as u64;
        c.uka_keys_sealed += assignment.stats.distinct_encryptions as u64;
        c.uka_duplication += assignment.stats.duplication_overhead();

        let k = p.protocol.block_size;
        let (users, true_blocks) = (&mut self.users, &mut self.true_blocks);
        tr.call(Layer::SimUsers, || {
            let mut members = tree.member_ids();
            members.sort_unstable();
            users.clear();
            true_blocks.clear();
            for (idx, &m) in members.iter().enumerate() {
                let uid = tree
                    .node_of_member(m)
                    .expect("member listed by its own tree");
                let true_block = assignment.packet_of_user(uid).map(|pi| (pi / k) as u8);
                true_blocks.push(true_block);
                users.push(SimUser::new(idx, uid, k, p.degree, true_block));
            }
        });

        // `run_message_transport_with`.
        let send_interval = self.net.config().send_interval_ms;
        let rtt = 2.0 * self.net.config().one_way_delay_ms;
        self.by_node.clear();
        self.by_node
            .extend(self.users.iter().enumerate().map(|(i, u)| (u.node_id, i)));
        let clk = tr.clock();
        let mut round = 1usize;
        let schedule = tr.call(Layer::ServerStart, || session.start());
        let parity_round1 = session.stats.parity_multicast;
        let mut action = RoundDecision::Multicast(schedule);
        loop {
            match &action {
                RoundDecision::Multicast(schedule) => {
                    for pkt in schedule {
                        self.clock += send_interval;
                        self.listeners.clear();
                        self.listener_slots.clear();
                        for (slot, u) in self.users.iter().enumerate() {
                            if !u.is_satisfied() {
                                self.listeners.push(u.net_index);
                                self.listener_slots.push(slot);
                            }
                        }
                        if self.listeners.is_empty() {
                            break;
                        }
                        let (net, now, listeners, delivered) = (
                            &mut self.net,
                            self.clock,
                            &self.listeners,
                            &mut self.delivered,
                        );
                        tr.call(Layer::NetMulticast, || {
                            net.multicast_to_into(now, listeners, delivered)
                        });
                        c.mc_packets += 1;
                        c.mc_listeners += self.listeners.len() as u64;
                        // `SimUser::receive` takes well under a
                        // microsecond: one span per packet fan-out.
                        let (users, slots, delivered) =
                            (&mut self.users, &self.listener_slots, &self.delivered);
                        let calls = tr.call_n(Layer::SimReceive, || {
                            let mut calls = 0;
                            for (pos, &ok) in delivered.iter().enumerate() {
                                if ok {
                                    users[slots[pos]].receive(pkt, round);
                                    calls += 1;
                                }
                            }
                            calls
                        });
                        c.mc_delivered += u64::from(calls);
                    }
                }
                RoundDecision::Unicast(wave) => {
                    let mut unicast = tr.fold(Layer::NetUnicast);
                    let mut receive = tr.fold(Layer::SimReceive);
                    for node in &wave.targets {
                        let Some(&slot) = self.by_node.get(node) else {
                            continue;
                        };
                        let mut got = false;
                        for _ in 0..wave.duplicates {
                            self.clock += send_interval;
                            let (net, now, idx) =
                                (&mut self.net, self.clock, self.users[slot].net_index);
                            let ok = unicast.time(clk, || net.unicast(now, idx));
                            c.uc_packets += 1;
                            c.uc_delivered += u64::from(ok);
                            got |= ok;
                        }
                        if got {
                            let user = &mut self.users[slot];
                            receive.time(clk, || {
                                let usr = Packet::Usr(UsrPacket {
                                    msg_id: 0,
                                    new_user_id: user.node_id as u16,
                                    sealed: vec![],
                                });
                                user.receive(&usr, round)
                            });
                        }
                    }
                    tr.close(&mut [&mut unicast, &mut receive]);
                }
                RoundDecision::Done => {}
            }
            self.clock += rtt;

            // Round boundary: every unsatisfied user NACKs.
            let mut eor = tr.fold(Layer::SimEndOfRound);
            let mut accept = tr.fold(Layer::ServerAcceptNack);
            for u in self.users.iter_mut() {
                let nack = &mut self.nack;
                if eor.time(clk, || u.end_of_round_into(round, nack)) {
                    c.user_nacks += 1;
                    let (node, nack) = (u.node_id, &self.nack);
                    accept.time(clk, || session.accept_nack(node, nack));
                }
            }
            tr.close(&mut [&mut eor, &mut accept]);

            match tr.call(Layer::ServerEndOfRound, || session.end_of_round()) {
                RoundDecision::Done => break,
                next => {
                    round += 1;
                    action = next;
                }
            }
            if round > p.sim.max_total_rounds {
                break;
            }
        }

        let mut hist = Vec::new();
        let mut missed = 0usize;
        for (u, tb) in self.users.iter().zip(&self.true_blocks) {
            if tb.is_none() {
                continue;
            }
            match u.satisfied_round() {
                Some(r) => {
                    if hist.len() < r {
                        hist.resize(r, 0);
                    }
                    hist[r - 1] += 1;
                    if r > p.sim.deadline_rounds {
                        missed += 1;
                    }
                }
                None => missed += 1,
            }
        }
        let controller = &mut self.controller;
        tr.call(Layer::ServerFeedback, || {
            controller.absorb_feedback(&session, missed)
        });

        c.parity_round1 += parity_round1 as u64;
        c.parity_reactive += (session.stats.parity_multicast - parity_round1) as u64;
        IntervalOut {
            enc_packets: session.real_enc_count(),
            nacks_round1: session.first_round_nack_count(),
            rounds_histogram: hist,
            usr_packets: session.stats.usr_sent,
            usr_bytes: session.stats.usr_bytes,
            key_digest: None,
            rho: session.rho(),
            num_nack: num_nack_used,
            bandwidth_overhead: session.bandwidth_overhead(),
        }
    }
}
