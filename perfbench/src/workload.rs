//! The interface each workload implements: a program-driven closed-loop
//! step (timed, then checked) and a traced replay of the same interval.

use crate::common::IntervalOut;
use crate::trace::Tracer;

/// One closed-loop step of the program-driven run.
pub struct Step {
    /// Host time to close the batch (generator).
    pub gen_ns: u64,
    /// Host time from batch closed to the interval's end.
    pub interval_ns: u64,
    pub out: IntervalOut,
    /// The correctness checks, run after the timed region.
    pub check: Result<(), String>,
}

/// Work counts the traced replay sums per layer over its intervals.
#[derive(Debug, Default)]
pub struct Counts {
    pub mark_encryptions: u64,
    pub uka_keys_sealed: u64,
    pub uka_duplication: f64,
    pub parity_round1: u64,
    pub parity_reactive: u64,
    pub mc_packets: u64,
    pub mc_listeners: u64,
    pub mc_delivered: u64,
    pub uc_packets: u64,
    pub uc_delivered: u64,
    pub emit_bytes: u64,
    pub parse_failed: u64,
    pub user_nacks: u64,
    pub apply_failed: u64,
    /// Keys the members needed (their encryptions in the message).
    pub keys_needed: u64,
    pub members_keyed: u64,
}

pub trait Workload {
    /// State of the program-driven run.
    type Live;
    /// State of the traced replay.
    type Replay;

    const NAME: &'static str;
    /// Whether members take part (rounds, deadline and unicast metrics).
    const HAS_MEMBERS: bool;

    /// Bootstraps the group, builds the agents and the network, and starts
    /// the generator.
    fn setup(seed: u64) -> Self::Live;
    /// Closes one batch, runs its interval, then checks the outputs.
    fn step(live: &mut Self::Live) -> Step;
    /// The same start state for the traced replay.
    fn replay_setup(seed: u64) -> Self::Replay;
    /// Replays one interval through the crates' public functions, with a
    /// span around each call.
    fn replay_step(replay: &mut Self::Replay, tr: &mut Tracer, c: &mut Counts) -> IntervalOut;
    /// One line of known facts about the workload, printed with the run.
    fn notes() -> &'static [&'static str];
}
