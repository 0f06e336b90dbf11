//! Pieces every workload shares: the seeded batch generator, the
//! per-interval outputs the traced replay must reproduce, and statistics.

use std::collections::VecDeque;

use grouprekey::MessageReport;
use keytree::{Batch, MemberId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wirecrypto::SymKey;

/// The single batch generator of a closed loop: each call closes the next
/// batch of `joins` fresh members and `leaves` members drawn uniformly
/// from the live set.
pub struct Churn {
    rng: SmallRng,
    live: Vec<MemberId>,
    /// IDs of members that left in earlier batches, reused oldest first so
    /// that the member-ID space (and the server's member table) stays
    /// bounded however many intervals a run completes.
    departed: VecDeque<MemberId>,
    next_id: MemberId,
    joins: usize,
    leaves: usize,
}

impl Churn {
    /// A generator over members `0..n`, seeded from the benchmark seed.
    pub fn new(seed: u64, n: u32, joins: usize, leaves: usize) -> Self {
        Churn {
            rng: SmallRng::seed_from_u64(seed ^ 0xC4A2_1B5E_0DD5_EED5),
            live: (0..n).collect(),
            departed: VecDeque::new(),
            next_id: n,
            joins,
            leaves,
        }
    }

    /// Closes the next batch; `admit` hands each joiner its individual key.
    pub fn next_batch(&mut self, mut admit: impl FnMut(MemberId) -> (MemberId, SymKey)) -> Batch {
        let l = self.leaves.min(self.live.len());
        for i in 0..l {
            let pick = self.rng.gen_range(i..self.live.len());
            self.live.swap(i, pick);
        }
        let leaves: Vec<MemberId> = self.live.drain(..l).collect();
        let joins: Vec<(MemberId, SymKey)> = (0..self.joins)
            .map(|_| {
                let id = self.departed.pop_front().unwrap_or_else(|| {
                    self.next_id += 1;
                    self.next_id - 1
                });
                self.live.push(id);
                admit(id)
            })
            .collect();
        self.departed.extend(&leaves);
        Batch::new(joins, leaves)
    }

    /// Members present after the last batch.
    pub fn live(&self) -> &[MemberId] {
        &self.live
    }
}

/// What one interval produced, compared field by field between the
/// program-driven run and the traced replay of the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalOut {
    pub enc_packets: usize,
    pub nacks_round1: usize,
    pub rounds_histogram: Vec<usize>,
    pub usr_packets: usize,
    pub usr_bytes: usize,
    /// Digest of the group key after the interval, where the entry point
    /// exposes it.
    pub key_digest: Option<u64>,
    pub rho: f64,
    pub num_nack: usize,
    pub bandwidth_overhead: f64,
}

impl IntervalOut {
    pub fn from_report(r: &MessageReport, key: Option<SymKey>) -> Self {
        IntervalOut {
            enc_packets: r.enc_packets,
            nacks_round1: r.nacks_round1,
            rounds_histogram: r.rounds_histogram.clone(),
            usr_packets: r.usr_packets,
            usr_bytes: r.usr_bytes,
            key_digest: key.map(digest),
            rho: r.rho,
            num_nack: r.num_nack,
            bandwidth_overhead: r.bandwidth_overhead,
        }
    }

    /// Members that needed keys and received them.
    pub fn served(&self) -> usize {
        self.rounds_histogram.iter().sum()
    }

    /// Members that needed more than `deadline` rounds.
    pub fn missed(&self, deadline: usize) -> usize {
        self.rounds_histogram.iter().skip(deadline).sum()
    }

    pub fn round_sum(&self) -> usize {
        self.rounds_histogram
            .iter()
            .enumerate()
            .map(|(r, &n)| (r + 1) * n)
            .sum()
    }
}

/// FNV-1a over the key bytes: enough to tell two group keys apart.
pub fn digest(key: SymKey) -> u64 {
    key.as_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return f64::NAN;
    }
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
