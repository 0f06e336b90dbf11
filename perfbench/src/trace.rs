//! In-memory span recorder for the traced replay.
//!
//! Spans are taken from outside the program: the replays wrap each call
//! into a crate's public functions. A call that takes well under a
//! microsecond (a member parsing one packet, a simulated user receiving
//! one) is not recorded on its own; the calls of one packet fan-out are
//! folded into one record carrying their summed busy time and call count.
//! Every record belongs to one interval span, and the interval's time not
//! covered by any record is the driver's own (`grouprekey.driver.self`).

use std::fmt::Write as _;
use std::time::Instant;

/// The layers a replay attributes time to, named after the crate and the
/// public entry point they wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    KeytreeMark,
    KeytreeBalanced,
    Uka,
    ServerBegin,
    ServerStart,
    ServerEndOfRound,
    ServerAcceptNack,
    ServerFeedback,
    NetMulticast,
    NetUnicast,
    WireEmit,
    WireParse,
    UserNew,
    UserReceive,
    UserEndOfRound,
    AgentApply,
    GroupServerRekey,
    GroupServerUsr,
    SimUsers,
    SimReceive,
    SimEndOfRound,
}

impl Layer {
    pub const ALL: [Layer; 21] = [
        Layer::KeytreeMark,
        Layer::KeytreeBalanced,
        Layer::Uka,
        Layer::ServerBegin,
        Layer::ServerStart,
        Layer::ServerEndOfRound,
        Layer::ServerAcceptNack,
        Layer::ServerFeedback,
        Layer::NetMulticast,
        Layer::NetUnicast,
        Layer::WireEmit,
        Layer::WireParse,
        Layer::UserNew,
        Layer::UserReceive,
        Layer::UserEndOfRound,
        Layer::AgentApply,
        Layer::GroupServerRekey,
        Layer::GroupServerUsr,
        Layer::SimUsers,
        Layer::SimReceive,
        Layer::SimEndOfRound,
    ];

    /// Span name; the per-layer time metric is this name plus `.ms`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::KeytreeMark => "keytree.mark",
            Layer::KeytreeBalanced => "keytree.balanced",
            Layer::Uka => "rekeymsg.uka",
            Layer::ServerBegin => "rekeyproto.server.begin",
            Layer::ServerStart => "rekeyproto.server.start",
            Layer::ServerEndOfRound => "rekeyproto.server.end_of_round",
            Layer::ServerAcceptNack => "rekeyproto.server.accept_nack",
            Layer::ServerFeedback => "rekeyproto.server.feedback",
            Layer::NetMulticast => "netsim.multicast",
            Layer::NetUnicast => "netsim.unicast",
            Layer::WireEmit => "rekeymsg.wire.emit",
            Layer::WireParse => "rekeymsg.wire.parse",
            Layer::UserNew => "rekeyproto.user.new",
            Layer::UserReceive => "rekeyproto.user.receive",
            Layer::UserEndOfRound => "rekeyproto.user.end_of_round",
            Layer::AgentApply => "grouprekey.agent.apply",
            Layer::GroupServerRekey => "grouprekey.server.rekey",
            Layer::GroupServerUsr => "grouprekey.server.usr_packet",
            Layer::SimUsers => "grouprekey.sim.users",
            Layer::SimReceive => "grouprekey.sim.receive",
            Layer::SimEndOfRound => "grouprekey.sim.end_of_round",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A monotonic clock in nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn now(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One recorded span. A plain call has `calls == 1` and `busy_ns ==
/// end_ns - start_ns`; a folded fan-out spans the whole loop and carries
/// the summed time of its calls.
#[derive(Debug, Clone, Copy)]
struct Record {
    layer: Layer,
    interval: u32,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
    calls: u32,
}

/// Folds the sub-microsecond calls of one loop into a single record.
pub struct Fold {
    layer: Layer,
    start_ns: u64,
    busy_ns: u64,
    calls: u32,
}

impl Fold {
    /// Times one call into the layer.
    #[inline]
    pub fn time<R>(&mut self, clock: Clock, f: impl FnOnce() -> R) -> R {
        let t0 = clock.now();
        let r = f();
        self.busy_ns += clock.now() - t0;
        self.calls += 1;
        r
    }

    /// Adds one call measured by the caller, for loops that time two
    /// layers back to back from shared clock reads.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.busy_ns += ns;
        self.calls += 1;
    }
}

/// The span store of one traced replay.
pub struct Tracer {
    clock: Clock,
    records: Vec<Record>,
    intervals: Vec<(u64, u64)>,
    open: Option<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            clock: Clock(Instant::now()),
            records: Vec::with_capacity(1 << 16),
            intervals: Vec::new(),
            open: None,
        }
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Opens the span of the next interval ("batch closed").
    pub fn begin_interval(&mut self) {
        assert!(self.open.is_none(), "intervals do not nest");
        self.open = Some(self.clock.now());
    }

    /// Closes the open interval span.
    pub fn end_interval(&mut self) {
        let end = self.clock.now();
        let start = self.open.take().expect("an interval is open");
        self.intervals.push((start, end));
    }

    /// Times one call into `layer` as its own span.
    #[inline]
    pub fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start_ns = self.clock.now();
        let r = f();
        let end_ns = self.clock.now();
        self.push(Record {
            layer,
            interval: self.intervals.len() as u32,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            calls: 1,
        });
        r
    }

    /// Times a whole fan-out loop as one span of `layer`; `f` returns the
    /// number of calls it made, which is passed back.
    pub fn call_n(&mut self, layer: Layer, f: impl FnOnce() -> u32) -> u32 {
        let start_ns = self.clock.now();
        let calls = f();
        let end_ns = self.clock.now();
        if calls > 0 {
            self.push(Record {
                layer,
                interval: self.intervals.len() as u32,
                start_ns,
                end_ns,
                busy_ns: end_ns - start_ns,
                calls,
            });
        }
        calls
    }

    /// Starts folding the calls of one loop into `layer`.
    pub fn fold(&self, layer: Layer) -> Fold {
        Fold {
            layer,
            start_ns: self.clock.now(),
            busy_ns: 0,
            calls: 0,
        }
    }

    /// Closes folds that ran in the same loop; they share its window.
    pub fn close(&mut self, folds: &mut [&mut Fold]) {
        let end_ns = self.clock.now();
        for f in folds.iter_mut() {
            if f.calls > 0 {
                self.push(Record {
                    layer: f.layer,
                    interval: self.intervals.len() as u32,
                    start_ns: f.start_ns,
                    end_ns,
                    busy_ns: f.busy_ns,
                    calls: f.calls,
                });
            }
            f.busy_ns = 0;
            f.calls = 0;
            f.start_ns = end_ns;
        }
    }

    fn push(&mut self, r: Record) {
        debug_assert!(self.open.is_some(), "spans belong to an interval");
        self.records.push(r);
    }

    /// Per-layer busy time and call counts, summed over every interval,
    /// after checking that each interval's spans lie inside it and leave
    /// a non-negative remainder for the driver.
    pub fn summarize(&self) -> Result<Summary, String> {
        let mut busy = [0u64; Layer::ALL.len()];
        let mut calls = [0u64; Layer::ALL.len()];
        let mut child = vec![0u64; self.intervals.len()];
        for r in &self.records {
            let Some(&(lo, hi)) = self.intervals.get(r.interval as usize) else {
                return Err(format!("{} span outside any interval", r.layer.name()));
            };
            if r.start_ns < lo || r.end_ns > hi || r.busy_ns > r.end_ns - r.start_ns {
                return Err(format!(
                    "{} span escapes interval {}",
                    r.layer.name(),
                    r.interval
                ));
            }
            busy[r.layer.index()] += r.busy_ns;
            calls[r.layer.index()] += u64::from(r.calls);
            child[r.interval as usize] += r.busy_ns;
        }
        let mut interval_ns = 0u64;
        let mut driver_ns = 0u64;
        for (i, (&(lo, hi), &c)) in self.intervals.iter().zip(&child).enumerate() {
            let wall = hi - lo;
            if c > wall {
                return Err(format!(
                    "interval {i}: child spans {c} ns exceed the interval's {wall} ns"
                ));
            }
            interval_ns += wall;
            driver_ns += wall - c;
        }
        Ok(Summary {
            intervals: self.intervals.len(),
            busy,
            calls,
            interval_ns,
            driver_ns,
        })
    }

    /// The spans as Chrome trace-event JSON (opens in Perfetto). Folded
    /// records are drawn over their loop window with the busy time in
    /// `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let us = |ns: u64| ns as f64 / 1000.0;
        for (i, &(lo, hi)) in self.intervals.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"interval\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"interval\":{i}}}}},",
                us(lo),
                us(hi - lo)
            );
        }
        for r in &self.records {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"interval\":{},\"calls\":{},\"busy_us\":{}}}}},",
                r.layer.name(),
                us(r.start_ns),
                us(r.end_ns - r.start_ns),
                r.interval,
                r.calls,
                us(r.busy_ns)
            );
        }
        if out.ends_with(",\n") {
            out.truncate(out.len() - 2);
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Summed per-layer totals of one traced replay.
pub struct Summary {
    pub intervals: usize,
    busy: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    pub interval_ns: u64,
    pub driver_ns: u64,
}

impl Summary {
    /// Mean busy milliseconds per interval spent in `layer`.
    pub fn ms(&self, layer: Layer) -> f64 {
        self.per_interval(self.busy[layer.index()]) / 1e6
    }

    /// Mean calls per interval into `layer`.
    pub fn calls(&self, layer: Layer) -> f64 {
        self.per_interval(self.calls[layer.index()])
    }

    pub fn per_interval(&self, total: u64) -> f64 {
        total as f64 / self.intervals.max(1) as f64
    }
}
