//! Observability-overhead benchmark: emits `BENCH_obs.json`.
//!
//! Answers the question the flight recorder raises: what does recording
//! cost? A key server holding the acceptance cell (N = 2^15, d = 8,
//! J = L = 64 — the largest degree-8 group whose node IDs fit the 16-bit
//! wire format a full `KeyServer::rekey` message needs; N = 2^12 under
//! `--smoke`) runs thousands of rekeys with the recorder off and as many
//! with it on, interleaved build by build so thermal/cache drift hits
//! both sides equally, and compares the median build wall of each side.
//! Each rekey replaces 64 members in place (the departures of one batch
//! are the joiners of the next), so the group stays at the cell's size.
//! A single build is well under a millisecond and much of it is spent
//! spawning scoped `taskpool` workers, so one build — or the minimum of
//! a few short legs — is scheduling noise; the median over thousands is
//! stable to about a percent.
//!
//! Alongside the overhead it cross-checks the recorder's clock against
//! the stopwatch: for each of several single recorder-on rekeys, the
//! duration of the recorded `rekey.batch` span must match the stopwatch
//! wall around the same `KeyServer::rekey` call. `span_vs_wall_pct` is
//! the worst |span − wall| as a percentage of that build's wall; the
//! acceptance bound is ≤ 1%. The recorder's off path is additionally
//! pinned at exactly zero allocations (`off_path_allocs`, counted by the
//! `xcheck_rt::CountingAlloc` global allocator over a span+instant
//! hammer with recording disarmed).
//!
//! Flags: `--smoke` shrinks the cell; `--out PATH` overrides the output
//! path; `--check PATH` validates an existing report (gates: overhead
//! ≤ 5% and span-vs-wall ≤ 1% in full mode, `off_path_allocs == 0`
//! always); `--trace-out PATH` additionally writes the Chrome trace-event
//! JSON of the cross-check rekey with the largest span-vs-wall gap.
//! Measurement requires a build with `--features obs`; `--check` works
//! on any build.

use std::time::Instant;

use grouprekey::{KeyServer, ServerOptions};
use keytree::{Batch, MemberId};
use xcheck_rt::CountingAlloc;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const SCHEMA: &str = "bench_obs/v2";
const WORKERS: usize = 2;
const OVERHEAD_BOUND_PCT: f64 = 5.0;
const SPAN_VS_WALL_BOUND_PCT: f64 = 1.0;

/// The span `KeyServer::rekey` records around one whole batch.
const BATCH_SPAN: &str = "rekey.batch";

#[derive(Clone, Copy)]
struct Cell {
    n: u32,
    d: u32,
    joins: usize,
    leaves: usize,
}

fn acceptance_cell(smoke: bool) -> Cell {
    Cell {
        n: if smoke { 1 << 12 } else { 1 << 15 },
        d: 8,
        joins: 64,
        leaves: 64,
    }
}

/// A key server plus the member bookkeeping that keeps its group at the
/// cell's size: every batch departs `leaves` live members, spread across
/// the ID space from a rotating offset, and admits the previous batch's
/// departures back under fresh individual keys.
struct Group {
    server: KeyServer,
    live: Vec<MemberId>,
    spare: Vec<MemberId>,
    round: usize,
}

impl Group {
    fn new(cell: Cell) -> Self {
        let options = ServerOptions {
            degree: cell.d,
            ..ServerOptions::default()
        };
        Group {
            server: KeyServer::bootstrap(cell.n, options),
            live: (0..cell.n).collect(),
            spare: (cell.n..cell.n + cell.joins as u32).collect(),
            round: 0,
        }
    }

    fn next_batch(&mut self, cell: Cell) -> Batch {
        let stride = (self.live.len() / cell.leaves.max(1)).max(1);
        let offset = self.round % stride;
        self.round += 1;
        let mut leaves = Vec::with_capacity(cell.leaves);
        let mut joins = Vec::with_capacity(cell.joins);
        for i in 0..cell.leaves.min(cell.joins) {
            let slot = offset + i * stride;
            let joiner = self.spare[i];
            leaves.push(self.live[slot]);
            joins.push((joiner, self.server.mint_individual_key()));
            self.spare[i] = self.live[slot];
            self.live[slot] = joiner;
        }
        Batch::new(joins, leaves)
    }

    /// One timed `KeyServer::rekey` (batch built off the clock); returns
    /// the stopwatch wall in nanoseconds. The artifacts are dropped after
    /// the stopwatch stops.
    fn rekey_ns(&mut self, cell: Cell) -> u64 {
        let batch = self.next_batch(cell);
        let start = Instant::now();
        let artifacts = self.server.rekey(batch);
        let wall = start.elapsed().as_nanos() as u64;
        drop(artifacts);
        wall
    }
}

struct Measurement {
    recorder_off_ms: f64,
    recorder_on_ms: f64,
    /// Stopwatch wall of the cross-check rekey with the largest gap.
    wall_ns: u64,
    /// Its recorded `rekey.batch` span duration.
    span_ns: u64,
    /// The largest |span − wall| over the cross-check rekeys, as a
    /// percentage of that rekey's wall.
    span_vs_wall_pct: f64,
    trace: obs::trace::Trace,
}

/// Single recorder-on rekeys run after the timing loop to source the
/// span-versus-stopwatch cross-check.
const XCHECK_REPS: usize = 8;

/// The median of `walls` (nanoseconds), in milliseconds.
fn median_ms(walls: &mut [u64]) -> f64 {
    walls.sort_unstable();
    walls
        .get(walls.len() / 2)
        .map_or(0.0, |&ns| ns as f64 / 1e6)
}

/// `pairs` recorder-off/recorder-on rekey pairs under `WORKERS` taskpool
/// workers, interleaved build by build (alternating which side goes
/// first) so drift in machine speed hits both sides equally; each side
/// reports its median build wall. A single sub-millisecond rekey spends
/// much of its wall spawning scoped workers, whose cost swings with the
/// host's scheduling, so only a median over thousands of builds is
/// stable to a percent. The cross-check then times `XCHECK_REPS` single
/// recorder-on rekeys, each drained on its own so span and stopwatch
/// describe the same build, and keeps the one whose two clocks disagree
/// most.
fn measure(cell: Cell, pairs: usize) -> Measurement {
    let mut group = Group::new(cell);

    taskpool::with_workers(WORKERS, || {
        // Untimed warm-up on both sides: first-touch page faults,
        // span-name interning, and ring claiming all happen here, not on
        // the clock.
        let _ = group.rekey_ns(cell);
        obs::trace::enable(obs::trace::DEFAULT_CAPACITY);
        let _ = group.rekey_ns(cell);
        obs::trace::disable();
        obs::trace::clear();

        let mut off_walls = Vec::with_capacity(pairs);
        let mut on_walls = Vec::with_capacity(pairs);
        for i in 0..pairs {
            for on in [i % 2 == 1, i % 2 == 0] {
                if on {
                    obs::trace::enable(obs::trace::DEFAULT_CAPACITY);
                    on_walls.push(group.rekey_ns(cell));
                    obs::trace::disable();
                    obs::trace::clear();
                } else {
                    off_walls.push(group.rekey_ns(cell));
                }
            }
        }

        let mut worst: Option<(f64, u64, u64, obs::trace::Trace)> = None;
        for _ in 0..XCHECK_REPS {
            obs::trace::enable(obs::trace::DEFAULT_CAPACITY);
            let wall_ns = group.rekey_ns(cell);
            obs::trace::disable();
            let trace = obs::trace::drain();
            obs::trace::clear();
            let spans = trace.span_intervals(BATCH_SPAN);
            let [(begin, end)] = spans[..] else {
                panic!("want exactly one {BATCH_SPAN} span per rekey, got {spans:?}");
            };
            let span_ns = end - begin;
            let gap_pct = 100.0 * span_ns.abs_diff(wall_ns) as f64 / wall_ns.max(1) as f64;
            if worst.as_ref().is_none_or(|(pct, ..)| gap_pct > *pct) {
                worst = Some((gap_pct, wall_ns, span_ns, trace));
            }
        }
        let Some((span_vs_wall_pct, wall_ns, span_ns, trace)) = worst else {
            unreachable!("XCHECK_REPS > 0")
        };
        Measurement {
            recorder_off_ms: median_ms(&mut off_walls),
            recorder_on_ms: median_ms(&mut on_walls),
            wall_ns,
            span_ns,
            span_vs_wall_pct,
            trace,
        }
    })
}

/// Allocations made by the recorder surface — span begin/end pairs plus
/// instants — while recording is disarmed. The contract is exactly zero:
/// a disarmed recorder must be free. Warm-up happens first so one-time
/// interning never pollutes the count.
fn count_off_path_allocs() -> u64 {
    let hammer = |rounds: usize| {
        for _ in 0..rounds {
            let _outer = obs::span("bench.obs.off_path");
            let _inner = obs::span("bench.obs.off_path.inner");
            obs::trace::instant("bench.obs.off_path.mark");
        }
    };
    hammer(8);
    let (allocs, ()) = xcheck_rt::count_in(|| hammer(4096));
    allocs
}

struct Report {
    mode: &'static str,
    cell: Cell,
    pairs: usize,
    measurement: Measurement,
    off_path_allocs: u64,
}

impl Report {
    fn overhead_pct(&self) -> f64 {
        if self.measurement.recorder_off_ms > 0.0 {
            100.0 * (self.measurement.recorder_on_ms - self.measurement.recorder_off_ms)
                / self.measurement.recorder_off_ms
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        let m = &self.measurement;
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{}\",\n  \
             \"cell\": {{\"n\": {}, \"d\": {}, \"joins\": {}, \"leaves\": {}}},\n  \
             \"workers\": {WORKERS},\n  \"pairs\": {},\n  \
             \"recorder_off_ms\": {},\n  \"recorder_on_ms\": {},\n  \"overhead_pct\": {},\n  \
             \"off_path_allocs\": {},\n  \
             \"events\": {},\n  \"tracks\": {},\n  \"dropped\": {},\n  \
             \"wall_ns\": {},\n  \"span_ns\": {},\n  \"span_vs_wall_pct\": {}\n}}\n",
            self.mode,
            self.cell.n,
            self.cell.d,
            self.cell.joins,
            self.cell.leaves,
            self.pairs,
            fmt_f(m.recorder_off_ms),
            fmt_f(m.recorder_on_ms),
            fmt_f(self.overhead_pct()),
            self.off_path_allocs,
            m.trace.events.len(),
            m.trace.tracks.len(),
            m.trace.dropped_total(),
            m.wall_ns,
            m.span_ns,
            fmt_f(m.span_vs_wall_pct),
        )
    }
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

/// Validates a previously emitted `BENCH_obs.json` against the acceptance
/// gates. Returns a list of problems (empty = valid).
fn check_report(text: &str) -> Vec<String> {
    use bench::jsonv::{parse, Value};
    let mut problems = Vec::new();
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![e],
    };
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        problems.push(format!("schema is not {SCHEMA}"));
    }
    let num = |key: &str| doc.get(key).and_then(Value::as_f64);
    let full = doc.get("mode").and_then(Value::as_str) == Some("full");
    match num("off_path_allocs") {
        Some(0.0) => {}
        Some(n) => problems.push(format!("off_path_allocs = {n}, want exactly 0")),
        None => problems.push("missing off_path_allocs".to_string()),
    }
    match num("tracks") {
        Some(t) if t >= WORKERS as f64 => {}
        Some(t) => problems.push(format!("only {t} tracks recorded, want >= {WORKERS}")),
        None => problems.push("missing tracks".to_string()),
    }
    match num("dropped") {
        Some(0.0) => {}
        Some(n) => problems.push(format!("{n} events dropped; rings undersized for the cell")),
        None => problems.push("missing dropped".to_string()),
    }
    // The timing gates bind only in full mode: the smoke cell's sub-ms
    // walls make percentages pure scheduling noise.
    if full {
        match num("overhead_pct") {
            Some(p) if p <= OVERHEAD_BOUND_PCT => {}
            Some(p) => problems.push(format!(
                "recorder overhead {p:.3}% exceeds the {OVERHEAD_BOUND_PCT}% bound"
            )),
            None => problems.push("missing overhead_pct".to_string()),
        }
        match num("span_vs_wall_pct") {
            Some(p) if p <= SPAN_VS_WALL_BOUND_PCT => {}
            Some(p) => problems.push(format!(
                "{BATCH_SPAN} span differs from the stopwatch wall by {p:.3}%, \
                 over the {SPAN_VS_WALL_BOUND_PCT}% bound"
            )),
            None => problems.push("missing span_vs_wall_pct".to_string()),
        }
    }
    problems
}

fn main() {
    xcheck_rt::assert_counting();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = std::env::var("REKEY_QUICK").is_ok_and(|v| v != "0");
    let mut out_path = "BENCH_obs.json".to_string();
    let mut check_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().expect("--out needs a path"),
            "--check" => check_path = Some(it.next().expect("--check needs a path")),
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            other => {
                eprintln!(
                    "unknown flag {other}; use [--smoke] [--out PATH] [--check PATH] \
                     [--trace-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("BENCH check FAILED: cannot read {path}");
            std::process::exit(1);
        };
        let problems = check_report(&text);
        if problems.is_empty() {
            println!("BENCH check ok: {path}");
            return;
        }
        for p in &problems {
            eprintln!("BENCH check FAILED: {p}");
        }
        std::process::exit(1);
    }

    if !obs::enabled() {
        eprintln!(
            "bench_obs measures the flight recorder, which this binary was built without; \
             rebuild with `--features obs`"
        );
        std::process::exit(1);
    }

    let mode = if smoke { "smoke" } else { "full" };
    let pairs = if smoke { 64 } else { 2000 };
    let cell = acceptance_cell(smoke);
    eprintln!(
        "obs overhead: N=2^{} d={} J={} L={} workers={WORKERS} ({mode})",
        cell.n.trailing_zeros(),
        cell.d,
        cell.joins,
        cell.leaves
    );

    let off_path_allocs = count_off_path_allocs();
    let report = Report {
        mode,
        cell,
        pairs,
        off_path_allocs,
        measurement: measure(cell, pairs),
    };

    let m = &report.measurement;
    eprintln!(
        "  recorder off {:>8.3} ms, on {:>8.3} ms ({:+.2}%), {} events on {} tracks, {} dropped",
        m.recorder_off_ms,
        m.recorder_on_ms,
        report.overhead_pct(),
        m.trace.events.len(),
        m.trace.tracks.len(),
        m.trace.dropped_total(),
    );
    eprintln!(
        "  {BATCH_SPAN}: span {} ns vs stopwatch {} ns (worst gap {:.3}% of wall)",
        m.span_ns, m.wall_ns, m.span_vs_wall_pct,
    );
    eprintln!("  off-path allocations over 4096 span+instant rounds: {off_path_allocs}");

    if let Some(path) = &trace_out {
        std::fs::write(path, report.measurement.trace.to_chrome_json()).expect("write trace JSON");
        eprintln!("wrote trace to {path}");
    }
    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    println!("wrote {out_path}");

    // Self-check the fresh report with the same gates `--check` applies,
    // so a regression fails the generating run, not just later CI.
    let problems = check_report(&json);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("FAILED: {p}");
        }
        std::process::exit(1);
    }
}
