//! Benchmark of one rekey interval.
//!
//! ```text
//! perfbench --workload <interval_e2e|server_batch|figure_sim> --seed N
//!           --seconds S --trace <0|1> [--trace-out PATH]
//! ```
//!
//! Each workload drives the program through its public entry points in one
//! process and a closed loop: a single generator closes the next batch only
//! when the previous interval has finished, and taskpool runs at its
//! default worker count. With `--trace 0` the run is untraced and reports
//! the end-to-end metrics. With `--trace 1` a program-driven run is
//! followed by a traced replay of the same intervals through each crate's
//! public functions; the replay must reproduce the run's outputs exactly,
//! and it reports the per-layer metrics. The last line of standard output
//! is the result as one JSON object.

mod common;
mod figure_sim;
mod interval_e2e;
mod server_batch;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{mean, peak_rss_mb, quantile, IntervalOut};
use trace::{Layer, Summary, Tracer};
use workload::{Counts, Step, Workload};

/// Rounds within which a member should hold its keys (the paper's soft
/// real-time deadline, `SimConfig::default().deadline_rounds`).
const DEADLINE_ROUNDS: usize = 2;
/// Intervals per timing window; a window's p90 has ten samples beyond it.
const WINDOW: usize = 100;
/// Fewest intervals an untraced run measures. The simulated-protocol
/// metrics are taken over exactly this many leading intervals, so they
/// are exact for a seed.
const MIN_INTERVALS: usize = WINDOW;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 51;
/// Fewest intervals a traced run replays.
const MIN_TRACED: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
    })
}

/// A metric as printed: name, value, unit.
struct Metric(&'static str, f64, &'static str);

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, Metric(name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "interval_e2e" => run::<interval_e2e::IntervalE2e>(&args),
        "server_batch" => run::<server_batch::ServerBatch>(&args),
        "figure_sim" => run::<figure_sim::FigureSim>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        if !m.1.is_finite() {
            eprintln!("perfbench: metric {} is not a number", m.0);
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

fn print_environment<W: Workload>(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# workload {} seed {} seconds {} trace {}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# env nproc {nproc}");
    println!(
        "# env taskpool workers {} ({})",
        taskpool::max_workers(),
        if std::env::var_os("REKEY_THREADS").is_some() {
            "REKEY_THREADS is set: NOT the shipped default"
        } else {
            "shipped default, available_parallelism"
        }
    );
    println!(
        "# env compiled target features avx2={} fma={} bmi2={} (x86-64-v3 when all are on)",
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
        cfg!(target_feature = "bmi2")
    );
    println!("# env network simulated by netsim, no real link");
    println!("# env load closed loop, one batch generator: the next batch closes when the previous interval ends");
    for note in W::notes() {
        println!("# note {note}");
    }
}

fn run<W: Workload>(args: &Args) -> Outcome {
    print_environment::<W>(args);

    // Set up several times; report the median and keep the last.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let t = Instant::now();
        live = Some(W::setup(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");
    let setup_s = quantile(&mut setup_s, 0.5);

    if args.trace {
        traced::<W>(args, &mut live)
    } else {
        untraced::<W>(args, &mut live, setup_s)
    }
}

/// Runs the closed loop until `budget` has passed and at least `min`
/// intervals are done. Also returns the peak resident set after set-up
/// and the first `min` intervals: a fixed amount of work, so the figure
/// does not depend on how many intervals the budget allowed.
fn closed_loop<W: Workload>(live: &mut W::Live, budget: Duration, min: usize) -> (Vec<Step>, f64) {
    let start = Instant::now();
    let mut steps = Vec::new();
    let mut rss_mb = f64::NAN;
    while steps.len() < min || start.elapsed() < budget {
        steps.push(W::step(live));
        if steps.len() == min {
            rss_mb = peak_rss_mb();
        }
    }
    (steps, rss_mb)
}

fn failures(steps: &[Step]) -> usize {
    let mut failed = 0;
    for s in steps {
        if let Err(e) = &s.check {
            failed += 1;
            if failed <= 3 {
                eprintln!("perfbench: check failed: {e}");
            }
        }
    }
    failed
}

/// Delivery metrics over `outs`: mean rounds per member, share of members
/// past the deadline, unicast bytes per interval.
fn delivery(outs: &[&IntervalOut]) -> (f64, f64, f64) {
    let served: usize = outs.iter().map(|o| o.served()).sum();
    let rounds: usize = outs.iter().map(|o| o.round_sum()).sum();
    let missed: usize = outs.iter().map(|o| o.missed(DEADLINE_ROUNDS)).sum();
    let per = served.max(1) as f64;
    (
        rounds as f64 / per,
        missed as f64 / per,
        mean(outs.iter().map(|o| o.usr_bytes as f64)),
    )
}

fn untraced<W: Workload>(args: &Args, live: &mut W::Live, setup_s: f64) -> Outcome {
    let (steps, rss_mb) =
        closed_loop::<W>(live, Duration::from_secs_f64(args.seconds), MIN_INTERVALS);
    let failed = failures(&steps);
    let ms = |w: &[Step]| -> Vec<f64> { w.iter().map(|s| s.interval_ns as f64 / 1e6).collect() };
    // The tail and the rate are medians over windows of consecutive
    // intervals, so a burst of load from outside the process moves only
    // the windows it falls in.
    let windows: Vec<&[Step]> = steps.chunks_exact(WINDOW).collect();
    let p90 = window_median(&windows, |w| quantile(&mut ms(w), 0.9));
    let per_s = window_median(&windows, |w| {
        let busy_ns: u64 = w.iter().map(|s| s.gen_ns + s.interval_ns).sum();
        w.len() as f64 * 1e9 / busy_ns as f64
    });
    // The simulated-protocol metrics cover exactly the leading intervals
    // every run completes, so they are exact for a seed.
    let lead: Vec<&IntervalOut> = steps.iter().take(MIN_INTERVALS).map(|s| &s.out).collect();

    let metrics = vec![
        Metric("interval_ms.p50", quantile(&mut ms(&steps), 0.5), "ms"),
        Metric("interval_ms.p90", p90, "ms"),
        Metric("intervals_per_s", per_s, "1/s"),
        Metric("setup_s", setup_s, "s"),
        Metric("peak_rss_mb", rss_mb, "MiB"),
        Metric(
            "bandwidth_overhead",
            mean(lead.iter().map(|o| o.bandwidth_overhead)),
            "ratio",
        ),
        Metric(
            "enc_packets_per_interval",
            mean(lead.iter().map(|o| o.enc_packets as f64)),
            "count",
        ),
    ];
    for Metric(name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    println!(
        "intervals {} in {} windows of {WINDOW}; protocol metrics over the first {}",
        steps.len(),
        windows.len(),
        lead.len()
    );
    println!("failed_frac {} ratio", failed as f64 / steps.len() as f64);
    if W::HAS_MEMBERS {
        let (rounds, miss, usr) = delivery(&lead);
        println!("user_rounds.mean {rounds} rounds");
        println!("deadline_miss_frac {miss} ratio");
        println!("usr_bytes_per_interval {usr} bytes");
    }
    println!("rho per interval {}", runs(lead.iter().map(|o| o.rho)));
    Outcome {
        attempted: steps.len(),
        failed,
        metrics,
    }
}

/// The median over `windows` of `f` applied to each window.
fn window_median(windows: &[&[Step]], f: impl Fn(&[Step]) -> f64) -> f64 {
    let mut v: Vec<f64> = windows.iter().map(|w| f(w)).collect();
    quantile(&mut v, 0.5)
}

/// `v v v w` as `v x3, w x1`, so a constant series stays one item.
fn runs(values: impl Iterator<Item = f64>) -> String {
    let mut out: Vec<(f64, usize)> = Vec::new();
    for v in values {
        match out.last_mut() {
            Some((last, n)) if *last == v => *n += 1,
            _ => out.push((v, 1)),
        }
    }
    out.iter()
        .map(|(v, n)| format!("{v:.3} x{n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn traced<W: Workload>(args: &Args, live: &mut W::Live) -> Outcome {
    // The program-driven run first, untraced, on half the time.
    let (steps, _) = closed_loop::<W>(
        live,
        Duration::from_secs_f64(args.seconds / 2.0),
        MIN_TRACED,
    );
    let mut failed = failures(&steps);
    let n = steps.len();
    let untraced_ms = mean(steps.iter().map(|s| s.interval_ns as f64 / 1e6));

    // Then the traced replay of the same intervals from the same seed.
    let mut replay = W::replay_setup(args.seed);
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut outs = Vec::with_capacity(n);
    for (i, step) in steps.iter().enumerate() {
        let out = W::replay_step(&mut replay, &mut tr, &mut counts);
        if out != step.out {
            failed += 1;
            if failed <= 3 {
                eprintln!(
                    "perfbench: traced replay differs at interval {i}:\n  run    {:?}\n  replay {out:?}",
                    step.out
                );
            }
        }
        outs.push(out);
    }
    if counts.parse_failed + counts.apply_failed > 0 {
        eprintln!(
            "perfbench: traced replay saw {} parse and {} apply failures",
            counts.parse_failed, counts.apply_failed
        );
        failed += 1;
    }
    let summary = match tr.summarize() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: span check failed: {e}");
            return Outcome {
                attempted: n,
                failed: (failed + 1).min(n),
                metrics: Vec::new(),
            };
        }
    };
    if let Some(path) = &args.trace_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, tr.chrome_json()));
        match written {
            Ok(()) => println!("# trace spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    let metrics = layer_metrics::<W>(&summary, &counts, &outs, untraced_ms);
    let layers_ms: f64 = Layer::ALL.iter().map(|&l| summary.ms(l)).sum();
    let driver_ms = summary.per_interval(summary.driver_ns) / 1e6;
    let traced_ms = summary.per_interval(summary.interval_ns) / 1e6;
    println!(
        "# layer self-times {layers_ms} ms + grouprekey.driver.self {driver_ms} ms = {} ms; traced interval {traced_ms} ms; untraced {untraced_ms} ms",
        layers_ms + driver_ms
    );
    if ((layers_ms + driver_ms) - traced_ms).abs() > 1e-6 * traced_ms.max(1.0) {
        eprintln!("perfbench: layer self-times do not add up to the traced interval");
        failed += 1;
    }
    for Metric(name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    // Run-level failures (spans, sums) count against the replay as a
    // whole; `failed` never exceeds the intervals attempted.
    Outcome {
        attempted: n,
        failed: failed.min(n),
        metrics,
    }
}

/// Every per-layer metric, as a mean per interval. Layers a workload does
/// not exercise read 0.
fn layer_metrics<W: Workload>(
    s: &Summary,
    c: &Counts,
    outs: &[IntervalOut],
    untraced_ms: f64,
) -> Vec<Metric> {
    let per = |v: u64| s.per_interval(v);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let traced_ms = s.per_interval(s.interval_ns) / 1e6;
    let refs: Vec<&IntervalOut> = outs.iter().collect();
    let (rounds, miss, usr) = if W::HAS_MEMBERS {
        delivery(&refs)
    } else {
        (0.0, 0.0, 0.0)
    };
    vec![
        Metric("keytree.mark.ms", s.ms(Layer::KeytreeMark), "ms"),
        Metric("keytree.mark.encryptions", per(c.mark_encryptions), "count"),
        Metric("keytree.balanced.ms", s.ms(Layer::KeytreeBalanced), "ms"),
        Metric("rekeymsg.uka.ms", s.ms(Layer::Uka), "ms"),
        Metric("rekeymsg.uka.keys_sealed", per(c.uka_keys_sealed), "count"),
        Metric(
            "rekeymsg.uka.duplication",
            c.uka_duplication / s.intervals.max(1) as f64,
            "ratio",
        ),
        Metric("rekeyproto.server.begin.ms", s.ms(Layer::ServerBegin), "ms"),
        Metric("rekeyproto.server.start.ms", s.ms(Layer::ServerStart), "ms"),
        Metric(
            "rekeyproto.server.end_of_round.ms",
            s.ms(Layer::ServerEndOfRound),
            "ms",
        ),
        Metric(
            "rekeyproto.server.accept_nack.ms",
            s.ms(Layer::ServerAcceptNack),
            "ms",
        ),
        Metric(
            "rekeyproto.server.accept_nack.calls",
            s.calls(Layer::ServerAcceptNack),
            "count",
        ),
        Metric(
            "rekeyproto.server.feedback.ms",
            s.ms(Layer::ServerFeedback),
            "ms",
        ),
        Metric(
            "rekeyproto.server.rho",
            mean(outs.iter().map(|o| o.rho)),
            "ratio",
        ),
        Metric("rse.parity.round1", per(c.parity_round1), "count"),
        Metric("rse.parity.reactive", per(c.parity_reactive), "count"),
        Metric("netsim.multicast.ms", s.ms(Layer::NetMulticast), "ms"),
        Metric("netsim.multicast.packets", per(c.mc_packets), "count"),
        Metric(
            "netsim.multicast.delivered_ratio",
            ratio(c.mc_delivered, c.mc_listeners),
            "ratio",
        ),
        Metric("netsim.unicast.ms", s.ms(Layer::NetUnicast), "ms"),
        Metric("netsim.unicast.packets", per(c.uc_packets), "count"),
        Metric(
            "netsim.unicast.delivered_ratio",
            ratio(c.uc_delivered, c.uc_packets),
            "ratio",
        ),
        Metric("rekeymsg.wire.emit.ms", s.ms(Layer::WireEmit), "ms"),
        Metric("rekeymsg.wire.emit.bytes", per(c.emit_bytes), "bytes"),
        Metric("rekeymsg.wire.parse.ms", s.ms(Layer::WireParse), "ms"),
        Metric(
            "rekeymsg.wire.parse.packets",
            s.calls(Layer::WireParse),
            "count",
        ),
        Metric("rekeymsg.wire.parse.failed", per(c.parse_failed), "count"),
        Metric("rekeyproto.user.new.ms", s.ms(Layer::UserNew), "ms"),
        Metric("rekeyproto.user.receive.ms", s.ms(Layer::UserReceive), "ms"),
        Metric(
            "rekeyproto.user.receive.calls",
            s.calls(Layer::UserReceive),
            "count",
        ),
        Metric(
            "rekeyproto.user.end_of_round.ms",
            s.ms(Layer::UserEndOfRound),
            "ms",
        ),
        Metric("rekeyproto.user.nacks", per(c.user_nacks), "count"),
        Metric("grouprekey.agent.apply.ms", s.ms(Layer::AgentApply), "ms"),
        Metric(
            "grouprekey.agent.apply.calls",
            s.calls(Layer::AgentApply),
            "count",
        ),
        Metric(
            "grouprekey.agent.apply.failed",
            per(c.apply_failed),
            "count",
        ),
        Metric(
            "grouprekey.agent.keys_per_member",
            ratio(c.keys_needed, c.members_keyed),
            "keys",
        ),
        Metric(
            "grouprekey.server.rekey.ms",
            s.ms(Layer::GroupServerRekey),
            "ms",
        ),
        Metric(
            "grouprekey.server.usr_packet.ms",
            s.ms(Layer::GroupServerUsr),
            "ms",
        ),
        Metric(
            "grouprekey.server.usr_packet.calls",
            s.calls(Layer::GroupServerUsr),
            "count",
        ),
        Metric("grouprekey.sim.users.ms", s.ms(Layer::SimUsers), "ms"),
        Metric("grouprekey.sim.receive.ms", s.ms(Layer::SimReceive), "ms"),
        Metric(
            "grouprekey.sim.end_of_round.ms",
            s.ms(Layer::SimEndOfRound),
            "ms",
        ),
        Metric(
            "grouprekey.driver.self.ms",
            s.per_interval(s.driver_ns) / 1e6,
            "ms",
        ),
        Metric("trace.interval.ms", traced_ms, "ms"),
        Metric(
            "trace.overhead_pct",
            (traced_ms / untraced_ms - 1.0) * 100.0,
            "%",
        ),
        Metric("user_rounds.mean", rounds, "rounds"),
        Metric("deadline_miss_frac", miss, "ratio"),
        Metric("usr_bytes_per_interval", usr, "bytes"),
    ]
}
