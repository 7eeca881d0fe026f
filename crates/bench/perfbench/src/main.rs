//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|scale-10k|churn-hostile> --seed <n> \
//!     --seconds <s> --trace <0|1> [--heldout-seed <n>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: repeated set-ups
//! (`duration_ms = 0`) and repeated full runs of the workload at its
//! default configuration, each in a fresh child process, for `--seconds`
//! seconds; it reports medians. `--trace 1` measures the per-layer
//! metrics: one untraced and one `SOC_PROFILE=on` run of the same seed,
//! the isolated layer kernels, and (on churn-hostile) the trace
//! record/replay round trip. Every run's report is checked; a failed
//! check or a crashed run counts as a failed operation and makes the exit
//! code 1. The last stdout line is the JSON result.
//!
//! See `crates/bench/perfbench/README.md` for the workloads, the metrics and which
//! end-to-end metric each layer metric should move.

mod iso;
mod op;
mod workloads;

use op::OpResult;
use soc_scenario::{record_run, replay_run, Trace};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <paper-sweep|scale-10k|churn-hostile> --seed <n> --seconds <s> --trace <0|1> [--heldout-seed <n>]";

/// Minimum timed runs per measurement, whatever `--seconds` says: a median
/// and a determinism check need more than one.
const MIN_RUNS: usize = 3;
/// Set-ups run in slices between the timed runs, so that they sample the
/// same stretch of host time as the runs: each slice takes at least
/// `SLICE_SETUPS` set-ups, then more until `SLICE_S` seconds, up to
/// `SLICE_MAX`. A measurement takes at least `MIN_SETUPS` in all.
const SLICE_SETUPS: usize = 2;
const SLICE_S: f64 = 0.4;
const SLICE_MAX: usize = 20;
const MIN_SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    heldout: Option<u64>,
    /// `Some(setup)` in a child process.
    child: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut heldout, mut child) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(num(&val)?),
            "--seconds" => seconds = Some(num(&val)? as f64),
            "--trace" => trace = Some(num(&val)? != 0),
            "--heldout-seed" => heldout = Some(num(&val)?),
            "--child" => child = Some(val == "setup"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        heldout,
        child,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Attempted and failed operation counts. Each failure is printed with
/// its reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        println!("FAILED: {why}");
    }

    /// Compare `op`'s fingerprints with `reference`'s, cell by cell; a
    /// mismatching cell is a failed operation (its run was not repeatable).
    fn same_fingerprints(&mut self, op: &OpResult, reference: &OpResult, what: &str) {
        for (a, b) in op.cells.iter().zip(&reference.cells) {
            if a.fp != b.fp {
                self.fail(&format!(
                    "{} {what}: fingerprint {:016x} != {:016x}",
                    a.label, a.fp, b.fp
                ));
            }
        }
    }
}

/// Run one operation in a fresh child process of this binary. `Err` (a
/// crash or unreadable output) counts every cell of the operation as
/// failed.
fn spawn(w: Workload, seed: u64, setup: bool, traced: bool) -> Result<OpResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", if setup { "setup" } else { "run" }])
        .args(["--workload", w.name(), "--seed", &seed.to_string()]);
    if traced {
        cmd.env("SOC_PROFILE", "on");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child run exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    op::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Spawn one operation and check every cell's report; `None` when it
/// crashed, which fails all its cells.
fn measured(
    tally: &mut Tally,
    w: Workload,
    seed: u64,
    setup: bool,
    traced: bool,
) -> Option<OpResult> {
    let cells = w.scenarios(seed).len();
    tally.attempted += cells as u64;
    match spawn(w, seed, setup, traced) {
        Ok(op) => {
            for c in &op.cells {
                if let Err(e) = c.check() {
                    tally.fail(&e);
                }
            }
            Some(op)
        }
        Err(e) => {
            for _ in 0..cells {
                tally.fail(&e);
            }
            None
        }
    }
}

/// The timed runs and set-ups of one measurement.
struct Measured {
    runs: Vec<OpResult>,
    setup_walls: Vec<f64>,
}

fn describe(what: &str, v: &[f64]) {
    println!(
        "{what}: {} samples, median {:.4} s, min {:.4} s, max {:.4} s",
        v.len(),
        median(v),
        v.iter().copied().fold(f64::INFINITY, f64::min),
        v.iter().copied().fold(0.0, f64::max),
    );
}

/// Alternate slices of set-ups with full runs of `w` at `seed` until
/// `seconds` have passed and at least `min_runs` runs were attempted, then
/// top the set-ups up to [`MIN_SETUPS`]. Repeats must reproduce the first
/// run's (or set-up's) fingerprints.
fn measure(tally: &mut Tally, w: Workload, seed: u64, seconds: f64, min_runs: usize) -> Measured {
    let t0 = Instant::now();
    let mut runs: Vec<OpResult> = Vec::new();
    let mut setups: Vec<OpResult> = Vec::new();
    let mut attempts = 0;
    let setup = |tally: &mut Tally, setups: &mut Vec<OpResult>| {
        if let Some(op) = measured(tally, w, seed, true, false) {
            if let Some(first) = setups.first() {
                tally.same_fingerprints(&op, first, "set-up repeat");
            }
            setups.push(op);
        }
    };
    loop {
        let slice = Instant::now();
        for i in 0..SLICE_MAX {
            if i >= SLICE_SETUPS && slice.elapsed().as_secs_f64() >= SLICE_S {
                break;
            }
            setup(tally, &mut setups);
        }
        if attempts >= min_runs && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        attempts += 1;
        if let Some(op) = measured(tally, w, seed, false, false) {
            if let Some(first) = runs.first() {
                tally.same_fingerprints(&op, first, "repeat run");
            }
            runs.push(op);
        }
    }
    while setups.len() < MIN_SETUPS {
        setup(tally, &mut setups);
    }
    Measured {
        runs,
        setup_walls: setups.iter().map(|o| o.wall_s).collect(),
    }
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn end_to_end(m: &Measured) -> Metrics {
    let pick = |f: fn(&OpResult) -> f64| median(&m.runs.iter().map(f).collect::<Vec<_>>());
    vec![
        ("wall_s", "s", pick(|o| o.wall_s)),
        ("setup_s", "s", median(&m.setup_walls)),
        ("cpu_s", "s", pick(|o| o.cpu_s)),
        ("peak_rss_mb", "MB", pick(|o| o.peak_rss_mb)),
    ]
}

fn print_outcome(op: &OpResult) {
    for c in &op.cells {
        println!(
            "outcome {:<12} fp {:016x}  T-Ratio {:.4}  F-Ratio {:.4}  fairness {:.4}  generated {} finished {} failed {} rejected {} killed {}",
            c.label, c.fp, c.t_ratio, c.f_ratio, c.fairness, c.generated, c.finished, c.failed,
            c.rejected, c.killed
        );
    }
}

/// The end-to-end pass (`--trace 0`).
fn end_to_end_pass(args: &Args, tally: &mut Tally) -> Metrics {
    let w = args.workload;
    let m = measure(tally, w, args.seed, args.seconds, MIN_RUNS);
    if m.runs.is_empty() || m.setup_walls.is_empty() {
        return Vec::new();
    }
    describe(
        "wall_s",
        &m.runs.iter().map(|o| o.wall_s).collect::<Vec<_>>(),
    );
    describe("setup_s", &m.setup_walls);
    print_outcome(&m.runs[0]);
    if let Some(h) = args.heldout {
        heldout(tally, w, h);
    }
    end_to_end(&m)
}

/// One run (and its set-ups) at a held-out seed, reported on its own line
/// so later claims can be checked on a seed not used while writing them.
fn heldout(tally: &mut Tally, w: Workload, seed: u64) {
    let m = measure(tally, w, seed, 0.0, 1);
    if m.runs.is_empty() || m.setup_walls.is_empty() {
        return;
    }
    let mut line = format!("heldout seed={seed}");
    for (name, unit, v) in end_to_end(&m) {
        let _ = write!(line, " {name}={v:.4}{unit}");
    }
    println!("{line}");
    print_outcome(&m.runs[0]);
}

/// Sum of one phase's (ns, calls) over every cell.
fn phase(op: &OpResult, label: &str) -> (f64, f64) {
    op.cells.iter().fold((0.0, 0.0), |(ns, n), c| {
        let (a, b) = c.phase(label);
        (ns + a as f64, n + b as f64)
    })
}

fn per_call(op: &OpResult, label: &str) -> f64 {
    let (ns, n) = phase(op, label);
    if n > 0.0 {
        ns / n
    } else {
        0.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Detail spans that nest inside the dispatch arms.
const NESTED: [&str; 6] = [
    "route",
    "cache_probe",
    "psm_predict",
    "latency",
    "fault",
    "stats_flush",
];

/// The traced pass (`--trace 1`).
fn traced_pass(args: &Args, tally: &mut Tally) -> Metrics {
    let w = args.workload;
    let Some(plain) = measured(tally, w, args.seed, false, false) else {
        return Vec::new();
    };
    let Some(traced) = measured(tally, w, args.seed, false, true) else {
        return Vec::new();
    };
    tally.same_fingerprints(&traced, &plain, "traced vs untraced");
    print_outcome(&plain);

    let sum = |f: fn(&op::CellResult) -> u64| traced.cells.iter().map(f).sum::<u64>() as f64;
    let (dispatch, events) = traced.cells.iter().fold((0.0, 0.0), |(ns, n), c| {
        let (a, b) = c.dispatch();
        (ns + a as f64, n + b as f64)
    });
    let nested: f64 = NESTED.iter().map(|l| phase(&traced, l).0).sum();
    let (pop_ns_total, pops) = phase(&traced, "queue_pop");
    let pushes = phase(&traced, "queue_push").1;
    let pop_ns = ratio(pop_ns_total, pops);
    let (route_ns_total, routes) = phase(&traced, "route");
    let swaps = phase(&traced, "churn_swap").1;
    let traced_cells_s: f64 = traced.cells.iter().map(|c| c.cell_s).sum();

    // Iso input shape: the HID-CAN cell (always first) of the traced run.
    let hid = &traced.cells[0];
    let shape = iso::Shape {
        scenario: w.scenarios(args.seed)[0],
        events: hid.dispatch().1,
        pushes: hid.phase("queue_push").1,
        delivers: hid.phase("deliver").1,
        routes: hid.phase("route").1,
        swaps: hid.phase("churn_swap").1,
        generated: hid.generated,
    };
    let iso = iso::run(&shape);

    let cell_s: Vec<f64> = plain.cells.iter().map(|c| c.cell_s).collect();
    let workers = soc_bench::sweep::thread_count().min(cell_s.len()).max(1);
    let (trace_bytes, write_mb_s, read_mb_s, replay_s) = match w.spec(args.seed) {
        Some(spec) if w == Workload::ChurnHostile => round_trip(tally, &spec, plain.cells[0].fp),
        _ => (0.0, 0.0, 0.0, 0.0),
    };

    vec![
        ("soc.events", "count", events),
        ("soc.ns_per_event", "ns", ratio(plain.wall_s * 1e9, events)),
        ("soc.dispatch_s", "s", dispatch / 1e9),
        (
            "soc.outside_dispatch_s",
            "s",
            traced_cells_s - dispatch / 1e9,
        ),
        (
            "soc.barrier_wait_s",
            "s",
            phase(&traced, "barrier_wait").0 / 1e9,
        ),
        ("soc.arrival_ns", "ns", per_call(&traced, "arrival")),
        ("soc.task_arrive_ns", "ns", per_call(&traced, "task_arrive")),
        ("soc.completion_ns", "ns", per_call(&traced, "completion")),
        (
            "soc.query_timeouts",
            "count",
            phase(&traced, "query_timeout").1,
        ),
        ("pidcan.deliver_ns", "ns", per_call(&traced, "deliver")),
        ("pidcan.deliver_calls", "count", phase(&traced, "deliver").1),
        ("pidcan.timer_ns", "ns", per_call(&traced, "proto_timer")),
        (
            "pidcan.timer_calls",
            "count",
            phase(&traced, "proto_timer").1,
        ),
        ("pidcan.self_s", "s", (dispatch - nested) / 1e9),
        ("simcore.pop_ns", "ns", pop_ns),
        ("simcore.pops", "count", pops),
        ("simcore.pushes", "count", pushes),
        ("simcore.useful_pop_ratio", "ratio", ratio(events, pops)),
        ("simcore.queue_op_ns_iso", "ns", iso.queue_op_ns),
        ("simcore.pop_gap", "ratio", ratio(pop_ns, iso.queue_op_ns)),
        ("inscan.route_ns", "ns", ratio(route_ns_total, routes)),
        ("inscan.routes", "count", routes),
        ("inscan.next_hop_ns_iso", "ns", iso.next_hop_ns),
        ("inscan.route_hit_ratio_iso", "ratio", iso.route_hit_ratio),
        (
            "inscan.route_gap",
            "ratio",
            ratio(ratio(route_ns_total, routes), iso.next_hop_ns),
        ),
        ("overlay.probe_ns", "ns", per_call(&traced, "cache_probe")),
        ("overlay.probes", "count", phase(&traced, "cache_probe").1),
        ("overlay.qualified_ns_iso", "ns", iso.qualified_ns),
        ("psm.predict_ns", "ns", per_call(&traced, "psm_predict")),
        ("psm.predicts", "count", phase(&traced, "psm_predict").1),
        (
            "psm.dead_completion_ratio",
            "ratio",
            ratio(
                sum(|c| c.completion_dead_pops),
                sum(|c| c.completion_scheduled),
            ),
        ),
        ("psm.next_completion_ns_iso", "ns", iso.next_completion_ns),
        ("net.latency_ns", "ns", per_call(&traced, "latency")),
        ("net.fault_ns", "ns", per_call(&traced, "fault")),
        ("net.sends", "count", phase(&traced, "latency").1),
        ("net.msgs", "count", sum(|c| c.msg_total)),
        ("net.drops", "count", sum(|c| c.fault_drops)),
        ("net.latency_ns_iso", "ns", iso.latency_ns),
        (
            "can.churn_swap_us",
            "us",
            per_call(&traced, "churn_swap") / 1e3,
        ),
        ("can.churn_swaps", "count", swaps),
        ("can.join_leave_us_iso", "us", iso.join_leave_us),
        ("can.bootstrap_s_iso", "s", iso.bootstrap_s),
        ("metrics.flush_ns", "ns", per_call(&traced, "stats_flush")),
        ("metrics.flushes", "count", phase(&traced, "stats_flush").1),
        ("sweep.cell_s_p50", "s", median(&cell_s)),
        (
            "sweep.cell_s_max",
            "s",
            cell_s.iter().copied().fold(0.0, f64::max),
        ),
        (
            "sweep.efficiency",
            "ratio",
            ratio(cell_s.iter().sum(), workers as f64 * plain.wall_s),
        ),
        (
            "trace.overhead",
            "ratio",
            ratio(traced.wall_s, plain.wall_s),
        ),
        ("scenario.trace_bytes", "bytes", trace_bytes),
        ("scenario.trace_write_mb_s", "MB/s", write_mb_s),
        ("scenario.trace_read_mb_s", "MB/s", read_mb_s),
        ("scenario.replay_s", "s", replay_s),
    ]
}

/// Scenario-layer round trip: `record_run` → `Trace::to_text` →
/// `Trace::from_text` → `replay_run`. The recording and the replay must
/// both match the untraced run's fingerprint `expect_fp`. Returns (trace
/// bytes, write MB/s, read MB/s, replay seconds).
fn round_trip(
    tally: &mut Tally,
    spec: &soc_scenario::ScenarioSpec,
    expect_fp: u64,
) -> (f64, f64, f64, f64) {
    tally.attempted += 1;
    let recording = std::panic::catch_unwind(|| record_run(spec));
    let Ok((recorded, trace)) = recording else {
        tally.fail("trace round trip: record_run panicked");
        return (0.0, 0.0, 0.0, 0.0);
    };
    let t = Instant::now();
    let text = trace.to_text();
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parsed = Trace::from_text(&text);
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let replayed = parsed.and_then(|tr| replay_run(&tr));
    let replay_s = t.elapsed().as_secs_f64();
    let bytes = text.len() as f64;
    let rec_fp = op::fingerprint_hash(&recorded);
    let verdict = match replayed {
        Err(e) => Err(format!("trace round trip: {e}")),
        Ok(r) if op::fingerprint_hash(&r) != rec_fp => {
            Err("trace round trip: replay fingerprint differs from the recording".to_string())
        }
        Ok(_) if rec_fp != expect_fp => {
            Err("trace round trip: recording fingerprint differs from the plain run".to_string())
        }
        Ok(_) => Ok(()),
    };
    if let Err(e) = verdict {
        tally.fail(&e);
    }
    println!(
        "scenario round trip: {bytes} bytes, to_text {write_s:.4} s, from_text {read_s:.4} s, replay {replay_s:.3} s, fp {rec_fp:016x}"
    );
    (bytes, bytes / 1e6 / write_s, bytes / 1e6 / read_s, replay_s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(setup) = args.child {
        op::run_child(args.workload, args.seed, setup);
        return ExitCode::SUCCESS;
    }
    // The benchmark measures the default configuration: no SOC_* knob
    // from the caller's environment reaches a run (the traced child gets
    // SOC_PROFILE=on explicitly).
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("SOC_") {
            std::env::remove_var(k);
        }
    }

    println!(
        "perfbench {} seed={} seconds={} trace={} sweep_threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        soc_bench::sweep::thread_count()
    );
    println!(
        "note: the simulated model is unvalidated (the repository holds no paper reference values yet), so no error figure is given; the modelled record caches start empty (no warm-up)"
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced_pass(&args, &mut tally)
    } else {
        end_to_end_pass(&args, &mut tally)
    };
    let correct = tally.failed == 0 && !metrics.is_empty();
    let mut json = String::new();
    for (name, unit, v) in &metrics {
        println!("metric {name} = {v} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(json, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
