//! One operation of a workload, run in a process of its own.
//!
//! The parent re-executes this binary with `--child run|setup`, so each
//! timed run starts from a fresh process (as a `repro` user's run does)
//! and its peak RSS and CPU time belong to that run alone. The child
//! prints its results as `kind key=value ...` lines on stdout, which
//! [`parse`] turns back into an [`OpResult`].

use crate::workloads::Workload;
use soc_bench::sweep;
use soc_sim::RunReport;
use std::collections::BTreeMap;
use std::time::Instant;

/// What the parent learns about one simulated run (one sweep cell).
#[derive(Clone, Debug, Default)]
pub struct CellResult {
    pub label: String,
    /// FNV-1a digest of `RunReport::fingerprint`.
    pub fp: u64,
    pub generated: u64,
    pub finished: u64,
    pub failed: u64,
    pub rejected: u64,
    pub killed: u64,
    pub t_ratio: f64,
    pub f_ratio: f64,
    pub fairness: f64,
    /// Host seconds of this cell's `Scenario::run`.
    pub cell_s: f64,
    pub completion_scheduled: u64,
    pub completion_dead_pops: u64,
    pub msg_total: u64,
    pub fault_drops: u64,
    /// Profiler phases `(label, group, ns, count)`; empty when off.
    pub phases: Vec<(String, String, u64, u64)>,
}

impl CellResult {
    fn from_report(r: &RunReport, cell_s: f64) -> Self {
        CellResult {
            label: r.label.clone(),
            fp: fingerprint_hash(r),
            generated: r.generated,
            finished: r.finished,
            failed: r.failed,
            rejected: r.rejected,
            killed: r.killed,
            t_ratio: r.t_ratio,
            f_ratio: r.f_ratio,
            fairness: r.fairness,
            cell_s,
            completion_scheduled: r.completion_scheduled,
            completion_dead_pops: r.completion_dead_pops,
            msg_total: r.msg_total,
            fault_drops: r.faults.drops_total(),
            phases: r
                .profile
                .iter()
                .flat_map(|p| &p.phases)
                .map(|p| (p.label.to_string(), p.group.to_string(), p.ns, p.count))
                .collect(),
        }
    }

    /// The report-level invariants every run must satisfy; `Err` names
    /// the first one broken.
    pub fn check(&self) -> Result<(), String> {
        let settled = self.finished + self.failed + self.rejected + self.killed;
        if settled > self.generated {
            return Err(format!(
                "{}: finished+failed+rejected+killed = {settled} > generated = {}",
                self.label, self.generated
            ));
        }
        for (name, v) in [
            ("T-Ratio", self.t_ratio),
            ("F-Ratio", self.f_ratio),
            ("fairness", self.fairness),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{}: {name} = {v} outside [0, 1]", self.label));
            }
        }
        Ok(())
    }

    /// Total ns and calls of the dispatch phases; the calls are the events
    /// the main loop dispatched.
    pub fn dispatch(&self) -> (u64, u64) {
        self.phases
            .iter()
            .filter(|p| p.1 == "dispatch")
            .fold((0, 0), |(ns, n), p| (ns + p.2, n + p.3))
    }

    /// Total ns and calls of one profiler phase.
    pub fn phase(&self, label: &str) -> (u64, u64) {
        self.phases
            .iter()
            .find(|p| p.0 == label)
            .map_or((0, 0), |p| (p.2, p.3))
    }
}

/// One operation as the parent sees it.
#[derive(Clone, Debug, Default)]
pub struct OpResult {
    /// Host seconds for the whole operation (all cells, fan-out included).
    pub wall_s: f64,
    /// User + system CPU seconds of the operation.
    pub cpu_s: f64,
    /// Peak resident set of the child process, MB.
    pub peak_rss_mb: f64,
    pub cells: Vec<CellResult>,
}

/// Short FNV-1a digest of the full fingerprint, for comparing runs.
pub fn fingerprint_hash(r: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in r.fingerprint().bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run one operation of `w` at `seed` in this process and print it for
/// the parent. `setup` runs every scenario with `duration_ms = 0`: overlay
/// bootstrap, index tables, topology, protocol start-up and the report,
/// and nothing else.
pub fn run_child(w: Workload, seed: u64, setup: bool) {
    let mut cells = w.scenarios(seed);
    if setup {
        for sc in &mut cells {
            sc.duration_ms = 0;
        }
    }
    let cpu0 = rusage().0;
    let t0 = Instant::now();
    let out = sweep::map_indexed(cells.len(), |i| {
        let t = Instant::now();
        let r = cells[i].run();
        (r, t.elapsed().as_secs_f64())
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu1, rss_kb) = rusage();
    for (i, (r, cell_s)) in out.iter().enumerate() {
        let c = CellResult::from_report(r, *cell_s);
        println!(
            "cell i={i} label={} fp={:016x} gen={} fin={} fail={} rej={} kill={} t_ratio={} f_ratio={} fairness={} cell_s={} comp_sched={} comp_dead={} msgs={} drops={}",
            c.label, c.fp, c.generated, c.finished, c.failed, c.rejected, c.killed,
            c.t_ratio, c.f_ratio, c.fairness, c.cell_s, c.completion_scheduled,
            c.completion_dead_pops, c.msg_total, c.fault_drops,
        );
        for (label, group, ns, count) in &c.phases {
            println!("phase i={i} name={label} group={group} ns={ns} count={count}");
        }
    }
    println!("op wall_s={wall_s} cpu_s={} rss_kb={rss_kb}", cpu1 - cpu0);
}

fn fields(rest: &str) -> BTreeMap<&str, &str> {
    rest.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .collect()
}

fn get<T: std::str::FromStr>(f: &BTreeMap<&str, &str>, key: &str) -> Result<T, String> {
    f.get(key)
        .ok_or_else(|| format!("child output lacks {key}"))?
        .parse()
        .map_err(|_| format!("child output has a bad {key}"))
}

/// Parse a child's stdout back into an [`OpResult`].
pub fn parse(stdout: &str) -> Result<OpResult, String> {
    let mut op = OpResult::default();
    let mut saw_op = false;
    for line in stdout.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        let f = fields(rest);
        match kind {
            "cell" => op.cells.push(CellResult {
                label: get(&f, "label")?,
                fp: u64::from_str_radix(f.get("fp").copied().unwrap_or(""), 16)
                    .map_err(|_| "child output has a bad fp".to_string())?,
                generated: get(&f, "gen")?,
                finished: get(&f, "fin")?,
                failed: get(&f, "fail")?,
                rejected: get(&f, "rej")?,
                killed: get(&f, "kill")?,
                t_ratio: get(&f, "t_ratio")?,
                f_ratio: get(&f, "f_ratio")?,
                fairness: get(&f, "fairness")?,
                cell_s: get(&f, "cell_s")?,
                completion_scheduled: get(&f, "comp_sched")?,
                completion_dead_pops: get(&f, "comp_dead")?,
                msg_total: get(&f, "msgs")?,
                fault_drops: get(&f, "drops")?,
                phases: Vec::new(),
            }),
            "phase" => {
                let i: usize = get(&f, "i")?;
                let cell = op
                    .cells
                    .get_mut(i)
                    .ok_or("child output has a phase before its cell")?;
                cell.phases.push((
                    get(&f, "name")?,
                    get(&f, "group")?,
                    get(&f, "ns")?,
                    get(&f, "count")?,
                ));
            }
            "op" => {
                op.wall_s = get(&f, "wall_s")?;
                op.cpu_s = get(&f, "cpu_s")?;
                op.peak_rss_mb = get::<f64>(&f, "rss_kb")? / 1024.0;
                saw_op = true;
            }
            _ => {}
        }
    }
    if !saw_op || op.cells.is_empty() {
        return Err("child printed no result".into());
    }
    Ok(op)
}

/// Linux `struct rusage` on 64-bit targets: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time and peak RSS through 64-bit Linux getrusage");

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `(user + system CPU seconds, peak RSS in KiB)` of this process so far.
fn rusage() -> (f64, u64) {
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, exclusively borrowed value with the layout of
    // `struct rusage` on 64-bit Linux (checked by the cfg above), and
    // getrusage writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    (secs(u.utime) + secs(u.stime), u.maxrss.max(0) as u64)
}
