//! Append-only bench history: one flat JSON record per `repro perf` run
//! under `bench_history/`, plus a small rebuildable index.
//!
//! A single snapshot overwritten in place would make a perf regression
//! between revisions catchable only by re-reading README prose. Here
//! every run *appends* a record stamped with its git rev and rustc
//! version (both passed in by the caller — never read via wall-clock or
//! env tricks, keeping `soc-lint` clean), and [`trend`] reads the whole
//! series back to print per-axis speedup trajectories and flag any
//! configuration whose load-normalized wall time regressed beyond a
//! noise threshold against the median prior record (see
//! [`REGRESSION_THRESHOLD`] for why absolute wall times are not
//! comparable across sessions).
//!
//! Record files are named `{seq:04}-{rev}.json` so a plain directory sort
//! is chronological; `index.json` is a convenience summary that is
//! regenerated from the record files on every append (delete it freely —
//! it is never read back, only written).

use soc_sim::json::{self, array, Obj, Value};
use std::io;
use std::path::{Path, PathBuf};

/// Default history directory, relative to the repo root (where `repro`
/// runs from).
pub const DEFAULT_DIR: &str = "bench_history";

/// A configuration counts as regressed when its **load-normalized** wall
/// time — wall over the same run's `serial+heap+scan` baseline
/// for that sweep — exceeds the **median** prior record's by this
/// factor. Normalizing by a baseline measured in the same run cancels
/// machine-state drift: a back-to-back A/B of two revisions measured
/// identical cells swinging 25–30% across sessions on the shared dev
/// container purely from co-tenant load, which would false-fail any
/// absolute-wall gate. Within one run the ratios still jitter ~5–10%
/// across sessions, so 1.3× keeps noise silent while a structural
/// regression (losing an optimisation axis outright, superlinear blowup)
/// still trips it. The reference is the median prior, not the minimum:
/// one lucky draw must not ratchet the gate below what the code
/// reproducibly delivers. Records lacking the baseline config fall back
/// to absolute wall-time comparison.
pub const REGRESSION_THRESHOLD: f64 = 1.30;

/// One timed grid row, as read back from a history record.
#[derive(Clone, Debug, PartialEq)]
pub struct HistRow {
    /// `table3` / `fig4`.
    pub sweep: String,
    /// `serial` / `parallel`.
    pub mode: String,
    /// Event-queue backend.
    pub queue: String,
    /// Record-cache backend.
    pub cache: String,
    /// Router backend.
    pub route: String,
    /// Windowed-executor driver (`serial` / `sharded`). Records written
    /// before the exec axis existed carry no `exec` field and parse as
    /// `serial` — the only driver those revisions had.
    pub exec: String,
    /// Best wall-clock milliseconds for this configuration.
    pub wall_ms: u64,
}

impl HistRow {
    /// The configuration tuple (everything but the measurement).
    pub fn key(&self) -> String {
        format!(
            "{}+{}+{}+{}+route-{}+exec-{}",
            self.sweep, self.mode, self.queue, self.cache, self.route, self.exec
        )
    }
}

/// One appended `repro perf` run.
#[derive(Clone, Debug)]
pub struct HistRecord {
    /// Monotonic sequence number (file-name prefix).
    pub seq: u64,
    /// Git revision the run was built from (short SHA, caller-supplied).
    pub rev: String,
    /// `rustc --version` string (caller-supplied).
    pub rustc: String,
    /// Scale label (`smoke` / `bench` / `full`).
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Timed grid rows.
    pub rows: Vec<HistRow>,
    /// Named speedup axes from the perf report, `(name, value)`.
    pub speedups: Vec<(String, f64)>,
}

fn io_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Wrap an already-rendered `PerfReport::to_json` document into a history
/// record and append it to `dir`, then rebuild `index.json`. Returns the
/// record's path.
pub fn append(
    dir: &Path,
    perf_json: &str,
    rev: &str,
    rustc: &str,
    scale: &str,
    seed: u64,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let seq = next_seq(dir)?;
    // Rev lands in a file name: keep it to safe characters.
    let safe_rev: String = rev
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let record = Obj::new()
        .str("record", "soc-perf-history")
        .u64("seq", seq)
        .str("rev", rev)
        .str("rustc", rustc)
        .str("scale", scale)
        .u64("seed", seed)
        .raw("perf", perf_json.trim_end())
        .finish();
    let path = dir.join(format!("{seq:04}-{safe_rev}.json"));
    std::fs::write(&path, record + "\n")?;
    rebuild_index(dir)?;
    Ok(path)
}

/// Next free sequence number (max existing + 1; 1 when empty).
fn next_seq(dir: &Path) -> io::Result<u64> {
    Ok(record_files(dir)?
        .into_iter()
        .filter_map(|p| seq_of(&p))
        .max()
        .map_or(1, |m| m + 1))
}

fn seq_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.split('-').next()?.parse().ok()
}

/// All record files in `dir`, sorted by name (= by sequence).
fn record_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "json")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n != "index.json")
            })
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    files.sort();
    Ok(files)
}

/// Load every record in `dir`, sorted by sequence number.
pub fn load(dir: &Path) -> io::Result<Vec<HistRecord>> {
    let mut out = Vec::new();
    for path in record_files(dir)? {
        let text = std::fs::read_to_string(&path)?;
        let v = json::parse(&text).map_err(|e| io_err(format!("{}: {e}", path.display())))?;
        out.push(parse_record(&v, &path)?);
    }
    out.sort_by_key(|r| r.seq);
    Ok(out)
}

fn parse_record(v: &Value, path: &Path) -> io::Result<HistRecord> {
    let ctx = |field: &str| io_err(format!("{}: missing/invalid {field}", path.display()));
    if v.get("record").and_then(Value::as_str) != Some("soc-perf-history") {
        return Err(io_err(format!(
            "{}: not a soc-perf-history record",
            path.display()
        )));
    }
    let perf = v.get("perf").ok_or_else(|| ctx("perf"))?;
    let rows = perf
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| ctx("perf.rows"))?
        .iter()
        .map(|r| {
            let s = |k: &str| {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| ctx(&format!("perf.rows[].{k}")))
            };
            Ok(HistRow {
                sweep: s("sweep")?,
                mode: s("mode")?,
                queue: s("queue")?,
                cache: s("cache")?,
                route: s("route")?,
                // Pre-exec-axis records default to the serial driver.
                exec: r
                    .get("exec")
                    .and_then(Value::as_str)
                    .unwrap_or("serial")
                    .to_string(),
                wall_ms: r
                    .get("wall_ms")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ctx("perf.rows[].wall_ms"))?,
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let speedups = match perf {
        Value::Obj(fields) => fields
            .iter()
            .filter(|(k, _)| k.starts_with("speedup_"))
            .filter_map(|(k, val)| val.as_f64().map(|f| (k.clone(), f)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(HistRecord {
        seq: v
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("seq"))?,
        rev: v
            .get("rev")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("rev"))?
            .to_string(),
        rustc: v
            .get("rustc")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string(),
        scale: v
            .get("scale")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("scale"))?
            .to_string(),
        seed: v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| ctx("seed"))?,
        rows,
        speedups,
    })
}

/// Regenerate `index.json`: one summary line per record. Written, never
/// read — the record files are the source of truth.
fn rebuild_index(dir: &Path) -> io::Result<()> {
    let records = load(dir)?;
    let entries = array(records.iter().map(|r| {
        Obj::new()
            .u64("seq", r.seq)
            .str("rev", &r.rev)
            .str("scale", &r.scale)
            .u64("seed", r.seed)
            .u64("configs", r.rows.len() as u64)
            .finish()
    }));
    let doc = Obj::new()
        .str("index", "soc-perf-history")
        .str(
            "note",
            "rebuilt on every append from the record files; safe to delete",
        )
        .u64("records", records.len() as u64)
        .raw("entries", &entries)
        .finish();
    std::fs::write(dir.join("index.json"), doc + "\n")
}

/// One regression verdict from [`trend`].
#[derive(Clone, Debug)]
pub struct Regression {
    /// Configuration tuple that regressed.
    pub key: String,
    /// Median prior metric value (baseline-relative ratio when
    /// `normalized`, wall ms otherwise). The median — not the minimum —
    /// so one lucky historical draw on a noisy box cannot permanently
    /// ratchet the gate tighter than the configuration's true cost.
    pub median_prior: f64,
    /// Rev of the (lower-)middle prior record the median came from.
    pub median_rev: String,
    /// Latest metric value (same unit as `median_prior`).
    pub latest: f64,
    /// Latest wall time (ms), for context in either mode.
    pub latest_ms: u64,
    /// `latest / median_prior`.
    pub factor: f64,
    /// Whether the comparison was load-normalized by the in-run baseline.
    pub normalized: bool,
}

/// Trend analysis over the loaded history.
#[derive(Clone, Debug)]
pub struct Trend {
    /// Records considered (same scale+seed as the latest record, in
    /// sequence order).
    pub considered: Vec<HistRecord>,
    /// Records skipped because their scale/seed differs from the latest.
    pub skipped: usize,
    /// Configurations whose latest wall time exceeds
    /// [`REGRESSION_THRESHOLD`] × median prior.
    pub regressions: Vec<Regression>,
}

/// Wall time of the reference configuration (`serial+heap+scan` on the
/// serial executor — the grid's pre-optimisation corner; route
/// unconstrained since the grid carries exactly one such row) for one
/// sweep of one record — the in-run yardstick that normalization divides
/// by. Minimum if a future grid ever carries several.
fn baseline_ms(rec: &HistRecord, sweep: &str) -> Option<u64> {
    rec.rows
        .iter()
        .filter(|r| {
            r.sweep == sweep
                && r.mode == "serial"
                && r.queue == "heap"
                && r.cache == "scan"
                && r.exec == "serial"
        })
        .map(|r| r.wall_ms.max(1))
        .min()
}

/// Analyse the history: comparable records (latest record's scale+seed),
/// per-axis speedup trajectories, and above-threshold regressions of the
/// latest record vs the median prior measurement of the same
/// configuration. Median, not minimum: a best-ever comparison is a
/// ratchet that tightens on every lucky draw, and on a shared/noisy box
/// it eventually fails honest runs on whichever key drew unluckily this
/// time.
///
/// The regression metric is the configuration's wall time divided by the
/// same record's `serial+heap+scan` baseline for that sweep
/// (load-normalized — see [`REGRESSION_THRESHOLD`]); a (sweep, record)
/// pair missing the baseline config is compared on absolute wall ms
/// instead, and normalized vs absolute measurements are never mixed
/// within one configuration's comparison.
pub fn trend(records: &[HistRecord]) -> Option<Trend> {
    let latest = records.last()?;
    let considered: Vec<HistRecord> = records
        .iter()
        .filter(|r| r.scale == latest.scale && r.seed == latest.seed)
        .cloned()
        .collect();
    let skipped = records.len() - considered.len();
    let mut regressions = Vec::new();
    let (prior, last) = considered.split_at(considered.len() - 1);
    let last = &last[0];
    for row in &last.rows {
        // Normalized only when the latest record and every prior record
        // holding this configuration carry the baseline — mixing ratios
        // with milliseconds across priors would compare unlike units.
        let latest_base = baseline_ms(last, &row.sweep);
        let holders: Vec<&HistRecord> = prior
            .iter()
            .filter(|r| r.rows.iter().any(|p| p.key() == row.key()))
            .collect();
        if holders.is_empty() {
            continue;
        }
        let normalized =
            latest_base.is_some() && holders.iter().all(|r| baseline_ms(r, &row.sweep).is_some());
        let metric = |rec: &HistRecord, ms: u64| -> f64 {
            if normalized {
                ms as f64 / baseline_ms(rec, &row.sweep).expect("checked") as f64
            } else {
                ms as f64
            }
        };
        // Median prior measurement of this exact configuration (even
        // count: mean of the two middles, attributed to the lower one).
        let mut priors: Vec<(f64, &str)> = holders
            .iter()
            .flat_map(|r| {
                r.rows
                    .iter()
                    .filter(|p| p.key() == row.key())
                    .map(move |p| (metric(r, p.wall_ms), r.rev.as_str()))
            })
            .collect();
        priors.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (lo, hi) = (&priors[(priors.len() - 1) / 2], &priors[priors.len() / 2]);
        let median_val = (lo.0 + hi.0) / 2.0;
        let latest_val = metric(last, row.wall_ms);
        let factor = latest_val / median_val.max(f64::MIN_POSITIVE);
        if factor > REGRESSION_THRESHOLD {
            regressions.push(Regression {
                key: row.key(),
                median_prior: median_val,
                median_rev: lo.1.to_string(),
                latest: latest_val,
                latest_ms: row.wall_ms,
                factor,
                normalized,
            });
        }
    }
    Some(Trend {
        considered,
        skipped,
        regressions,
    })
}

impl Trend {
    /// Did any configuration regress beyond the threshold?
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable trajectory + verdict.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let latest = self.considered.last().expect("non-empty");
        let _ = writeln!(
            out,
            "bench history: {} comparable record(s) at scale={} seed={}{}",
            self.considered.len(),
            latest.scale,
            latest.seed,
            if self.skipped > 0 {
                format!(" ({} skipped: different scale/seed)", self.skipped)
            } else {
                String::new()
            }
        );
        // Per-axis speedup trajectories: every speedup key any record
        // carries, one row per axis, one column per rev.
        let mut axes: Vec<&str> = Vec::new();
        for r in &self.considered {
            for (k, _) in &r.speedups {
                if !axes.contains(&k.as_str()) {
                    axes.push(k);
                }
            }
        }
        let _ = writeln!(out, "\naxis\ttrajectory (oldest -> latest)");
        for axis in &axes {
            let traj: Vec<String> = self
                .considered
                .iter()
                .map(|r| {
                    r.speedups
                        .iter()
                        .find(|(k, _)| k == axis)
                        .map(|(_, v)| format!("{v:.3}x@{}", r.rev))
                        .unwrap_or_else(|| format!("-@{}", r.rev))
                })
                .collect();
            let _ = writeln!(
                out,
                "{}\t{}",
                axis.trim_start_matches("speedup_"),
                traj.join("  ")
            );
        }
        // Wall-time trajectory of the fully-optimised corner per sweep —
        // the single number each PR tries to push down.
        let _ = writeln!(out, "\nsweep\toptimised wall_ms (oldest -> latest)");
        for sweep in ["table3", "fig4"] {
            let traj: Vec<String> = self
                .considered
                .iter()
                .map(|r| {
                    r.rows
                        .iter()
                        .filter(|row| row.sweep == sweep)
                        .min_by_key(|row| row.wall_ms)
                        .map(|row| format!("{}ms@{}", row.wall_ms, r.rev))
                        .unwrap_or_else(|| format!("-@{}", r.rev))
                })
                .collect();
            let _ = writeln!(out, "{sweep}\t{}", traj.join("  "));
        }
        out.push('\n');
        if self.considered.len() < 2 {
            let _ = writeln!(
                out,
                "# verdict: PASS (single record; nothing prior to compare against)"
            );
        } else if self.regressions.is_empty() {
            let _ = writeln!(
                out,
                "# verdict: PASS — no config regressed beyond {REGRESSION_THRESHOLD}x its median prior baseline-relative wall time"
            );
        } else {
            for r in &self.regressions {
                if r.normalized {
                    let _ = writeln!(
                        out,
                        "# REGRESSION {}: {:.3}x of baseline vs median prior {:.3}x @{} ({:.2}x > {REGRESSION_THRESHOLD}x; {}ms)",
                        r.key, r.latest, r.median_prior, r.median_rev, r.factor, r.latest_ms
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "# REGRESSION {}: {}ms vs median prior {:.0}ms @{} ({:.2}x > {REGRESSION_THRESHOLD}x, absolute: no baseline config to normalize by)",
                        r.key, r.latest_ms, r.median_prior, r.median_rev, r.factor
                    );
                }
            }
            let _ = writeln!(
                out,
                "# verdict: FAIL — {} config(s) regressed",
                self.regressions.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_perf_json(t3_ms: u64, f4_ms: u64, speedup: f64) -> String {
        let rows = array([("table3", t3_ms), ("fig4", f4_ms)].iter().map(|(s, ms)| {
            Obj::new()
                .str("sweep", s)
                .str("mode", "serial")
                .str("queue", "calendar")
                .str("cache", "indexed")
                .str("route", "cached")
                .u64("threads", 1)
                .u64("wall_ms", *ms)
                .raw("cell_ms", "[]")
                .finish()
        }));
        Obj::new()
            .str("bench", "sweep+queue+cache+route perf grid")
            .str("scale", "bench")
            .u64("seed", 7)
            .bool("deterministic", true)
            .f64("speedup_table3_optimised_vs_serial_heap_scan", speedup)
            .raw("rows", &rows)
            .finish()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("soc-hist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_load_round_trip_and_index() {
        let dir = tmpdir("roundtrip");
        let p1 = append(
            &dir,
            &fake_perf_json(100, 200, 1.10),
            "aaa111",
            "rustc 1.82.0",
            "bench",
            7,
        )
        .unwrap();
        let p2 = append(
            &dir,
            &fake_perf_json(90, 210, 1.15),
            "bbb222",
            "rustc 1.82.0",
            "bench",
            7,
        )
        .unwrap();
        assert!(p1
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("0001-aaa111"));
        assert!(p2
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("0002-bbb222"));
        let recs = load(&dir).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].rev, "aaa111");
        assert_eq!(recs[1].seq, 2);
        assert_eq!(recs[1].rows[0].wall_ms, 90);
        // Pre-exec-axis documents carry no "exec" field: backwards
        // compatibility pins them to the serial driver.
        assert_eq!(recs[1].rows[0].exec, "serial");
        assert_eq!(
            recs[0].speedups,
            vec![(
                "speedup_table3_optimised_vs_serial_heap_scan".to_string(),
                1.10
            )]
        );
        let index = std::fs::read_to_string(dir.join("index.json")).unwrap();
        assert!(index.contains("\"records\":2"));
        assert!(index.contains("\"rev\":\"bbb222\""));
        // The index is rebuildable: deleting it and appending again
        // regenerates it with all three records.
        std::fs::remove_file(dir.join("index.json")).unwrap();
        append(
            &dir,
            &fake_perf_json(85, 205, 1.2),
            "ccc333",
            "rustc 1.82.0",
            "bench",
            7,
        )
        .unwrap();
        let index = std::fs::read_to_string(dir.join("index.json")).unwrap();
        assert!(index.contains("\"records\":3"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_passes_within_noise_and_fails_beyond() {
        let dir = tmpdir("trend");
        append(
            &dir,
            &fake_perf_json(100, 200, 1.1),
            "r1",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        append(
            &dir,
            &fake_perf_json(110, 190, 1.1),
            "r2",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        let t = trend(&load(&dir).unwrap()).unwrap();
        assert!(!t.regressed(), "10% drift is inside the noise threshold");
        assert!(t.render().contains("PASS"));

        append(
            &dir,
            &fake_perf_json(150, 190, 0.9),
            "r3",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        let t = trend(&load(&dir).unwrap()).unwrap();
        assert!(t.regressed(), "150ms vs median prior 105ms must trip 1.3x");
        assert_eq!(t.regressions.len(), 1);
        let reg = &t.regressions[0];
        assert_eq!(reg.median_prior, 105.0, "median of 100 (r1) and 110 (r2)");
        assert_eq!(reg.median_rev, "r1");
        assert!(reg.key.starts_with("table3+"));
        // The fake grid carries no serial+heap+scan baseline row, so the
        // comparison falls back to absolute wall times.
        assert!(!reg.normalized);
        assert!(t.render().contains("FAIL"));
        assert!(t.render().contains("absolute"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A perf document carrying the untouched baseline config next to the
    /// optimised one, so trend can load-normalize.
    fn fake_perf_with_baseline(t3_base: u64, t3_opt: u64, f4_base: u64, f4_opt: u64) -> String {
        let row = |sweep: &str, queue: &str, cache: &str, route: &str, ms: u64| {
            Obj::new()
                .str("sweep", sweep)
                .str("mode", "serial")
                .str("queue", queue)
                .str("cache", cache)
                .str("route", route)
                .u64("threads", 1)
                .u64("wall_ms", ms)
                .raw("cell_ms", "[]")
                .finish()
        };
        let rows = array([
            row("table3", "heap", "scan", "scan", t3_base),
            row("table3", "calendar", "indexed", "cached", t3_opt),
            row("fig4", "heap", "scan", "scan", f4_base),
            row("fig4", "calendar", "indexed", "cached", f4_opt),
        ]);
        Obj::new()
            .str("bench", "sweep+queue+cache+route perf grid")
            .str("scale", "bench")
            .u64("seed", 7)
            .bool("deterministic", true)
            .raw("rows", &rows)
            .finish()
    }

    #[test]
    fn trend_normalizes_away_uniform_machine_drift() {
        let dir = tmpdir("normdrift");
        append(
            &dir,
            &fake_perf_with_baseline(100, 80, 200, 180),
            "r1",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        // Whole grid doubles — a slower box, not a code regression: every
        // baseline-relative ratio is unchanged, so the gate stays green
        // even though absolute walls are 2x the best prior.
        append(
            &dir,
            &fake_perf_with_baseline(200, 160, 400, 360),
            "r2",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        let t = trend(&load(&dir).unwrap()).unwrap();
        assert!(!t.regressed(), "uniform 2x drift must not trip the gate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_catches_relative_regression_under_normalization() {
        let dir = tmpdir("normreg");
        append(
            &dir,
            &fake_perf_with_baseline(100, 80, 200, 180),
            "r1",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        // table3 optimised loses its win *relative to its own run's
        // baseline*: 80/100 -> 120/100 is a 1.5x normalized regression.
        append(
            &dir,
            &fake_perf_with_baseline(100, 120, 200, 180),
            "r2",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        let t = trend(&load(&dir).unwrap()).unwrap();
        assert!(t.regressed());
        assert_eq!(t.regressions.len(), 1);
        let reg = &t.regressions[0];
        assert!(reg.normalized);
        assert!(reg.key.starts_with("table3+serial+calendar"));
        assert!((reg.median_prior - 0.8).abs() < 1e-9);
        assert!((reg.latest - 1.2).abs() < 1e-9);
        assert_eq!(reg.latest_ms, 120);
        assert!(t.render().contains("of baseline"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_median_ignores_single_lucky_prior() {
        let dir = tmpdir("median");
        // Two honest priors at 100ms, one lucky 60ms draw. A best-ever
        // gate would demand <= 78ms forever after; the median keeps the
        // reference at the reproducible 100ms.
        for (ms, rev) in [(100, "r1"), (60, "r2"), (100, "r3")] {
            append(
                &dir,
                &fake_perf_json(ms, 200, 1.0),
                rev,
                "rustc",
                "bench",
                7,
            )
            .unwrap();
        }
        append(
            &dir,
            &fake_perf_json(115, 200, 1.0),
            "r4",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        let t = trend(&load(&dir).unwrap()).unwrap();
        assert!(
            !t.regressed(),
            "115ms vs median 100ms is within 1.3x even though 115/60 is not"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_skips_incomparable_scales() {
        let dir = tmpdir("scales");
        append(
            &dir,
            &fake_perf_json(10, 20, 1.0),
            "r1",
            "rustc",
            "bench",
            7,
        )
        .unwrap();
        let smoke =
            fake_perf_json(500, 900, 1.1).replace("\"scale\":\"bench\"", "\"scale\":\"smoke\"");
        append(&dir, &smoke, "r2", "rustc", "smoke", 7).unwrap();
        let t = trend(&load(&dir).unwrap()).unwrap();
        // Latest is smoke: the bench record must not be compared against.
        assert_eq!(t.considered.len(), 1);
        assert_eq!(t.skipped, 1);
        assert!(!t.regressed());
        assert!(t.render().contains("single record"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_of_empty_history_is_none() {
        assert!(trend(&[]).is_none());
    }
}
