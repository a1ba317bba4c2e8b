//! The repository's benchmark: one command that drives a named workload
//! through the workspace crates' public APIs, checks the outputs, and
//! prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that splits the workload into
//! per-layer metrics plus the ledger (`core.coverage_frac`,
//! `trace.overhead_frac`). The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a human-readable
//! table, the host stamp and the checks precede it. A failed output
//! check makes the exit code 1; bad arguments make it 2.
//!
//! See `README.md` beside this file for the metric table and why each
//! workload exists.

mod loadgen;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] =
    ["train-mf-sampled", "train-lgn-inbatch", "serve-exact", "serve-ivf-swap"];

/// End-to-end metrics (`--trace 0`): name, unit. Every workload reports
/// every one of them; see `README.md` for what each means per workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("quality", "ratio"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("models.forward_s", "s"),
    ("models.forward_calls", "count"),
    ("models.step_s", "s"),
    ("models.step_calls", "count"),
    ("models.export_s", "s"),
    ("core.trainer_self_s", "s"),
    ("sampling.epoch_s", "s"),
    ("sampling.draws", "count"),
    ("sampling.unique_neg_frac", "ratio"),
    ("losses.compute_s", "s"),
    ("linalg.gather_normalize_s", "s"),
    ("linalg.scores_block_s", "s"),
    ("linalg.cosine_backward_s", "s"),
    ("eval.evaluate_s", "s"),
    ("serve.state.respond_us_p50", "us"),
    ("models.score_catalogue_us", "us"),
    ("linalg.topk_us", "us"),
    ("models.ivf_probe_us", "us"),
    ("models.score_items_us", "us"),
    ("serve.engine.wait_us_p50", "us"),
    ("serve.engine.avg_batch", "count"),
    ("serve.engine.batches", "count"),
    ("serve.engine.errors", "count"),
    ("serve.protocol.codec_us", "us"),
    ("serve.tcp.overhead_us_p50", "us"),
    ("serve.tcp.latency_p99_ms", "ms"),
    ("serve.swap.swap_ms_p99", "ms"),
    ("serve.swap.count", "count"),
    ("models.artifact_load_ms", "ms"),
    ("core.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("loadgen.failed", "count"),
];

/// What a workload run produced.
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output checks: `(passed, description)`.
    pub checks: Vec<(bool, String)>,
    /// Operations attempted (fits, or requests sent).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Worker threads the workload's program side runs with.
    pub threads: usize,
    /// Latency samples behind `latency_p50_ms`.
    pub latency_sample: usize,
    /// Free-form report lines.
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// An empty outcome for a workload running `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self {
            metrics: BTreeMap::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            threads,
            latency_sample: 0,
            notes: Vec::new(),
            tracer: None,
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check.
    pub fn check(&mut self, passed: bool, what: impl Into<String>) {
        self.checks.push((passed, what.into()));
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("workloads: {}", WORKLOADS.join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The directory runs write their records and span files into.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// CPU feature flags relevant to the kernels, from `/proc/cpuinfo`.
fn cpu_features() -> String {
    const KEEP: [&str; 9] =
        ["sse4_2", "avx", "avx2", "fma", "f16c", "bmi2", "avx512f", "avx512bw", "avx512vl"];
    let flags = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| s.lines().find(|l| l.starts_with("flags")).map(str::to_string))
        .unwrap_or_default();
    let have: Vec<&str> = flags.split_whitespace().collect();
    let kept: Vec<&str> = KEEP.iter().copied().filter(|f| have.contains(f)).collect();
    if kept.is_empty() {
        "unknown".into()
    } else {
        kept.join(",")
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn git_commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(root.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(root.join(reference))
        .or_else(|| {
            read(root.join("packed-refs")).and_then(|packed| {
                packed.lines().find(|l| l.ends_with(reference)).map(|l| l[..40.min(l.len())].into())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The reproducibility stamp every result record carries.
fn host_stamp(args: &Args, threads: usize) -> BTreeMap<&'static str, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    BTreeMap::from([
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("threads", threads.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_features", cpu_features()),
        ("simd", format!("{:?}", bsl_linalg::simd::active())),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("git_commit", git_commit()),
    ])
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!("{}: {{\"value\": {v:?}, \"unit\": {}}}", json_str(n), json_str(u))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = parse_args();
    let mut o = match args.workload.as_str() {
        "train-mf-sampled" => {
            train::run(train::Kind::MfSampled, args.seed, args.seconds, args.trace)
        }
        "train-lgn-inbatch" => {
            train::run(train::Kind::LgnInBatch, args.seed, args.seconds, args.trace)
        }
        "serve-exact" => serve::run(serve::Kind::Exact, args.seed, args.seconds, args.trace),
        "serve-ivf-swap" => serve::run(serve::Kind::IvfSwap, args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} passed validation"),
    };
    // Serving workloads read it before the ladder's upper rungs.
    o.metrics.entry("peak_rss_mib").or_insert_with(peak_rss_mib);

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = match o.metrics.get(name) {
            Some(&v) => v,
            // A layer the workload does not exercise.
            None if args.trace => 0.0,
            None => unreachable!("workload {} did not report {name}", args.workload),
        };
        o.check(value.is_finite(), format!("metric {name} is finite ({value})"));
        metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
    let stamp = host_stamp(&args, o.threads);
    let correct = o.checks.iter().all(|c| c.0);

    let mut out = std::io::stdout().lock();
    let _ =
        writeln!(out, "perfbench {} seed {} trace {}", args.workload, args.seed, args.trace as u8);
    let stamp_line: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(out, "stamp {}", stamp_line.join(" "));
    for n in &o.notes {
        let _ = writeln!(out, "  {n}");
    }
    let _ = writeln!(out, "{:<30} {:>16}  unit", "metric", "value");
    for (name, value, unit) in &metrics {
        let _ = writeln!(out, "{name:<30} {value:>16.6}  {unit}");
    }
    if !args.trace && o.latency_sample > 0 {
        let tail = stats::tail_percentile(o.latency_sample)
            .map_or_else(|| "none".to_string(), |p| format!("p{p}"));
        let _ = writeln!(
            out,
            "latency samples {} (highest supported tail percentile: {tail})",
            o.latency_sample
        );
    }
    if args.trace {
        let get = |k: &str| o.metrics.get(k).copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "ledger: core.coverage_frac {:.4}  trace.overhead_frac {:+.4}",
            get("core.coverage_frac"),
            get("trace.overhead_frac")
        );
    }
    for (passed, what) in &o.checks {
        if !passed {
            let _ = writeln!(out, "CHECK FAILED: {what}");
        }
    }
    let _ = writeln!(
        out,
        "checks: {} of {} passed; fail_frac {}",
        o.checks.iter().filter(|c| c.0).count(),
        o.checks.len(),
        o.failed as f64 / o.attempted.max(1) as f64
    );

    // The run record: stamp + metrics + checks (+ spans when traced).
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let base = format!("{}-seed{}-trace{}", args.workload, args.seed, args.trace as u8);
        let stamp_json: Vec<String> =
            stamp.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
        let checks_json: Vec<String> = o
            .checks
            .iter()
            .map(|(p, w)| format!("{{\"passed\": {p}, \"check\": {}}}", json_str(w)))
            .collect();
        let record = format!(
            "{{\"stamp\": {{{}}}, \"metrics\": {}, \"checks\": [{}]}}\n",
            stamp_json.join(", "),
            json_metrics(&metrics),
            checks_json.join(", ")
        );
        let _ = std::fs::write(dir.join(format!("{base}.json")), record);
        if let Some(tr) = &o.tracer {
            if let Ok(f) = std::fs::File::create(dir.join(format!("{base}.spans.tsv"))) {
                let mut w = std::io::BufWriter::new(f);
                if tr.write_tsv(&mut w).and_then(|()| w.flush()).is_err() {
                    eprintln!("perfbench: could not write the span file");
                }
            }
        }
    }

    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted.max(1),
        o.failed,
        json_metrics(&metrics)
    );
    let _ = out.flush();
    drop(out);
    if !correct {
        std::process::exit(1);
    }
}
