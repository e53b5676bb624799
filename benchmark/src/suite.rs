//! The parent side of the harness: runs every repetition in a fresh child
//! process, applies the cross-repetition output checks, and summarises.

use crate::json::Json;
use crate::metrics::{Summary, END_TO_END, PER_LAYER};
use crate::sample::Sample;
use crate::workloads::{self, Workload};
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `vmbench <args>` as a child process and parses the JSON object on
/// the last line of its standard output. The child's standard error passes
/// through, so a panic message reaches the user.
fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating vmbench: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child {} ended with {}",
            args.join(" "),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("child {} printed no result: {e}", args.join(" ")))
}

/// One untraced repetition in a fresh process. A repetition that panics,
/// or whose own output checks fail, comes back as `Err` with the reason.
pub fn repetition(w: &Workload, seed: u64, scale_div: u64) -> Result<Sample, String> {
    let args = ["child", w.name, &seed.to_string(), &scale_div.to_string()].map(String::from);
    let json = run_child(&args)?;
    let sample = Sample::from_json(&json).ok_or("child printed a malformed sample")?;
    match &sample.failure {
        Some(reason) => Err(format!("{} seed {seed}: {reason}", w.name)),
        None => Ok(sample),
    }
}

/// The traced pass in a fresh process: the per-layer values in
/// [`PER_LAYER`] order. The child writes `trace_<workload>.json` into
/// `out_dir`.
pub fn traced_pass(
    w: &Workload,
    seed: u64,
    scale_div: u64,
    out_dir: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let args = [
        "child-traced",
        w.name,
        &seed.to_string(),
        &scale_div.to_string(),
        &out_dir.to_string_lossy(),
    ]
    .map(String::from);
    let json = run_child(&args)?;
    if let Some(reason) = json.get("failure").and_then(Json::as_str) {
        return Err(format!("{} traced pass: {reason}", w.name));
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let value = json.get("per_layer")?.get(m.name)?.as_f64()?;
            Some((m.name, value))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{} traced pass printed a malformed result", w.name))
}

/// The repetitions of one workload and what went wrong with them. An
/// operation is one repetition.
#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    /// Runs one repetition and files it. Its digest must equal that of any
    /// earlier repetition with the same seed.
    pub fn attempt(&mut self, w: &Workload, seed: u64, scale_div: u64) {
        self.attempted += 1;
        match repetition(w, seed, scale_div) {
            Ok(sample) => {
                if let Some(earlier) = self.samples.iter().find(|s| s.seed == seed) {
                    if earlier.digest != sample.digest {
                        self.failures.push(format!(
                            "{} seed {seed}: stats_digest {:016x} differs from an earlier repetition's {:016x}",
                            w.name, sample.digest, earlier.digest
                        ));
                        return;
                    }
                }
                self.samples.push(sample);
            }
            Err(reason) => self.failures.push(reason),
        }
    }

    /// Checks `other` (the serial twin's repetitions) against this
    /// workload's: equal seeds must give equal digests — the byte-identical
    /// `--threads` contract, observed from outside.
    pub fn check_twin(&mut self, name: &str, other: &[Sample]) {
        for twin in other {
            if let Some(sample) = self.samples.iter().find(|s| s.seed == twin.seed) {
                if sample.digest != twin.digest {
                    self.failures.push(format!(
                        "{name} seed {}: stats_digest {:016x} differs from its serial twin's {:016x}",
                        twin.seed, sample.digest, twin.digest
                    ));
                }
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// One value per good repetition.
    pub fn values(&self, of: fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(of).collect()
    }

    /// The digest of the lowest-seeded good repetition.
    pub fn digest(&self) -> Option<u64> {
        self.samples.iter().min_by_key(|s| s.seed).map(|s| s.digest)
    }
}

fn summary_json(summary: &Summary, unit: &str, values: &[f64]) -> Json {
    Json::obj([
        ("unit", Json::from(unit)),
        ("median", Json::from(summary.median)),
        ("q1", Json::from(summary.q1)),
        ("q3", Json::from(summary.q3)),
        ("min", Json::from(summary.min)),
        ("max", Json::from(summary.max)),
        ("n", Json::from(summary.n as u64)),
        (
            "values",
            Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
        ),
    ])
}

/// The per-repetition quantities the suite summarises: the end-to-end
/// metrics, and wall seconds beside them.
fn reported() -> impl Iterator<Item = (&'static str, &'static str, fn(&Sample) -> f64)> {
    let wall: fn(&Sample) -> f64 = |s| s.wall_s;
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.of))
        .chain([("wall_s", "s", wall)])
}

/// One workload's entry in `results.json`.
pub fn workload_json(
    w: &Workload,
    outcome: &Outcome,
    per_layer: &Result<Vec<(&'static str, f64)>, String>,
) -> Json {
    let mut end_to_end = Vec::new();
    if !outcome.samples.is_empty() {
        for (name, unit, of) in reported() {
            let values = outcome.values(of);
            end_to_end.push((name, summary_json(&Summary::of(&values), unit, &values)));
        }
    }
    let layers = match per_layer {
        Ok(values) => Json::obj(values.iter().zip(&PER_LAYER).map(|((name, value), m)| {
            (
                *name,
                Json::obj([("value", Json::from(*value)), ("unit", Json::from(m.unit))]),
            )
        })),
        Err(_) => Json::Null,
    };
    let mut failures: Vec<Json> = outcome.failures.iter().cloned().map(Json::from).collect();
    if let Err(reason) = per_layer {
        failures.push(Json::from(reason.as_str()));
    }
    Json::obj([
        ("name", Json::from(w.name)),
        ("why", Json::from(w.why)),
        ("ops_attempted", Json::from(outcome.attempted)),
        ("ops_failed", Json::from(outcome.failed())),
        (
            "stats_digest",
            outcome
                .digest()
                .map_or(Json::Null, |d| Json::from(format!("{d:016x}"))),
        ),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", layers),
        ("failures", Json::Arr(failures)),
    ])
}

/// Prints one workload's end-to-end rows: median, quartiles, minimum and
/// sample count, for the gating metrics and for wall time.
pub fn print_end_to_end(w: &Workload, outcome: &Outcome) {
    println!(
        "{:<13} ops_failed/ops_attempted {}/{}",
        w.name,
        outcome.failed(),
        outcome.attempted
    );
    for reason in &outcome.failures {
        println!("  FAILED {reason}");
    }
    if outcome.samples.is_empty() {
        return;
    }
    for (name, unit, of) in reported() {
        let s = Summary::of(&outcome.values(of));
        println!(
            "  {name:<13} median {:>12.6} {unit:<5} q1 {:>12.6} q3 {:>12.6} min {:>12.6} n {}",
            s.median, s.q1, s.q3, s.min, s.n
        );
    }
}

pub fn print_per_layer(values: &[(&'static str, f64)]) {
    for ((name, value), m) in values.iter().zip(&PER_LAYER) {
        println!("  {name:<40} {value:>16.6} {}", m.unit);
    }
}

/// The suite run by `vmbench run`: `reps` repetitions of every workload,
/// interleaved round-robin so host drift hits all rows equally, then one
/// traced pass per workload. Repetition `j` runs trace seed `seed + j`,
/// except the last, which runs `seed` again so that its digest is checked
/// against the first's. Returns the results document and whether every
/// operation succeeded.
pub fn run_set(
    seed: u64,
    reps: u64,
    scale_div: u64,
    out_dir: &Path,
    header: &[(&str, Json)],
) -> (Json, bool) {
    let mut outcomes: Vec<Outcome> = workloads::ALL.iter().map(|_| Outcome::default()).collect();
    for rep in 0..reps {
        let rep_seed = if rep + 1 == reps { seed } else { seed + rep };
        for (w, outcome) in workloads::ALL.iter().zip(&mut outcomes) {
            outcome.attempt(w, rep_seed, scale_div);
        }
    }
    let index_of = |name: &str| workloads::ALL.iter().position(|w| w.name == name);
    for (index, w) in workloads::ALL.iter().enumerate() {
        if let Some(twin) = w.serial_twin.and_then(index_of) {
            let twin_samples = outcomes[twin].samples.clone();
            outcomes[index].check_twin(w.name, &twin_samples);
        }
    }

    let mut entries = Vec::new();
    let mut all_ok = true;
    for (w, outcome) in workloads::ALL.iter().zip(&outcomes) {
        let mut per_layer = traced_pass(w, seed, scale_div, out_dir);
        // A single traced run gives one noisy speed-up sample; the medians
        // of the untraced repetitions give the number to cite.
        if let (Ok(values), Some(twin)) = (&mut per_layer, w.serial_twin.and_then(index_of)) {
            let serial = &outcomes[twin];
            if !serial.samples.is_empty() && !outcome.samples.is_empty() {
                let speedup = Summary::of(&outcome.values(Sample::sim_mips)).median
                    / Summary::of(&serial.values(Sample::sim_mips)).median;
                for (name, value) in values.iter_mut() {
                    if *name == "virtuoso.thread_speedup" {
                        *value = speedup;
                    }
                }
            }
        }
        print_end_to_end(w, outcome);
        match &per_layer {
            Ok(values) => print_per_layer(values),
            Err(reason) => println!("  FAILED {reason}"),
        }
        all_ok &= outcome.failures.is_empty() && per_layer.is_ok();
        entries.push(workload_json(w, outcome, &per_layer));
    }

    let mut document: Vec<(String, Json)> =
        vec![("schema".to_string(), Json::from("vmbench-results-v1"))];
    document.extend(header.iter().map(|(k, v)| (k.to_string(), v.clone())));
    document.extend([
        ("seed".to_string(), Json::from(seed)),
        ("repetitions".to_string(), Json::from(reps)),
        ("budget_divisor".to_string(), Json::from(scale_div)),
        ("nproc".to_string(), Json::from(crate::host::nproc() as u64)),
        (
            "accuracy".to_string(),
            Json::from("model unvalidated; no error figure"),
        ),
        ("workloads".to_string(), Json::Arr(entries)),
    ]);
    (Json::Obj(document), all_ok)
}
