//! The contract run: `--workload <name> --seed <n> --seconds <s> --trace
//! <0|1>`. Measures one workload for `seconds` and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use crate::json::Json;
use crate::metrics::{Summary, END_TO_END, PER_LAYER};
use crate::suite::{self, Outcome};
use crate::workloads::Workload;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions a timed run makes at the least, however short `--seconds`.
const MIN_REPETITIONS: u64 = 3;

/// Untraced: fresh-process repetitions with trace seeds `seed`, `seed + 1`,
/// … until another would overrun `seconds`, then one more on `seed` again,
/// whose digest must equal the first's. End-to-end metrics are medians over
/// the repetitions.
fn timed(
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> (Outcome, Vec<(&'static str, &'static str, f64)>) {
    let mut outcome = Outcome::default();
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rep = 0;
    loop {
        outcome.attempt(w, seed + rep, 1);
        rep += 1;
        // Leave room for the repeat of the first seed.
        let per_rep = start.elapsed() / rep as u32;
        if rep + 1 >= MIN_REPETITIONS && start.elapsed() + 2 * per_rep > window {
            break;
        }
    }
    outcome.attempt(w, seed, 1);

    // Outside the measured window: the threaded workload's simulated
    // counters must equal its serial twin's on the same seed.
    if let Some(serial) = w.twin() {
        let mut twin = Outcome::default();
        twin.attempt(serial, seed, 1);
        outcome.attempted += twin.attempted;
        outcome.failures.append(&mut twin.failures);
        outcome.check_twin(w.name, &twin.samples);
    }

    suite::print_end_to_end(w, &outcome);
    let metrics = if outcome.samples.is_empty() {
        Vec::new()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, Summary::of(&outcome.values(m.of)).median))
            .collect()
    };
    (outcome, metrics)
}

/// Runs the contract command; returns whether the outputs were correct.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> bool {
    let (attempted, failures, metrics) = if traced {
        match suite::traced_pass(w, seed, 1, out_dir) {
            Ok(values) => {
                suite::print_per_layer(&values);
                let metrics = values
                    .iter()
                    .zip(&PER_LAYER)
                    .map(|((name, value), m)| (*name, m.unit, *value))
                    .collect();
                (1, Vec::new(), metrics)
            }
            Err(reason) => {
                println!("  FAILED {reason}");
                (1, vec![reason], Vec::new())
            }
        }
    } else {
        let (outcome, metrics) = timed(w, seed, seconds);
        (outcome.attempted, outcome.failures, metrics)
    };
    let correct = failures.is_empty() && !metrics.is_empty();
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failures.len() as u64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, value)| {
                (
                    *name,
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
    correct
}
