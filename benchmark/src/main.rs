//! `vmbench`: the repository benchmark.
//!
//! ```text
//! vmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                      one contract run (what BENCHMARK.json's command does)
//! vmbench run [--seed S] [--sets K] [--smoke] [--commit C] [--date D]
//!                      the whole suite: every workload, end-to-end and
//!                      per-layer metrics, results.json and span files
//! vmbench compare A.json B.json
//! vmbench manifest     BENCHMARK.json, generated from the metric tables
//! ```
//!
//! `child` and `child-traced` are the harness's own re-exec targets.

mod compare;
mod driver;
mod host;
mod json;
mod metrics;
mod replay;
mod sample;
mod suite;
mod trace;
mod traced;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How long one contract run measures (`run_seconds` in BENCHMARK.json).
const RUN_SECONDS: u64 = 16;

/// Repetitions per workload of a full suite run (`--smoke`: 2).
const SUITE_REPETITIONS: u64 = 11;

/// Where results and span files go: inside the benchmark's own directory of
/// the checkout the binary was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The value following flag `name`, if the flag is present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("bad value for {name}: {text}")),
    }
}

fn workload(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

fn write_json(path: &Path, document: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{document}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// BENCHMARK.json, from the workload and metric tables.
fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(["bash", "benchmark/run.sh"].map(Json::from).to_vec()),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `vmbench run`: the suite, `--sets` times; two or more sets are compared
/// with each other (self-agreement).
fn run_suite(args: &[String]) -> Result<bool, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = parsed(args, "--seed", 1u64)?;
    let sets = parsed(args, "--sets", 1u64)?;
    let (reps, scale_div, dir) = if smoke {
        (2, 100, out_dir().join("smoke"))
    } else {
        (SUITE_REPETITIONS, 1, out_dir())
    };
    let header = [
        (
            "commit",
            Json::from(flag(args, "--commit").unwrap_or("unknown")),
        ),
        (
            "date",
            Json::from(flag(args, "--date").unwrap_or("unknown")),
        ),
    ];
    let mut all_ok = true;
    let mut documents = Vec::new();
    for set in 1..=sets {
        println!("== set {set} of {sets}: seed {seed}, {reps} repetitions per workload, budgets / {scale_div}");
        let (document, ok) = suite::run_set(seed, reps, scale_div, &dir, &header);
        all_ok &= ok;
        let name = if set == 1 {
            "results.json".to_string()
        } else {
            format!("results_set{set}.json")
        };
        write_json(&dir.join(&name), &document)?;
        println!("wrote {}", dir.join(name).display());
        documents.push(document);
    }
    for later in documents.iter().skip(1) {
        println!("== self-agreement: set 1 (A) against a later set (B)");
        all_ok &= compare::compare(&documents[0], later)?;
    }
    Ok(all_ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("child") | Some("child-traced") => {
            let [_, name, seed, scale_div, rest @ ..] = args else {
                return Err("child <workload> <seed> <budget divisor>".to_string());
            };
            let w = workload(name)?;
            let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
            let scale_div: u64 = scale_div.parse().map_err(|_| "bad budget divisor")?;
            if args[0] == "child" {
                println!("{}", sample::measure(w, seed, scale_div).to_json());
                return Ok(true);
            }
            let [dir] = rest else {
                return Err("child-traced <workload> <seed> <budget divisor> <out dir>".to_string());
            };
            let traced = traced::run(w, seed, scale_div);
            write_json(
                &Path::new(dir).join(format!("trace_{}.json", w.name)),
                &traced.trace.to_json(w.name),
            )?;
            let result = Json::obj([
                (
                    "per_layer",
                    Json::obj(traced.per_layer.iter().map(|(k, v)| (*k, Json::from(*v)))),
                ),
                (
                    "failure",
                    traced.failure.as_deref().map_or(Json::Null, Json::from),
                ),
            ]);
            println!("{result}");
            Ok(true)
        }
        Some("run") => run_suite(&args[1..]),
        Some("compare") => match args {
            [_, a, b] => compare::compare(&read_json(a)?, &read_json(b)?),
            _ => Err("compare A.json B.json".to_string()),
        },
        Some("manifest") => {
            println!("{}", manifest());
            Ok(true)
        }
        _ if flag(args, "--workload").is_some() => {
            let w = workload(flag(args, "--workload").unwrap_or_default())?;
            let seed = parsed(args, "--seed", 1u64)?;
            let seconds = parsed(args, "--seconds", RUN_SECONDS as f64)?;
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err(format!("--seconds must be positive, got {seconds}"));
            }
            let traced = parsed(args, "--trace", 0u8)? != 0;
            Ok(driver::run(w, seed, seconds, traced, &out_dir()))
        }
        _ => Err("usage: vmbench run|compare|manifest|--workload <name> --seed <n> --seconds <s> --trace <0|1>".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("vmbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is generated (`run.sh manifest`); it must not drift
    /// from the tables it is generated from.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = read_json(&path.to_string_lossy()).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with benchmark/run.sh manifest"
        );
        assert!(on_disk.to_string().len() < 64 * 1024);
    }
}
