//! Regenerates the paper's figures: runs each named entry of
//! `virtuoso_bench::FIGURES` and prints its table.
//!
//! Usage: `cargo run --release -p virtuoso_bench --bin figs -- [--jobs N] [--scale S] <id>... | all`
//!
//! `--scale` multiplies every workload's instruction budget (default 1).
//! `--jobs` is the number of host threads each figure spreads its cells
//! over (default: the host's available parallelism); the tables are the
//! same at any value. `all` runs every figure in table order.

use std::process::ExitCode;
use virtuoso_bench::{Figure, FIGURES};

/// A checked command line.
#[derive(Debug)]
struct Command {
    jobs: usize,
    scale: u64,
    figures: Vec<&'static Figure>,
}

/// Parses the arguments after the program name. `--jobs` and `--scale`
/// take a positive integer as the next argument.
fn parse(args: &[String], default_jobs: usize) -> Result<Command, String> {
    let mut command = Command {
        jobs: default_jobs,
        scale: 1,
        figures: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            flag @ ("--jobs" | "--scale") => {
                let value = args.next().ok_or(format!("{flag} needs a value"))?;
                let n = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("{flag} takes a positive integer, not {value:?}"))?;
                if flag == "--jobs" {
                    command.jobs = n as usize;
                } else {
                    command.scale = n;
                }
            }
            "all" => command.figures.extend(FIGURES),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            id => command.figures.push(
                FIGURES
                    .iter()
                    .find(|f| f.id == id)
                    .ok_or(format!("unknown figure id {id:?}"))?,
            ),
        }
    }
    if command.figures.is_empty() {
        return Err("name at least one figure id, or all".into());
    }
    Ok(command)
}

fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    format!(
        "usage: figs [--jobs N] [--scale S] <id>... | all\nids: {}",
        ids.join(" ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default_jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let command = match parse(&args, default_jobs) {
        Ok(command) => command,
        Err(error) => {
            eprintln!("figs: {error}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for figure in command.figures {
        println!("{}", (figure.run)(command.scale, command.jobs).render());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args, 3)
    }

    #[test]
    fn a_full_command_line_is_accepted() {
        let command = parse_line("--jobs 2 --scale 4 fig01 pt_sweep").expect("valid");
        assert_eq!((command.jobs, command.scale), (2, 4));
        let ids: Vec<&str> = command.figures.iter().map(|f| f.id).collect();
        assert_eq!(ids, ["fig01", "pt_sweep"]);
        let command = parse_line("all").expect("valid");
        assert_eq!((command.jobs, command.scale), (3, 1), "the defaults");
        assert_eq!(command.figures.len(), FIGURES.len());
    }

    #[test]
    fn bad_input_is_rejected_not_defaulted() {
        for line in [
            "fig99",
            "--scale x fig01",
            "--scale 0 fig01",
            "--scale -1 fig01",
            "--jobs 0 fig01",
            "--jobs foo fig01",
            "fig01 --jobs",
            "--verbose fig01",
            "-j 2 fig01",
            "--jobs=2 fig01",
            "--jobs 2",
            "",
        ] {
            assert!(parse_line(line).is_err(), "{line:?} must be rejected");
        }
    }
}
