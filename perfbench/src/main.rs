//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload from the repository root and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`; the
//! line before it records the host. `--trace 1` times every public
//! stage call and also writes the spans to
//! `.bench_out/spans-<workload>-seed<n>.jsonl`.
//!
//! `perfbench pin --seeds <a>-<b>` prints the digests the matrix
//! (oracle) backend produces for every workload and seed in the range,
//! in the format of `perfbench/pinned.txt`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fieldclust::{FieldTypeClusterer, NeighborBackend};
use perfbench::host::{host_json, pinned_threads};
use perfbench::metrics::result_json;
use perfbench::{run, Outcome, Settings, Workload, WORKLOADS};

/// Digests recorded from the matrix backend: `<workload> <messages>
/// <seed> <capture> <sha256>` per line.
const PINNED: &str = include_str!("../pinned.txt");

const OUT_DIR: &str = ".bench_out";

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench pin --seeds <a>-<b>",
        names.join("|")
    );
    ExitCode::from(2)
}

/// Per capture of `w` at `seed`, the pinned digest if there is one.
fn pinned_digests(w: &Workload, seed: u64) -> Vec<Option<String>> {
    let mut pins = vec![None; w.captures];
    for line in PINNED.lines().filter(|l| !l.starts_with('#')) {
        if let [name, messages, s, capture, digest] =
            line.split_whitespace().collect::<Vec<_>>()[..]
        {
            if name == w.name && messages.parse() == Ok(w.messages) && s.parse() == Ok(seed) {
                if let Some(pin) = capture.parse::<usize>().ok().and_then(|c| pins.get_mut(c)) {
                    *pin = Some(digest.to_string());
                }
            }
        }
    }
    pins
}

fn clusterer(backend: NeighborBackend) -> FieldTypeClusterer {
    FieldTypeClusterer {
        threads: pinned_threads(),
        neighbor_backend: backend,
        ..FieldTypeClusterer::default()
    }
}

fn work_dir() -> PathBuf {
    Path::new(OUT_DIR).join(format!("work-{}", std::process::id()))
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin") {
        return pin(&args[1..]);
    }
    let workload = flag(&args, "--workload").and_then(Workload::by_name);
    let seed = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    let seconds = flag(&args, "--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0);
    let trace = match flag(&args, "--trace") {
        Some("0") | None => Some(false),
        Some("1") => Some(true),
        Some(_) => None,
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };

    let settings = Settings {
        workload,
        seed,
        seconds,
        trace,
        clusterer: clusterer(NeighborBackend::Auto),
        pinned: pinned_digests(&workload, seed),
        work_dir: work_dir(),
    };
    let outcome = match run(&settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let host = host_json(Path::new("."), workload.name, seed, trace, outcome.ops);
    if trace {
        let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{seed}.jsonl", workload.name));
        let body = format!("{host}\n{}", outcome.tracer.spans_jsonl());
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{host}");
    println!(
        "{}",
        result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}

/// Prints matrix-backend digests for every workload and seed in range.
fn pin(args: &[String]) -> ExitCode {
    let range = flag(args, "--seeds").and_then(|r| {
        let (a, b) = r.split_once('-')?;
        Some(a.parse::<u64>().ok()?..=b.parse::<u64>().ok()?)
    });
    let Some(range) = range else {
        return usage();
    };
    for seed in range {
        for w in WORKLOADS {
            let settings = Settings {
                workload: w,
                seed,
                seconds: 0.0,
                trace: false,
                clusterer: clusterer(NeighborBackend::Matrix),
                pinned: vec![None; w.captures],
                work_dir: work_dir(),
            };
            match run(&settings) {
                Ok(Outcome {
                    correct: true,
                    digests,
                    ..
                }) => {
                    for (i, d) in digests.iter().enumerate() {
                        let d = d
                            .as_deref()
                            .expect("a correct run has a digest per capture");
                        println!("{} {} {seed} {i} {d}", w.name, w.messages);
                    }
                }
                Ok(_) => {
                    eprintln!("perfbench: {} seed {seed}: oracle run incorrect", w.name);
                    return ExitCode::from(1);
                }
                Err(e) => {
                    eprintln!("perfbench: {} seed {seed}: {e}", w.name);
                    return ExitCode::from(1);
                }
            }
        }
    }
    ExitCode::SUCCESS
}
