//! `kdv` — command-line kernel density visualization.
//!
//! ```text
//! kdv synth --dataset crime --n 100000 --out crime.csv
//! kdv stats crime.csv
//! kdv render crime.csv --out map.ppm --eps 0.01 --width 640 --height 480
//! kdv render crime.csv --threads 4 --metrics m.json --cost-map cost.ppm --verbose
//! kdv hotspot crime.csv --out hot.ppm --tau-sigma 0.1
//! kdv progressive crime.csv --out quick.ppm --budget-ms 500
//! kdv sample crime.csv --out coreset.csv --eps 0.02 --delta 0.2
//! kdv serve crime.csv --addr 127.0.0.1:8080 --tile-size 256 --max-z 5
//! ```
//!
//! All subcommands read 2-D CSV points (`x,y` per line, optional third
//! weight column with `--weights`); rendering uses QUAD's quadratic
//! bounds with Scott's-rule parameters unless overridden.

mod args;
mod commands;

use std::process::ExitCode;

fn usage() -> &'static str {
    "kdv — QUAD-accelerated kernel density visualization

usage: kdv <command> [args]

commands:
  render       εKDV heat map from CSV points (PPM out)
  hotspot      τKDV two-color hotspot map (PPM out)
  progressive  time-budgeted coarse-to-fine render (PPM out)
  sample       Z-order (ε, δ) coreset extraction (CSV out)
  index        build / inspect / verify KDVS index snapshots
  serve        HTTP tile server: cached z/x/y pyramid + /metrics
  router       consistent-hash reverse proxy over running shards
  cluster      spawn N shards + router: one-command scale-out
  stats        dataset statistics and recommended parameters
  synth        generate an emulated benchmark dataset (CSV out)

run `kdv <command> --help` for flags
"
}

/// Exit code for usage and input-validation errors (the conventional
/// "incorrect usage" code; 1 is reserved for internal failures).
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    // Every malformed input is supposed to surface as a structured
    // `Err` long before anything can panic; this guard is the last
    // line of defense so that even a bug reports one line instead of
    // a backtrace. The hook stays silent — the catch site prints.
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(run);
    match outcome {
        Ok(code) => code,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            eprintln!("internal error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        eprint!("{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    let rest = &raw[1..];
    let parsed = match args::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match command.as_str() {
        "render" => commands::render(&parsed),
        "hotspot" => commands::hotspot(&parsed),
        "progressive" => commands::progressive(&parsed),
        "sample" => commands::sample(&parsed),
        "index" => commands::index(&parsed),
        "serve" => commands::serve(&parsed),
        "router" => commands::router(&parsed),
        "cluster" => commands::cluster(&parsed),
        "stats" => commands::stats(&parsed),
        "synth" => commands::synth(&parsed),
        "--help" | "-h" | "help" => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => {
            commands::warn_unknown_flags(&parsed);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}
