//! Generative fuzzing CLI: soak seeded random Chisel-subset modules
//! through every pipeline layer (structural checks, transform, five-way
//! differential cosim, gate-level self-miter), shrinking any divergence to
//! a minimal reproducer.
//!
//! ```text
//! cargo run --release --example gen_soak -- \
//!     [--seed N | 0xHEX]     # master seed (default: CHICALA_GEN_SEED or fixed)
//!     [--modules M]          # generated modules (default 1000)
//!     [--max-width W]        # cosim width ceiling (default 16)
//!     [--keep-going]         # collect every divergence, not just the first
//!     [--replay 0xHEX]       # re-check one case seed and exit
//!     [--corpus]             # replay the committed regression corpus and exit
//!     [--json]               # machine-readable report on stdout
//! ```
//!
//! On divergence the corpus line (`gg <seed> <width>`) to append to
//! `proptest-regressions/generated.txt` is printed alongside the shrunk
//! reproducer.

use chicala::gen::{self, SoakConfig, SoakReport};
use chicala::telemetry::JsonValue;
use std::process::ExitCode;

fn json_report(report: &SoakReport, cfg: &SoakConfig) -> JsonValue {
    let divergences: Vec<JsonValue> = report
        .divergences
        .iter()
        .map(|d| {
            JsonValue::obj()
                .set("case_seed", JsonValue::str(format!("0x{:016X}", d.case_seed)))
                .set("max_width", JsonValue::int(d.max_width))
                .set("corpus_line", JsonValue::str(d.corpus_line()))
                .set("message", JsonValue::str(&d.message))
                .set("original_nodes", JsonValue::int(d.original_nodes))
                .set("shrunk_nodes", JsonValue::int(d.shrunk_nodes))
                .set("shrunk_message", JsonValue::str(&d.shrunk_message))
                .set("shrunk_module", JsonValue::str(format!("{:?}", d.shrunk)))
                .set("replay_line", JsonValue::str(d.replay_line()))
                .set(
                    "bundle",
                    d.bundle
                        .as_ref()
                        .map(|p| JsonValue::str(p.display().to_string()))
                        .unwrap_or(JsonValue::Null),
                )
        })
        .collect();
    JsonValue::obj()
        .set("seed", JsonValue::str(format!("0x{:016X}", cfg.seed)))
        .set("modules", JsonValue::int(report.modules as u64))
        .set("max_width", JsonValue::int(cfg.max_width))
        .set("elapsed_ns", JsonValue::int(report.elapsed.as_nanos() as u64))
        .set(
            "modules_per_sec",
            report.modules_per_sec().map(JsonValue::Num).unwrap_or(JsonValue::Null),
        )
        .set("divergences", JsonValue::Arr(divergences))
        .set("ok", JsonValue::Bool(report.ok()))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2);
}

fn parse_u64(s: &str, what: &str) -> u64 {
    let parsed = if let Some(h) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(h, 16)
    } else {
        s.parse()
    };
    parsed.unwrap_or_else(|_| fail(&format!("{what} is not a u64: {s:?}")))
}

fn print_divergence(d: &gen::SoakDivergence) {
    eprintln!("DIVERGENCE (append to proptest-regressions/generated.txt):");
    eprintln!("  {}", d.corpus_line());
    eprintln!("  original: {} nodes: {}", d.original_nodes, d.message);
    eprintln!("  shrunk:   {} nodes: {}", d.shrunk_nodes, d.shrunk_message);
    eprintln!("  replay:   {}", d.replay_line());
    if let Some(bundle) = &d.bundle {
        eprintln!("  bundle:   {}", bundle.display());
    }
    eprintln!("  reproducer:\n{:#?}", d.shrunk);
}

fn main() -> ExitCode {
    let mut cfg = SoakConfig { modules: 1000, ..SoakConfig::default() };
    let mut replay: Option<u64> = None;
    let mut corpus = false;
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--seed" => cfg.seed = parse_u64(&value("--seed"), "--seed"),
            "--modules" => cfg.modules = parse_u64(&value("--modules"), "--modules") as usize,
            "--max-width" => cfg.max_width = parse_u64(&value("--max-width"), "--max-width"),
            "--keep-going" => cfg.stop_at_first = false,
            "--replay" => replay = Some(parse_u64(&value("--replay"), "--replay")),
            "--corpus" => corpus = true,
            "--json" => json = true,
            "--help" | "-h" => {
                println!("generative design fuzzer; see the doc comment of examples/gen_soak.rs");
                println!(
                    "usage: gen_soak [--seed N] [--modules M] [--max-width W] \
                     [--keep-going] [--replay 0xHEX] [--corpus] [--json]"
                );
                return ExitCode::SUCCESS;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    // Committed-corpus replay mode.
    if corpus {
        let entries = gen::corpus_entries().unwrap_or_else(|e| fail(&e));
        println!("replaying {} committed corpus entr(ies)", entries.len());
        let mut bad = false;
        for r in &entries {
            match gen::run_case(r.case_seed, r.max_width) {
                Ok(()) => println!("  gg 0x{:016X} {}: ok", r.case_seed, r.max_width),
                Err(d) => {
                    println!("  gg 0x{:016X} {}: STILL DIVERGES", r.case_seed, r.max_width);
                    print_divergence(&d);
                    bad = true;
                }
            }
        }
        return if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }

    // Single-case replay mode.
    if let Some(case_seed) = replay {
        println!("replaying case 0x{case_seed:016X} (--max-width {})", cfg.max_width);
        return match gen::run_case(case_seed, cfg.max_width) {
            Ok(()) => {
                println!("  ok: every layer agrees");
                ExitCode::SUCCESS
            }
            Err(d) => {
                print_divergence(&d);
                ExitCode::FAILURE
            }
        };
    }

    if !json {
        println!(
            "gen soak: {} modules, widths up to {}, master seed 0x{:016X}",
            cfg.modules, cfg.max_width, cfg.seed
        );
    }
    let report = gen::soak(&cfg);
    if json {
        println!("{}", json_report(&report, &cfg).pretty());
        return if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    println!(
        "checked {} modules in {:.1}s ({:.0} modules/s)",
        report.modules,
        report.elapsed.as_secs_f64(),
        report.modules_per_sec().unwrap_or(0.0)
    );
    if report.ok() {
        println!("no divergence found");
        ExitCode::SUCCESS
    } else {
        for d in &report.divergences {
            print_divergence(d);
        }
        eprintln!("{} divergence(s)", report.divergences.len());
        ExitCode::FAILURE
    }
}
