//! Conformance soak CLI: long randomized differential runs of the design
//! registry, with per-case replay.
//!
//! ```text
//! cargo run --release --example conformance -- \
//!     [--design NAME]...     # default: every registered design
//!     [--layers cosim,gates,spec]
//!     [--seed N | 0xHEX]     # master seed (default: CHICALA_SEED or fixed)
//!     [--cases M]            # cases per design per layer (default 200)
//!     [--max-width W]        # width ceiling (default 32)
//!     [--backend B]          # interp | compiled | both (default: CHICALA_SIM_BACKEND or compiled)
//!     [--keep-going]         # report every divergence, not just the first
//!     [--replay 0xHEX]       # re-check one case seed (needs --design)
//!     [--list]               # print the registry and exit
//!     [--json]               # machine-readable report on stdout
//! ```

use chicala::conformance::{
    self, all_designs, Config, Design, Layer, SimBackend,
};
use chicala::telemetry::JsonValue;
use std::process::ExitCode;

/// Renders the soak report as a JSON document (the same data as the
/// summary table, plus every divergence with its replay seed).
fn json_report(report: &conformance::Report, cfg: &Config) -> JsonValue {
    let stats: Vec<JsonValue> = report
        .stats
        .iter()
        .map(|((design, layer), st)| {
            JsonValue::obj()
                .set("design", JsonValue::str(design))
                .set("layer", JsonValue::str(layer.name()))
                .set("cases", JsonValue::int(st.cases as u64))
                .set("skipped", JsonValue::int(st.skipped as u64))
                .set("min_width", JsonValue::int(st.min_width))
                .set("max_width", JsonValue::int(st.max_width))
                .set("width_cap", JsonValue::int(st.width_cap))
                .set("cycles", JsonValue::int(st.cycles))
                .set("elapsed_ns", JsonValue::int(st.elapsed_ns))
                .set(
                    "cases_per_sec",
                    st.cases_per_sec().map(JsonValue::Num).unwrap_or(JsonValue::Null),
                )
        })
        .collect();
    let failures: Vec<JsonValue> = report
        .failures
        .iter()
        .map(|f| {
            JsonValue::obj()
                .set("design", JsonValue::str(&f.design))
                .set("layer", JsonValue::str(f.layer.name()))
                .set("master_seed", JsonValue::str(format!("0x{:016X}", f.master_seed)))
                .set("case_seed", JsonValue::str(format!("0x{:016X}", f.case_seed)))
                .set("max_width", JsonValue::int(f.max_width))
                .set("case", JsonValue::str(f.case.to_string()))
                .set("shrunk", JsonValue::str(f.shrunk.to_string()))
                .set("message", JsonValue::str(&f.message))
        })
        .collect();
    JsonValue::obj()
        .set("seed", JsonValue::str(format!("0x{:016X}", cfg.seed)))
        .set("backend", JsonValue::str(cfg.backend.name()))
        .set("cases_per_layer", JsonValue::int(cfg.cases as u64))
        .set("max_width", JsonValue::int(cfg.max_width))
        .set("stats", JsonValue::Arr(stats))
        .set("failures", JsonValue::Arr(failures))
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

fn main() -> ExitCode {
    let mut cfg = Config {
        cases: 200,
        max_width: 32,
        ..Config::default()
    };
    let mut designs: Vec<String> = Vec::new();
    let mut replay: Option<u64> = None;
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--design" => designs.push(value("--design")),
            "--seed" => cfg.seed = parse_u64(&value("--seed"), "--seed"),
            "--cases" => cfg.cases = parse_u64(&value("--cases"), "--cases") as usize,
            "--max-width" => cfg.max_width = parse_u64(&value("--max-width"), "--max-width"),
            "--backend" => {
                let b = value("--backend");
                cfg.backend = SimBackend::parse(&b)
                    .unwrap_or_else(|| fail(&format!("unknown backend {b:?}")));
            }
            "--layers" => {
                cfg.layers = value("--layers")
                    .split(',')
                    .map(|s| {
                        Layer::parse(s.trim())
                            .unwrap_or_else(|| fail(&format!("unknown layer {s:?}")))
                    })
                    .collect();
            }
            "--keep-going" => cfg.stop_at_first = false,
            "--json" => json = true,
            "--replay" => replay = Some(parse_u64(&value("--replay"), "--replay")),
            "--list" => {
                for d in all_designs() {
                    println!(
                        "{:<10} inputs={:<2} min_width={} gate_max_width={}",
                        d.name,
                        d.inputs.len(),
                        d.min_width,
                        d.gate_max_width
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("conformance soak runner; see the doc comment of examples/conformance.rs");
                println!(
                    "usage: conformance [--design NAME]... [--layers L,..] [--seed N] \
                     [--cases M] [--max-width W] [--backend interp|compiled|both] \
                     [--keep-going] [--replay 0xHEX] [--list] [--json]"
                );
                return ExitCode::SUCCESS;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let selected: Vec<Design> = if designs.is_empty() {
        all_designs()
    } else {
        designs
            .iter()
            .map(|n| {
                Design::by_name(n)
                    .unwrap_or_else(|| fail(&format!("unknown design {n:?}; try --list")))
            })
            .collect()
    };

    // Single-case replay mode.
    if let Some(case_seed) = replay {
        if selected.len() != 1 || designs.is_empty() {
            fail("--replay needs exactly one --design");
        }
        let d = &selected[0];
        println!("replaying {} case 0x{case_seed:016X} (--max-width {})", d.name, cfg.max_width);
        let mut bad = false;
        for &layer in &cfg.layers {
            // Regenerate per layer: the gate layer bounds cycles, so the
            // replayed case must match what the runner actually ran.
            let case = conformance::gen_case_for(d, layer, case_seed, cfg.max_width);
            match conformance::check_case(d, layer, &case) {
                Ok(cycles) => println!("  {layer}: ok ({case}, {cycles} cycles)"),
                Err(e) => {
                    println!("  {layer}: DIVERGED ({case}): {e}");
                    bad = true;
                }
            }
        }
        return if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }

    if !json {
        println!(
            "conformance soak: {} design(s), layers [{}], {} cases each, widths up to {}, backend {}, master seed 0x{:016X}",
            selected.len(),
            cfg.layers.iter().map(|l| l.name()).collect::<Vec<_>>().join(", "),
            cfg.cases,
            cfg.max_width,
            cfg.backend.name(),
            cfg.seed
        );
    }
    let mut report = conformance::Report::default();
    for d in &selected {
        let r = conformance::run_design(d, &cfg);
        report.stats.extend(r.stats);
        report.failures.extend(r.failures);
    }
    if json {
        println!("{}", json_report(&report, &cfg).pretty());
        return if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    println!("\n{}", report.summary_table());
    if report.ok() {
        println!("no divergence found");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            eprintln!("{f}\n");
        }
        eprintln!("{} divergence(s)", report.failures.len());
        ExitCode::FAILURE
    }
}
