//! Replays a self-contained failure bundle captured by the conformance
//! engine or the generative fuzzer (see `crates/trace/src/bundle.rs` for
//! the JSON schema).
//!
//! ```text
//! cargo run --release --example replay -- --bundle target/chicala-failures/<stem>.json
//! ```
//!
//! The bundle carries the case seed, width cap, design/layer, simulation
//! backend, and the original divergence message; replaying regenerates
//! exactly the same case from the seed and re-checks it under the
//! bundle's backend (`sim_backend`). Exit code 0 means the failure
//! reproduced **byte-identically** (same divergence message); 1 means it
//! did not (the case now passes, or diverges differently — either way the
//! captured failure is stale); 2 is a usage or load error.

use chicala::conformance::{check_case_with, gen_case_for, Design, Layer, SimBackend};
use chicala::gen;
use chicala::trace::ReplayBundle;
use std::path::Path;
use std::process::ExitCode;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: replay --bundle <path/to/bundle.json>");
    std::process::exit(2);
}

/// Re-checks the bundle's case; `Some(message)` when it still diverges.
fn rerun(bundle: &ReplayBundle) -> Result<Option<String>, String> {
    match bundle.kind.as_str() {
        "conformance" => {
            let d = Design::by_name(&bundle.design)
                .ok_or_else(|| format!("unknown design `{}`", bundle.design))?;
            let layer = Layer::parse(&bundle.layer)
                .ok_or_else(|| format!("unknown layer `{}`", bundle.layer))?;
            let backend = SimBackend::parse(&bundle.sim_backend)
                .ok_or_else(|| format!("unknown sim backend `{}`", bundle.sim_backend))?;
            let case = gen_case_for(&d, layer, bundle.case_seed, bundle.max_width);
            Ok(check_case_with(&d, layer, &case, backend).err())
        }
        "gen" => Ok(gen::run_case(bundle.case_seed, bundle.max_width)
            .err()
            .map(|d| d.shrunk_message)),
        other => Err(format!("unknown bundle kind `{other}`")),
    }
}

fn main() -> ExitCode {
    let mut bundle_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bundle" => {
                bundle_path =
                    Some(args.next().unwrap_or_else(|| fail("--bundle needs a value")));
            }
            "--help" | "-h" => {
                println!("replays a captured failure bundle; see examples/replay.rs");
                println!("usage: replay --bundle <path/to/bundle.json>");
                return ExitCode::SUCCESS;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let Some(path) = bundle_path else { fail("--bundle is required") };
    let bundle = match ReplayBundle::load(Path::new(&path)) {
        Ok(b) => b,
        Err(e) => fail(&e),
    };

    println!("replaying bundle {path}");
    println!(
        "  kind={} design={} layer={} sim_backend={} case=0x{:016X} max_width={} (captured at {})",
        bundle.kind, bundle.design, bundle.layer, bundle.sim_backend, bundle.case_seed,
        bundle.max_width, bundle.git_rev
    );
    if let Some(d) = &bundle.divergence {
        println!("  captured divergence: {d}");
    }
    for vcd in &bundle.vcd_files {
        println!("  waveform: {vcd}");
    }

    match rerun(&bundle) {
        Err(e) => fail(&e),
        Ok(None) => {
            println!("  NOT REPRODUCED: the case passes every layer now");
            ExitCode::FAILURE
        }
        Ok(Some(message)) if message == bundle.message => {
            println!("  REPRODUCED: divergence message matches byte for byte");
            println!("    {message}");
            ExitCode::SUCCESS
        }
        Ok(Some(message)) => {
            println!("  DIVERGES DIFFERENTLY (captured failure is stale):");
            println!("    captured: {}", bundle.message);
            println!("    now     : {message}");
            ExitCode::FAILURE
        }
    }
}
