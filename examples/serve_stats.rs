//! Pretty-printer for the verification service's live `stats` payload.
//!
//! ```text
//! cargo run --release --example serve_stats -- --socket /tmp/chicala.sock
//! cargo run --release --example serve_stats                 # in-process demo
//! ```
//!
//! With `--socket`, queries a running `chicala-served` daemon. Without,
//! spins up an in-process [`chicala::serve::Server`] (cache honouring
//! `CHICALA_CACHE_DIR`), drives a small request mix through it so the
//! counters are non-trivial, and prints its stats — a smoke-readable demo
//! of the batching memo, the in-flight dedup, and the store counters.

use chicala::serve::{CacheHandle, Server, Store};
use chicala::telemetry::JsonValue;
use chicala::trace::json;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let stats = match args.iter().position(|a| a == "--socket") {
        Some(i) => {
            let path = args.get(i + 1).ok_or("--socket needs a path")?;
            query_daemon(path)?
        }
        None => in_process_demo(),
    };
    print_stats(&stats);
    Ok(())
}

fn query_daemon(path: &str) -> Result<JsonValue, Box<dyn std::error::Error>> {
    let mut stream = std::os::unix::net::UnixStream::connect(path)?;
    writeln!(stream, r#"{{"op":"stats"}}"#)?;
    let mut line = String::new();
    BufReader::new(stream.try_clone()?).read_line(&mut line)?;
    let resp = json::parse(&line)?;
    if json::get(&resp, "ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!("daemon error: {line}").into());
    }
    Ok(json::get(&resp, "result").cloned().unwrap_or(JsonValue::Null))
}

fn in_process_demo() -> JsonValue {
    let cache = CacheHandle::new(Arc::new(Store::open(Store::default_root())));
    let server = Arc::new(Server::new(Some(cache)));
    // A small mix so every counter group has something to show: a batched
    // prove pair, a concurrent duplicate burst (in-flight dedup), and a
    // cached conformance report.
    server.handle_line(r#"{"op":"prove","design":"rotate","width":6}"#);
    server.handle_line(r#"{"op":"prove","design":"rotate","width":6}"#);
    let burst: Vec<_> = (0..4)
        .map(|_| {
            let s = Arc::clone(&server);
            std::thread::spawn(move || {
                s.handle_line(r#"{"op":"prove","design":"rmul","width":8}"#)
            })
        })
        .collect();
    for t in burst {
        let _ = t.join();
    }
    server.handle_line(
        r#"{"op":"conformance","design":"popcount","seed":1,"cases":4,"max_width":8,"layers":"cosim,spec"}"#,
    );
    server.stats_json()
}

fn u(v: Option<&JsonValue>, key: &str) -> u64 {
    v.and_then(|v| json::get(v, key)).and_then(json::as_u64).unwrap_or(0)
}

fn print_stats(stats: &JsonValue) {
    let pool = json::get(stats, "pool");
    let server = json::get(stats, "server");
    let batch = json::get(stats, "batch");
    let reports = json::get(stats, "reports");
    println!("== chicala verification service ==\n");
    println!(
        "server    requests {:>8}   errors {:>6}   uptime {:>8} ms",
        u(server, "requests"),
        u(server, "errors"),
        u(server, "uptime_ms")
    );
    println!(
        "pool      executed {:>8}   inflight_dedup {:>4}",
        u(pool, "executed"),
        u(pool, "inflight_dedup")
    );
    println!(
        "batching  builds   {:>8}   reuses {:>6}   live entries {:>4}",
        u(batch, "builds"),
        u(batch, "reuses"),
        u(batch, "entries")
    );
    println!(
        "reports   hits     {:>8}   misses {:>6}",
        u(reports, "hits"),
        u(reports, "misses")
    );
    match json::get(stats, "cache") {
        Some(JsonValue::Null) | None => println!("cache     (disabled)"),
        cache => {
            println!(
                "cache     hits     {:>8}   misses {:>6}   evictions {:>4}   writes {:>6}",
                u(cache, "hits"),
                u(cache, "misses"),
                u(cache, "evictions"),
                u(cache, "writes")
            );
            println!(
                "          read     {:>8} B  written {:>6} B  on disk: {} entries, {} B at {}",
                u(cache, "bytes_read"),
                u(cache, "bytes_written"),
                u(cache, "disk_entries"),
                u(cache, "disk_bytes"),
                json::get(cache.unwrap(), "root").and_then(json::as_str).unwrap_or("?")
            );
        }
    }
    let telemetry = json::get(stats, "telemetry");
    if let Some(JsonValue::Obj(counters)) = telemetry.and_then(|t| json::get(t, "counters")) {
        if !counters.is_empty() {
            println!("\ntelemetry counters:");
            for (name, v) in counters {
                println!("  {name:<32} {}", json::as_u64(v).unwrap_or(0));
            }
        }
    }
    if let Some(JsonValue::Obj(hists)) = telemetry.and_then(|t| json::get(t, "hists")) {
        if !hists.is_empty() {
            println!("\ntelemetry histograms:");
            println!("  {:<32} {:>8} {:>10} {:>10} {:>12}", "name", "count", "min", "max", "mean");
            for (name, h) in hists {
                let mean = json::get(h, "mean")
                    .and_then(|v| match v {
                        JsonValue::Num(n) => Some(*n),
                        _ => None,
                    })
                    .unwrap_or(0.0);
                println!(
                    "  {name:<32} {:>8} {:>10} {:>10} {:>12.1}",
                    u(Some(h), "count"),
                    u(Some(h), "min"),
                    u(Some(h), "max"),
                    mean
                );
            }
        }
    }
}
