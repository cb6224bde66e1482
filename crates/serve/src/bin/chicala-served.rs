//! `chicala-served`: the verification daemon.
//!
//! Modes:
//!
//! * default — serve line-delimited JSON on stdin/stdout (exit on EOF or
//!   a `shutdown` request);
//! * `--socket PATH` — listen on a Unix socket, one thread per
//!   connection, all sharing the server's batching memo, coalescing
//!   cells, and cache; each request's work runs on its connection's
//!   thread. At most [`MAX_CONNECTIONS`] connections are served at once:
//!   the daemon accepts the next one only when a connection thread ends,
//!   so a further client waits in the listen backlog, unanswered, behind
//!   the open ones. `stats` counts those waits for a free slot
//!   (`connections.full_waits`, `connections.full_wait_us`), which no
//!   request's `meta.elapsed_us` includes;
//! * `--client PATH --send LINE [--send LINE ...]` — connect to a running
//!   daemon, send each line, print each response (the CI smoke driver).
//!
//! Caching is on by default (`target/chicala-cache/`, or
//! `CHICALA_CACHE_DIR`); `--no-cache` disables it, `--cache-dir DIR`
//! relocates it.

use chicala_serve::{CacheHandle, Server, Store, MAX_CONNECTIONS};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut socket: Option<String> = None;
    let mut client: Option<String> = None;
    let mut sends: Vec<String> = Vec::new();
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = args.next(),
            "--client" => client = args.next(),
            "--send" => sends.extend(args.next()),
            "--cache-dir" => cache_dir = args.next(),
            "--no-cache" => no_cache = true,
            "--help" | "-h" => {
                println!(
                    "usage: chicala-served [--socket PATH | --client PATH --send LINE...]\n\
                     \x20                     [--cache-dir DIR] [--no-cache]"
                );
                return;
            }
            other => {
                eprintln!("chicala-served: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = client {
        run_client(&path, &sends);
        return;
    }

    let cache = if no_cache {
        None
    } else {
        let root = cache_dir.map(std::path::PathBuf::from).unwrap_or_else(Store::default_root);
        Some(CacheHandle::new(Arc::new(Store::open(root))))
    };
    let server = Arc::new(Server::new(cache));

    match socket {
        Some(path) => run_socket(server, &path),
        None => run_stdin(&server),
    }
}

fn run_stdin(server: &Server) {
    server.serve_lines(std::io::stdin().lock(), std::io::stdout().lock());
}

fn run_socket(server: Arc<Server>, path: &str) {
    // A stale socket file from a dead daemon would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("chicala-served: cannot bind {path}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("chicala-served: listening on {path}");
    // One token per free connection slot. The loop takes a token before it
    // accepts, so past the bound a client waits in the listen backlog.
    let (free, slots) = sync_channel(MAX_CONNECTIONS);
    for _ in 0..MAX_CONNECTIONS {
        free.send(()).expect("the channel holds one token per slot");
    }
    while take_slot(&slots, &server) {
        let slot = Slot(free.clone());
        let conn = listener.accept();
        if server.shutdown_requested() {
            break;
        }
        let Ok((stream, _)) = conn else { continue };
        let server = Arc::clone(&server);
        let sock = path.to_string();
        std::thread::spawn(move || {
            let _slot = slot;
            serve_connection(&server, stream);
            if server.shutdown_requested() {
                // Unblock and finish: remove the socket and exit once the
                // response that requested shutdown has been flushed.
                let _ = std::fs::remove_file(&sock);
                std::process::exit(0);
            }
        });
    }
    let _ = std::fs::remove_file(path);
}

/// Takes a free connection slot's token, blocking while every slot is
/// taken and telling `server` how long such a wait lasted. False once no
/// token can come back.
fn take_slot(slots: &Receiver<()>, server: &Server) -> bool {
    if slots.try_recv().is_ok() {
        return true;
    }
    let start = Instant::now();
    if slots.recv().is_err() {
        return false;
    }
    server.note_full_wait(start.elapsed());
    true
}

/// A connection thread's slot: dropping it, when the thread returns or
/// unwinds from a panic, hands the token back to the accept loop.
struct Slot(SyncSender<()>);

impl Drop for Slot {
    fn drop(&mut self) {
        // At most MAX_CONNECTIONS tokens exist, so this never blocks.
        let _ = self.0.send(());
    }
}

fn serve_connection(server: &Server, stream: UnixStream) {
    let Ok(read) = stream.try_clone() else { return };
    server.serve_lines(BufReader::new(read), stream);
}

fn run_client(path: &str, sends: &[String]) {
    let stream = match UnixStream::connect(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chicala-served: cannot connect to {path}: {e}");
            std::process::exit(1);
        }
    };
    let Ok(read) = stream.try_clone() else {
        eprintln!("chicala-served: cannot clone stream");
        std::process::exit(1);
    };
    let mut write = stream;
    let mut reader = BufReader::new(read);
    let mut respond = |line: &str| {
        if writeln!(write, "{line}").is_err() {
            eprintln!("chicala-served: send failed");
            std::process::exit(1);
        }
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(n) if n > 0 => print!("{resp}"),
            _ => {
                eprintln!("chicala-served: daemon closed the connection");
                std::process::exit(1);
            }
        }
    };
    if sends.is_empty() {
        // No --send lines: relay stdin.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if !line.trim().is_empty() {
                respond(&line);
            }
        }
    } else {
        for line in sends {
            respond(line);
        }
    }
}
