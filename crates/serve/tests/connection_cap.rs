//! The daemon's connection bound, end to end over its Unix socket: with
//! [`MAX_CONNECTIONS`] connections open, a further client is left in the
//! listen backlog unanswered, it is answered once one of the open
//! connections closes, and `stats` then shows that the daemon waited for a
//! free slot.

use chicala_serve::MAX_CONNECTIONS;
use chicala_trace::json;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A `chicala-served --socket` child, killed and its directory removed on
/// drop, so a failed assertion leaves nothing running.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    fn start() -> Daemon {
        let dir = std::env::temp_dir().join(format!("chicala-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("creates the socket directory");
        let child = Command::new(env!("CARGO_BIN_EXE_chicala-served"))
            .arg("--socket")
            .arg(dir.join("d.sock"))
            .arg("--no-cache")
            .stderr(Stdio::null())
            .spawn()
            .expect("starts the daemon");
        let daemon = Daemon { child, dir };
        let start = Instant::now();
        while !daemon.sock().exists() {
            assert!(start.elapsed() < Duration::from_secs(10), "the socket never appeared");
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    fn sock(&self) -> PathBuf {
        self.dir.join("d.sock")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn send_ping(mut stream: &UnixStream) {
    writeln!(stream, r#"{{"op":"ping"}}"#).expect("the request is written");
}

/// Waits up to `timeout` for a response line on `stream`: `Some(line)` if
/// one came, `None` if the wait ran out.
fn answer(stream: &UnixStream, timeout: Duration) -> Option<String> {
    stream.set_read_timeout(Some(timeout)).expect("sets a read timeout");
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(n) if n > 0 => Some(line),
        Ok(_) => panic!("the daemon closed the connection"),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
        Err(e) => panic!("read failed: {e}"),
    }
}

fn connect(sock: &Path) -> UnixStream {
    UnixStream::connect(sock).expect("connects (accepted or queued in the backlog)")
}

#[test]
fn a_connection_past_the_bound_waits_for_a_free_slot() {
    let daemon = Daemon::start();
    // Each holder is answered once, so each has a live connection thread.
    let mut holders: Vec<UnixStream> = (0..MAX_CONNECTIONS)
        .map(|i| {
            let s = connect(&daemon.sock());
            send_ping(&s);
            let pong = answer(&s, Duration::from_secs(10)).unwrap_or_else(|| panic!("holder {i}"));
            assert!(pong.contains(r#""pong":true"#), "holder {i}: {pong}");
            s
        })
        .collect();
    let waiting = connect(&daemon.sock());
    send_ping(&waiting);
    assert_eq!(
        answer(&waiting, Duration::from_secs(1)),
        None,
        "a connection past the bound was served"
    );
    // Closing one holder ends its thread and frees its slot.
    holders.pop();
    let pong = answer(&waiting, Duration::from_secs(10)).expect("answered once a slot frees");
    assert!(pong.contains(r#""pong":true"#), "{pong}");
    // The accept loop found every slot taken and timed its wait.
    writeln!(&waiting, r#"{{"op":"stats"}}"#).expect("the request is written");
    let stats = answer(&waiting, Duration::from_secs(10)).expect("stats answered");
    let stats = json::parse(&stats).expect("stats parse");
    let connections = json::get(&stats, "result")
        .and_then(|r| json::get(r, "connections"))
        .unwrap_or_else(|| panic!("stats carry `connections`: {stats}"));
    let full_waits = json::get(connections, "full_waits").and_then(json::as_u64);
    assert!(full_waits >= Some(1), "full_waits: {connections}");
}
