//! End-to-end test of the TCP transport: bind an ephemeral port, run the
//! serving loop, and script a real client over the socket.
//!
//! The client thread uses `std::thread` / `std::net` directly — integration
//! tests are exempt from the workspace's `no-raw-thread` / `no-raw-net`
//! lint scoping, which applies to library code.
//!
//! Both tests assert exact `serve.requests` deltas from the process-global
//! metrics registry, so they serialize on a local gate (like the chaos
//! suite does for the fault plan) instead of relying on sleeps.
//!
//! A client thread that fails ends the server through [`QuitOnPanic`],
//! and the test re-raises the client's panic, so a failure names the
//! client's own assertion instead of leaving the server in `accept`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use bestk_engine::{save_snapshot_v2_path, serve_on_listener, Dataset, ServeLimits, SharedEngine};
use bestk_exec::ExecPolicy;
use bestk_graph::generators;

/// Serializes the two tests: both read counter deltas from the one
/// process-global metrics registry, and concurrent servers would cross
/// their counts.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Held by a client thread: if the thread panics, the drop connects once
/// more and sends `quit`, so `serve_on_listener` returns.
struct QuitOnPanic(SocketAddr);

impl Drop for QuitOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut stream) = TcpStream::connect(self.0) {
                let _ = writeln!(stream, "quit");
            }
        }
    }
}

/// Joins a client thread, re-raising its panic with the client's message.
fn join<T>(client: JoinHandle<T>) -> T {
    client
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn served_requests() -> u64 {
    bestk_obs::snapshot().counter("serve.requests").unwrap_or(0)
}

fn fig2_snapshot_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bestk-engine-tcp-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("fig2-{tag}.bestk"));
    let mut ds = Dataset::from_graph(generators::paper_figure2());
    ds.ensure_built(&ExecPolicy::Sequential);
    save_snapshot_v2_path(&ds, &path).expect("save snapshot");
    path
}

#[test]
fn tcp_round_trip_with_real_client() {
    let _gate = gate();
    let snap = fig2_snapshot_path("roundtrip");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let before = served_requests();

    let client = std::thread::spawn(move || -> Vec<String> {
        let _quit = QuitOnPanic(addr);
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut replies = Vec::new();
        for request in [
            format!("load fig2 {}", snap.display()),
            "query fig2 stats".to_string(),
            "query fig2 bestkset ad".to_string(),
            "query fig2 coreof 5".to_string(),
            "query fig2 bestkset zz".to_string(),
            "counters".to_string(),
            "quit".to_string(),
        ] {
            writeln!(writer, "{request}").expect("send");
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            replies.push(line.trim_end().to_string());
        }
        replies
    });

    let engine = SharedEngine::with_budget(None);
    let served = serve_on_listener(
        &engine,
        &ExecPolicy::Sequential,
        &listener,
        Some(Duration::from_secs(5)),
        &ServeLimits::default(),
    );
    let replies = join(client);
    served.expect("serve");
    assert_eq!(replies[0], "ok\tloaded\tfig2");
    assert_eq!(replies[1], "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
    assert_eq!(
        replies[2],
        "ok\tbestkset\tad\tk=2\tscore=3.1666666666666665"
    );
    assert_eq!(replies[3], "ok\tcoreof\t5\tcoreness=2");
    assert!(replies[4].starts_with("err\tbad query"), "{}", replies[4]);
    assert!(
        replies[5].starts_with("ok\tcounters\tloads=1\t"),
        "{}",
        replies[5]
    );
    assert_eq!(replies[6], "ok\tbye");
    // Seven scripted requests, each admitted and counted exactly once.
    assert_eq!(served_requests() - before, 7);
}

#[test]
fn tcp_server_survives_client_hangup_and_timeout() {
    let _gate = gate();
    let snap = fig2_snapshot_path("hangup");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let before = served_requests();

    let client = std::thread::spawn(move || {
        let _quit = QuitOnPanic(addr);
        // Connection 1: send one request, then hang up without `quit`.
        {
            let stream = TcpStream::connect(addr).expect("connect 1");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = &stream;
            writeln!(writer, "load fig2 {}", snap.display()).expect("send");
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            assert_eq!(line.trim_end(), "ok\tloaded\tfig2");
        } // dropped: EOF on the server side
          // Connection 2: go silent; the server's read timeout reaps it
          // while connection 3's reads below naturally wait it out — no
          // client-side sleep needed.
        let idle = TcpStream::connect(addr).expect("connect 2");
        // Connection 3: state survived both; shut down cleanly.
        let stream = TcpStream::connect(addr).expect("connect 3");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = &stream;
        writeln!(writer, "query fig2 stats").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        assert_eq!(line.trim_end(), "ok\tstats\tn=12\tm=19\tkmax=3\tcores=3");
        writeln!(writer, "quit").expect("send quit");
        line.clear();
        reader.read_line(&mut line).expect("bye");
        assert_eq!(line.trim_end(), "ok\tbye");
        drop(idle);
    });

    let engine = SharedEngine::with_budget(None);
    let served = serve_on_listener(
        &engine,
        &ExecPolicy::Sequential,
        &listener,
        Some(Duration::from_millis(40)),
        &ServeLimits::default(),
    );
    join(client);
    served.expect("serve");
    assert_eq!(engine.counters().loads, 1);
    // load + query + quit were admitted; the silent connection contributed
    // no requests before its timeout.
    assert_eq!(served_requests() - before, 3);
}
