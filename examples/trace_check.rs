//! Validates an exported Perfetto trace file: well-formed JSON with a
//! `traceEvents` array containing counter tracks. Used by `ci.sh` as the
//! smoke gate after running a traced example.
//!
//! ```sh
//! cargo run --release -p ms-bench --example incast_loss -- --trace /tmp/t.json
//! cargo run --release -p ms-bench --example trace_check -- /tmp/t.json
//! ```

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary's argument parser reads its own command line"
    )]
    let path = std::env::args()
        .nth(1)
        .expect("usage: trace_check <trace.json>");
    let text = std::fs::read_to_string(&path).expect("read trace file");
    assert!(!text.trim().is_empty(), "{path} is empty");
    if let Err(e) = ms_telemetry::validate_json(&text) {
        eprintln!("{path}: invalid JSON: {e}");
        std::process::exit(1);
    }
    assert!(
        text.contains("\"traceEvents\""),
        "{path}: missing traceEvents array"
    );
    assert!(
        text.contains("\"ph\":\"C\""),
        "{path}: no counter tracks (occupancy/cwnd) present"
    );
    println!(
        "{path}: valid Perfetto trace, {} bytes, counter tracks present",
        text.len()
    );
}
