//! `lcctl` wire-format round trips: a spec posted with `set` must come
//! back **verbatim** from `stat` (the canonical spec rendering is the
//! wire format in both directions), and rejected specs must fail loudly.
#![cfg(target_os = "linux")]

use lc_shm::{Geometry, ShmControlDaemon, ShmController, ShmSegment, ShmSlotBuffer};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn temp_segment(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lc-shm-{}-{}.seg", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn lcctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lcctl"))
        .args(args)
        .output()
        .expect("run lcctl")
}

#[test]
fn set_round_trips_through_stat() {
    let path = temp_segment("roundtrip");
    let seg = Arc::new(ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment"));
    let buffer = ShmSlotBuffer::new(Arc::clone(&seg));
    let daemon = ShmControlDaemon::start(
        ShmController::new(buffer.clone(), 2).with_interval(Duration::from_millis(2)),
    );
    let seg_path = path.to_str().unwrap();

    // Policy spec: applied by the live controller and reported verbatim.
    let out = lcctl(&["set", seg_path, "policy", "pid(kp=0.9)"]);
    assert!(
        out.status.success(),
        "set policy failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(
        stat.contains("policy=pid(kp=0.9)"),
        "stat does not report the applied spec:\n{stat}"
    );

    // Manual target: pins the published fleet target.
    let out = lcctl(&["set", seg_path, "target", "3"]);
    assert!(out.status.success());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while buffer.total_target() != 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "target never published"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(stat.contains("policy=target(value=3)"), "stat:\n{stat}");
    assert!(stat.contains("t=3"), "stat books missing target:\n{stat}");

    // Drain and resume flip the segment flag.
    assert!(lcctl(&["drain", seg_path]).status.success());
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(stat.contains("draining=1"), "stat:\n{stat}");
    assert!(lcctl(&["resume", seg_path]).status.success());
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(stat.contains("draining=0"), "stat:\n{stat}");

    // An unknown policy is refused client-side (it does not parse)…
    let out = lcctl(&["set", seg_path, "policy", "nonsense(x=1)"]);
    assert!(!out.status.success(), "bogus spec accepted");
    // …and a syntactically valid but unknown command is rejected by the
    // controller through the mailbox ack.
    assert!(buffer.post_command("blorp(x=2)") > 0);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (seq, ack, err) = buffer.command_state();
        if ack >= seq {
            assert_eq!(err, 1, "controller accepted an unknown command");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "command never acked");
        std::thread::sleep(Duration::from_millis(5));
    }

    daemon.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stat_and_set_without_controller_fail_cleanly() {
    let path = temp_segment("orphan");
    let _seg = ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment");
    let seg_path = path.to_str().unwrap();

    // stat works on a controller-less segment…
    let out = lcctl(&["stat", seg_path]);
    assert!(out.status.success());
    let stat = String::from_utf8(out.stdout).unwrap();
    assert!(stat.contains("controller(pid=0"), "stat:\n{stat}");

    // …but a command with nobody to consume it times out non-zero.
    let out = Command::new(env!("CARGO_BIN_EXE_lcctl"))
        .args(["set", seg_path, "target", "1"])
        .output()
        .expect("run lcctl");
    assert!(!out.status.success(), "unacked command reported success");

    // And attaching to a non-segment file is refused by the header check.
    let bogus = temp_segment("bogus");
    std::fs::write(&bogus, vec![0u8; 8192]).unwrap();
    let out = lcctl(&["stat", bogus.to_str().unwrap()]);
    assert!(!out.status.success(), "attached to a zeroed file");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&bogus);
}
