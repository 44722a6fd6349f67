//! `lcctl` — inspect and steer a live cross-process control plane.
//!
//! The wire format *is* the spec grammar of `lc_core::spec`: commands travel
//! to the elected controller as `name(key=value)` text through the segment's
//! mailbox, and `stat` prints the segment state back in the same shape.
//!
//! ```text
//! lcctl stat   <segment>
//! lcctl set    <segment> policy '<spec>'     e.g. 'pid(kp=0.9)'
//! lcctl set    <segment> target <n>
//! lcctl drain  <segment>
//! lcctl resume <segment>
//! ```
//!
//! `set`/`drain`/`resume` wait (bounded) for the controller's ack and
//! exit non-zero if the command is rejected or no controller consumes it.

use lc_core::PolicySpec;
use lc_shm::{layout, ShmSegment, ShmSlotBuffer};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACK_TIMEOUT: Duration = Duration::from_secs(5);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["stat", seg] => stat(seg),
        ["set", seg, "policy", spec] => set_policy(seg, spec),
        ["set", seg, "target", n] => match n.parse::<u64>() {
            Ok(v) => post(seg, &format!("target(value={v})")),
            Err(_) => usage("target must be a non-negative integer"),
        },
        ["drain", seg] => post(seg, "drain()"),
        ["resume", seg] => post(seg, "resume()"),
        // Hidden harness modes for the crash-injection suite; not part of
        // the operator surface.
        ["__test-worker", seg] => test_worker(seg),
        ["__test-controller", seg] => test_controller(seg),
        _ => usage("expected: stat|set|drain|resume <segment> ..."),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("lcctl: {msg}");
    eprintln!("usage: lcctl stat <segment>");
    eprintln!("       lcctl set <segment> policy '<spec>'");
    eprintln!("       lcctl set <segment> target <n>");
    eprintln!("       lcctl drain <segment> | lcctl resume <segment>");
    ExitCode::FAILURE
}

fn attach(path: &str) -> Result<ShmSlotBuffer, ExitCode> {
    match ShmSegment::open(Path::new(path)) {
        Ok(seg) => Ok(ShmSlotBuffer::new(Arc::new(seg))),
        Err(e) => {
            eprintln!("lcctl: cannot attach {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn set_policy(seg: &str, spec: &str) -> ExitCode {
    // Parse locally before bothering the controller, so typos fail fast
    // with a real error message.
    if let Err(e) = spec.parse::<PolicySpec>() {
        eprintln!("lcctl: invalid policy spec: {e}");
        return ExitCode::FAILURE;
    }
    post(seg, spec)
}

fn post(seg_path: &str, spec: &str) -> ExitCode {
    let buffer = match attach(seg_path) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let seq = buffer.post_command(spec);
    let deadline = Instant::now() + ACK_TIMEOUT;
    loop {
        let (_, ack, err) = buffer.command_state();
        if ack >= seq {
            if err != 0 {
                eprintln!("lcctl: controller rejected '{spec}'");
                return ExitCode::FAILURE;
            }
            println!("applied {spec}");
            return ExitCode::SUCCESS;
        }
        if Instant::now() >= deadline {
            eprintln!("lcctl: no controller acknowledged '{spec}' (is one elected?)");
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn stat(seg_path: &str) -> ExitCode {
    let buffer = match attach(seg_path) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let seg = buffer.segment();
    let g = buffer.geometry();
    let stats = buffer.stats();

    let members: Vec<usize> = (0..g.max_members)
        .filter(|&m| buffer.member_lease(m) != 0)
        .collect();
    let runnable: u64 = members.iter().map(|&m| buffer.member_runnable(m)).sum();
    let sleeper_cells = (0..g.max_sleepers)
        .filter(|&c| buffer.sleeper_lease(c) != 0)
        .count();

    println!(
        "segment(shards={}, shard_capacity={}, members={}, sleeper_cells={})",
        g.shards,
        g.shard_capacity,
        members.len(),
        sleeper_cells
    );
    let applied = buffer.applied_spec();
    println!(
        "policy={}",
        if applied.is_empty() {
            "<none>"
        } else {
            &applied
        }
    );
    println!(
        "books(s={}, w={}, t={}, sleeping={})",
        stats.ever_slept, stats.woken_and_left, stats.total_target, stats.sleeping
    );
    for shard in 0..g.shards {
        let snap = &buffer.shard_snapshots()[shard];
        println!(
            "shard{}(s={}, sleeping={}, t={}, races={})",
            shard, snap.ever_slept, snap.sleepers, snap.target, snap.claim_races
        );
    }
    let wait = ShmSlotBuffer::observe(&buffer.wait_buckets());
    println!(
        "wait(count={}, p50_ns={}, p99_ns={}, max_ns={})",
        wait.count, wait.p50_ns, wait.p99_ns, wait.max_ns
    );
    let lease = seg
        .u64_at(layout::OFF_CONTROLLER_LEASE)
        .load(Ordering::Acquire);
    println!(
        "controller(pid={}, heartbeat={}, cycles={}, takeovers={})",
        layout::lease_pid(lease),
        seg.u64_at(layout::OFF_CONTROLLER_HEARTBEAT)
            .load(Ordering::Acquire),
        seg.u64_at(layout::OFF_CYCLES).load(Ordering::Acquire),
        seg.u64_at(layout::OFF_TAKEOVERS).load(Ordering::Acquire)
    );
    println!(
        "fleet(runnable={}, reclaimed_slots={}, reclaimed_members={}, draining={})",
        runnable,
        seg.u64_at(layout::OFF_RECLAIMED_SLOTS)
            .load(Ordering::Acquire),
        seg.u64_at(layout::OFF_RECLAIMED_MEMBERS)
            .load(Ordering::Acquire),
        u64::from(buffer.draining())
    );
    ExitCode::SUCCESS
}

// ---- crash-injection harness modes ---------------------------------------

/// Attaches, claims a slot directly (no target gating — the test wants a
/// parked claim, not a policy decision), reports it on stdout, and parks
/// until killed.
fn test_worker(seg_path: &str) -> ExitCode {
    use lc_core::{RealClock, SlotWait, TimeSource, WaitPoll};
    let buffer = match attach(seg_path) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let pid = std::process::id();
    let Some(member) = buffer.register_member(pid) else {
        eprintln!("lcctl: member table full");
        return ExitCode::FAILURE;
    };
    buffer.set_member_runnable(member, 1);
    let Some(cell) = buffer.register_sleeper(pid) else {
        eprintln!("lcctl: sleeper table full");
        return ExitCode::FAILURE;
    };
    let shard = buffer.home_shard(cell);
    let Some(slot) = buffer.try_claim(shard, cell) else {
        eprintln!("lcctl: no free slot");
        return ExitCode::FAILURE;
    };
    // The harness on the other end of the pipe waits for this line before
    // pulling the trigger.
    println!("parked slot={slot} cell={cell} member={member} pid={pid}");
    use std::io::Write;
    let _ = std::io::stdout().flush();

    let clock = RealClock::new();
    let wait = SlotWait::begin_keyed(slot, cell as u64, clock.now(), Duration::from_secs(600));
    loop {
        match wait.poll(&buffer, clock.now()) {
            WaitPoll::Done(_) => break,
            WaitPoll::Keep(remaining) => {
                buffer.park_cell(cell, remaining);
            }
        }
    }
    wait.finish(&buffer, clock.now());
    ExitCode::SUCCESS
}

/// Runs an elected controller until killed (never resigns — the point of
/// the takeover test is a lease held by a dead pid).
fn test_controller(seg_path: &str) -> ExitCode {
    use lc_shm::ShmController;
    let buffer = match attach(seg_path) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut controller = ShmController::new(buffer, 2);
    loop {
        controller.run_cycle();
        std::thread::sleep(Duration::from_millis(2));
    }
}
