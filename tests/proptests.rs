//! Property-style tests of the suite's core data structures and invariants.
//!
//! The container has no registry access, so instead of the `proptest` crate
//! these run each property over many seeded-random cases drawn from the
//! vendored [`rand`] shim.  The base seed comes from the suite-wide
//! `LC_TEST_SEED` environment knob (see [`lc_des::test_seed`]); failures
//! print the offending case seed and the `LC_TEST_SEED=...` incantation that
//! reproduces the run exactly.

use lc_core::slots::{ClaimOutcome, SleepSlotBuffer, SleeperId};
use lc_core::LoadControlConfig;
use lc_locks::Parker;
use load_control_suite::accounting::{ThreadState, Transition, TransitionTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Runs `body` for `cases` seeded cases, labelling failures with the seed.
///
/// Each case's seed is `LC_TEST_SEED + case`, so a failure message naming a
/// seed is reproduced by exporting `LC_TEST_SEED` to the *base* it prints.
fn for_each_seed(cases: u64, body: impl Fn(u64, &mut StdRng)) {
    let base = lc_des::test_seed();
    for case in 0..cases {
        let seed = base.wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let guard = SeedReport { base, seed, case };
        body(seed, &mut rng);
        std::mem::forget(guard);
    }
}

/// Prints the reproduction recipe if a property panics mid-case.
struct SeedReport {
    base: u64,
    seed: u64,
    case: u64,
}

impl Drop for SeedReport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest case failed: case {} seed {:#x} — reproduce with LC_TEST_SEED={:#x}",
                self.case, self.seed, self.base
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Sleep slot buffer: S/W bookkeeping never goes out of balance.
// ---------------------------------------------------------------------------

#[test]
fn slot_buffer_claims_and_departures_always_balance() {
    for_each_seed(64, |seed, rng| {
        let buf = SleepSlotBuffer::new(16);
        let sleepers: Vec<_> = (0..8)
            .map(|_| buf.register_sleeper(Arc::new(Parker::new())))
            .collect();
        // (slot index, sleeper) pairs with an outstanding claim.
        let mut outstanding: Vec<(usize, SleeperId)> = Vec::new();

        let ops = rng.random_range(1usize..200);
        for op in 0..ops {
            match rng.random_range(0u32..4) {
                0 => {
                    buf.set_target(rng.random_range(0u64..12));
                }
                1 => {
                    let id = sleepers[rng.random_range(0usize..sleepers.len())];
                    // A sleeper may only have one outstanding claim at a time.
                    if outstanding.iter().any(|(_, s)| *s == id) {
                        continue;
                    }
                    if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                        outstanding.push((idx, id));
                    }
                }
                2 => {
                    if !outstanding.is_empty() {
                        let (idx, id) = outstanding.remove(0);
                        buf.leave(idx, id);
                    }
                }
                _ => {
                    buf.wake_all();
                }
            }
            // Invariant: S - W equals the number of outstanding claims.
            assert_eq!(
                buf.sleepers(),
                outstanding.len() as u64,
                "seed {seed} op {op}: sleeper count diverged from claims"
            );
            // Invariant: the target never exceeds the buffer capacity.
            assert!(buf.target() <= buf.capacity() as u64, "seed {seed} op {op}");
        }
        // Drain and re-check final balance.
        for (idx, id) in outstanding.drain(..) {
            buf.leave(idx, id);
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left, "seed {seed}");
    });
}

#[test]
fn slot_buffer_ring_wraps_around_with_gaps() {
    // `S` doubles as the ring head and is never reset, so long-running
    // processes wrap the ring many times over — with *gaps*, because sleepers
    // leave in arbitrary order.  Claims must stay sound across wraps: a claim
    // never lands on a still-occupied slot, and the books stay balanced.
    for_each_seed(32, |seed, rng| {
        let capacity = 4usize;
        let buf = SleepSlotBuffer::new(capacity);
        let sleepers: Vec<_> = (0..3)
            .map(|_| buf.register_sleeper(Arc::new(Parker::new())))
            .collect();
        buf.set_target(3);
        let mut outstanding: Vec<(usize, SleeperId)> = Vec::new();
        // Push S far past several ring wraps.
        for round in 0..(capacity as u64 * 8) {
            // Claim with a random subset, leave in random order (gaps).
            for &id in &sleepers {
                if outstanding.iter().any(|(_, s)| *s == id) {
                    continue;
                }
                if rng.random_range(0u32..3) == 0 {
                    continue;
                }
                if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                    for (other_idx, other_id) in &outstanding {
                        assert!(
                            !(idx == *other_idx && buf.still_claimed(*other_idx, *other_id))
                                || *other_id == id,
                            "seed {seed} round {round}: claim landed on an occupied slot"
                        );
                    }
                    outstanding.push((idx, id));
                }
            }
            while outstanding.len() > 1 {
                let pick = rng.random_range(0usize..outstanding.len());
                let (idx, id) = outstanding.remove(pick);
                buf.leave(idx, id);
            }
            assert_eq!(
                buf.sleepers(),
                outstanding.len() as u64,
                "seed {seed} round {round}"
            );
        }
        for (idx, id) in outstanding.drain(..) {
            buf.leave(idx, id);
        }
        let stats = buf.stats();
        assert!(
            stats.ever_slept >= capacity as u64 * 2,
            "seed {seed}: the ring never wrapped (S = {})",
            stats.ever_slept
        );
        assert_eq!(stats.ever_slept, stats.woken_and_left, "seed {seed}");
    });
}

#[test]
fn slot_buffer_target_shrink_wakes_exactly_the_excess() {
    // Controller side of Figure 7: shrinking the target must clear and
    // unpark exactly `sleepers − new_target` claims — including the newest
    // sleepers when the shrink outruns recent claims — while the survivors
    // keep their slots.
    for_each_seed(64, |seed, rng| {
        let buf = SleepSlotBuffer::new(16);
        let parkers: Vec<Arc<Parker>> = (0..8).map(|_| Arc::new(Parker::new())).collect();
        let ids: Vec<SleeperId> = parkers
            .iter()
            .map(|p| buf.register_sleeper(Arc::clone(p)))
            .collect();
        let claim_count = rng.random_range(1usize..=8);
        buf.set_target(claim_count as u64);
        let mut claims = Vec::new();
        for id in ids.iter().take(claim_count) {
            match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => claims.push((idx, *id)),
                other => panic!("seed {seed}: unexpected outcome {other:?}"),
            }
        }
        let new_target = rng.random_range(0u64..claim_count as u64);
        let woken = buf.set_target(new_target);
        assert_eq!(
            woken as u64,
            claim_count as u64 - new_target,
            "seed {seed}: wrong number of sleepers woken"
        );
        // Exactly `new_target` claims survive, and every cleared slot's
        // parker got a permit (the newest sleepers are eligible like any
        // other — the scan is position-based, not age-based).
        let surviving = claims
            .iter()
            .filter(|(idx, id)| buf.still_claimed(*idx, *id))
            .count();
        assert_eq!(surviving as u64, new_target, "seed {seed}");
        let permits: u64 = parkers.iter().map(|p| p.unpark_count()).sum();
        assert_eq!(permits, woken as u64, "seed {seed}: permits vs wakes");
        // Every claimant still leaves exactly once, woken or not.
        for (idx, id) in claims {
            buf.leave(idx, id);
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left, "seed {seed}");
        assert_eq!(buf.sleepers(), 0, "seed {seed}");
    });
}

#[test]
fn slot_buffer_controller_clear_plus_leave_counts_one_departure() {
    // The double-leave hazard in the W accounting: a slot can be cleared
    // twice — once by the controller (wake) and once by its owner (leave) —
    // but only the owner's `leave` may increment `W`.  Random interleavings
    // of wakes and leaves must keep S == W at quiescence, never W > S.
    for_each_seed(64, |seed, rng| {
        let buf = SleepSlotBuffer::new(8);
        let ids: Vec<_> = (0..4)
            .map(|_| buf.register_sleeper(Arc::new(Parker::new())))
            .collect();
        let mut outstanding: Vec<(usize, SleeperId)> = Vec::new();
        for op in 0..rng.random_range(20usize..120) {
            match rng.random_range(0u32..4) {
                0 => {
                    buf.set_target(rng.random_range(0u64..6));
                }
                1 => {
                    let id = ids[rng.random_range(0usize..ids.len())];
                    if outstanding.iter().any(|(_, s)| *s == id) {
                        continue;
                    }
                    if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                        outstanding.push((idx, id));
                    }
                }
                2 => {
                    // Controller clears some slots (wake) — the owners have
                    // NOT left yet, so `S − W` must not change.
                    let before = buf.sleepers();
                    buf.wake(rng.random_range(0usize..3));
                    assert_eq!(buf.sleepers(), before, "seed {seed} op {op}: wake moved W");
                }
                _ => {
                    if !outstanding.is_empty() {
                        let (idx, id) = outstanding.remove(0);
                        // Whether or not the controller already cleared this
                        // slot, the owner's leave counts exactly one W.
                        let w_before = buf.stats().woken_and_left;
                        buf.leave(idx, id);
                        assert_eq!(
                            buf.stats().woken_and_left,
                            w_before + 1,
                            "seed {seed} op {op}: leave must count exactly once"
                        );
                    }
                }
            }
            let stats = buf.stats();
            assert!(
                stats.woken_and_left <= stats.ever_slept,
                "seed {seed} op {op}: W overtook S"
            );
            assert_eq!(
                buf.sleepers(),
                outstanding.len() as u64,
                "seed {seed} op {op}"
            );
        }
        for (idx, id) in outstanding.drain(..) {
            buf.leave(idx, id);
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left, "seed {seed}");
    });
}

// ---------------------------------------------------------------------------
// Sharded sleep slot buffer: the paper's invariants hold per shard and
// globally under random claim/leave/retarget interleavings.
// ---------------------------------------------------------------------------

#[test]
fn sharded_buffer_random_interleavings_preserve_the_books() {
    for_each_seed(64, |seed, rng| {
        let shards = [1usize, 2, 4][rng.random_range(0usize..3)];
        let buf = SleepSlotBuffer::with_shards(16, shards);
        let sleepers: Vec<_> = (0..8)
            .map(|_| buf.register_sleeper(Arc::new(Parker::new())))
            .collect();
        let mut outstanding: Vec<(usize, SleeperId)> = Vec::new();

        let ops = rng.random_range(1usize..200);
        for op in 0..ops {
            match rng.random_range(0u32..5) {
                0 => {
                    // Retarget globally (even split under the hood).
                    buf.set_target(rng.random_range(0u64..12));
                }
                1 => {
                    // Retarget per shard with arbitrary (even over-capacity)
                    // partitions; the buffer caps each at shard capacity.
                    let targets: Vec<u64> = (0..buf.shard_count())
                        .map(|_| rng.random_range(0u64..8))
                        .collect();
                    buf.set_shard_targets(&targets);
                    let published: u64 = (0..buf.shard_count()).map(|i| buf.shard_target(i)).sum();
                    assert_eq!(
                        buf.target(),
                        published,
                        "seed {seed} op {op}: cached global target diverged from sum(T_i)"
                    );
                }
                2 => {
                    let id = sleepers[rng.random_range(0usize..sleepers.len())];
                    // A sleeper may only have one outstanding claim at a time.
                    if outstanding.iter().any(|(_, s)| *s == id) {
                        continue;
                    }
                    let home = buf.home_shard(id);
                    let neighbour = (home + 1) % buf.shard_count();
                    // The wider fallback probe runs only when neither local
                    // shard could take the claim.
                    let local_space = buf.shard_sleepers(home) < buf.shard_target(home)
                        || buf.shard_sleepers(neighbour) < buf.shard_target(neighbour);
                    if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                        // The claim landed on the home shard or its one-hop
                        // neighbour — anywhere else only via the fallback,
                        // i.e. when the local pair was closed or full.
                        let shard = idx / buf.shard_capacity();
                        assert!(
                            shard == home || shard == neighbour || !local_space,
                            "seed {seed} op {op}: claim landed on shard {shard}, \
                             home {home}, local space {local_space}"
                        );
                        // Immediately after a successful claim the landed
                        // shard respects its own target bound, hence the
                        // global bound sum(S_i − W_i) ≤ sum(T_i) is never
                        // violated *by a claim*.
                        assert!(
                            buf.shard_sleepers(shard) <= buf.shard_target(shard),
                            "seed {seed} op {op}: claim overshot the shard target"
                        );
                        outstanding.push((idx, id));
                    }
                }
                3 => {
                    if !outstanding.is_empty() {
                        let pick = rng.random_range(0usize..outstanding.len());
                        let (idx, id) = outstanding.remove(pick);
                        buf.leave(idx, id);
                    }
                }
                _ => {
                    buf.wake_all();
                }
            }
            // Invariant: global S − W equals the number of outstanding claims.
            assert_eq!(
                buf.sleepers(),
                outstanding.len() as u64,
                "seed {seed} op {op}: sleeper count diverged from claims"
            );
            // Invariant: per-shard targets never exceed the shard capacity.
            for i in 0..buf.shard_count() {
                assert!(
                    buf.shard_target(i) <= buf.shard_capacity() as u64,
                    "seed {seed} op {op}: shard {i} target over capacity"
                );
            }
            // Invariant: a snapshot never shows W above S.
            let stats = buf.stats();
            assert!(
                stats.ever_slept >= stats.woken_and_left,
                "seed {seed} op {op}"
            );
        }
        // Drain and re-check final balance, globally and per shard.
        for (idx, id) in outstanding.drain(..) {
            buf.leave(idx, id);
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left, "seed {seed}");
        for i in 0..buf.shard_count() {
            let s = buf.shard_stats(i);
            assert_eq!(s.ever_slept, s.woken_and_left, "seed {seed} shard {i}");
        }
    });
}

#[test]
fn sharded_buffer_shrink_wakes_exactly_the_excess_per_shard() {
    // Controller side of Figure 7, per shard: shrinking shard targets must
    // clear and unpark exactly `sleepers_i − new_target_i` claims in each
    // shard, while the survivors keep their slots.
    for_each_seed(64, |seed, rng| {
        let shards = [2usize, 4][rng.random_range(0usize..2)];
        let shard_capacity = 4usize;
        let buf = SleepSlotBuffer::with_shards(shard_capacity * shards, shards);
        // Open every shard fully, then fill each shard with a chosen number
        // of claims through sleepers homed on it (claims land at home while
        // the home shard has room).
        buf.set_shard_targets(&vec![shard_capacity as u64; shards]);
        let mut claims_by_shard: Vec<Vec<(usize, SleeperId)>> = vec![Vec::new(); shards];
        let fill: Vec<usize> = (0..shards)
            .map(|_| rng.random_range(1usize..=shard_capacity))
            .collect();
        let mut next_id = 0u64;
        for (shard, &count) in fill.iter().enumerate() {
            while claims_by_shard[shard].len() < count {
                let id = buf.register_sleeper(Arc::new(Parker::new()));
                assert_eq!(id.index(), next_id, "seed {seed}: id sequence broke");
                next_id += 1;
                if buf.home_shard(id) != shard {
                    continue; // wrong home; register the next id instead
                }
                match buf.try_claim(id) {
                    ClaimOutcome::Claimed(idx) => {
                        assert_eq!(
                            idx / buf.shard_capacity(),
                            shard,
                            "seed {seed}: claim left a home shard with room"
                        );
                        claims_by_shard[shard].push((idx, id));
                    }
                    other => panic!("seed {seed}: unexpected outcome {other:?}"),
                }
            }
        }
        // Shrink every shard to a random lower-or-equal target.
        let new_targets: Vec<u64> = fill
            .iter()
            .map(|&f| rng.random_range(0u64..=f as u64))
            .collect();
        let woken = buf.set_shard_targets(&new_targets);
        let expected: u64 = fill
            .iter()
            .zip(&new_targets)
            .map(|(&f, &t)| f as u64 - t)
            .sum();
        assert_eq!(
            woken as u64, expected,
            "seed {seed}: wrong total wake count"
        );
        for shard in 0..shards {
            let surviving = claims_by_shard[shard]
                .iter()
                .filter(|(idx, id)| buf.still_claimed(*idx, *id))
                .count() as u64;
            assert_eq!(
                surviving, new_targets[shard],
                "seed {seed} shard {shard}: wake scan was not exact"
            );
        }
        // Every claimant still leaves exactly once, woken or not.
        for claims in claims_by_shard {
            for (idx, id) in claims {
                buf.leave(idx, id);
            }
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left, "seed {seed}");
        assert_eq!(buf.sleepers(), 0, "seed {seed}");
    });
}

// ---------------------------------------------------------------------------
// Load-control configuration arithmetic.
// ---------------------------------------------------------------------------

#[test]
fn target_for_load_is_consistent() {
    for_each_seed(512, |seed, rng| {
        let capacity = rng.random_range(1usize..256);
        let load = rng.random_range(0usize..1024);
        let headroom = rng.random_range(0usize..32);
        let cfg = LoadControlConfig::for_capacity(capacity).with_overload_headroom(headroom);
        let target = cfg.target_for_load(load);
        // Never more than the excess over capacity, never negative, capped.
        assert!(target <= load.saturating_sub(capacity), "seed {seed}");
        assert!(target <= cfg.max_sleepers, "seed {seed}");
        if load <= capacity + headroom {
            assert_eq!(target, 0, "seed {seed}");
        }
    });
}

// ---------------------------------------------------------------------------
// Transition trace ring buffer.
// ---------------------------------------------------------------------------

#[test]
fn transition_trace_keeps_the_most_recent_entries() {
    for_each_seed(64, |seed, rng| {
        let capacity = rng.random_range(1usize..32);
        let count = rng.random_range(0usize..100);
        let trace = TransitionTrace::with_capacity(capacity);
        for i in 0..count {
            // The thread id doubles as the entry's sequence number.
            trace.push(Transition {
                thread_id: i as u64,
                from: ThreadState::Running,
                to: ThreadState::Spinning,
            });
        }
        let snap = trace.snapshot();
        assert_eq!(snap.len(), count.min(capacity), "seed {seed}");
        // Entries are the most recent ones, in chronological order.
        for (j, t) in snap.iter().enumerate() {
            let expected = count - snap.len() + j;
            assert_eq!(t.thread_id, expected as u64, "seed {seed}");
        }
        assert_eq!(
            trace.dropped(),
            count.saturating_sub(capacity) as u64,
            "seed {seed}"
        );
    });
}

// ---------------------------------------------------------------------------
// Spec grammar: parse → Display → parse is the identity.
// ---------------------------------------------------------------------------

mod spec_round_trip {
    use super::{for_each_seed, StdRng};
    use lc_core::spec::ParsedSpec;
    use rand::Rng;

    const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.";
    const VALUE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_./:";

    fn random_token(rng: &mut StdRng, chars: &[u8], max_len: usize) -> String {
        let len = rng.random_range(1usize..=max_len);
        (0..len)
            .map(|_| chars[rng.random_range(0usize..chars.len())] as char)
            .collect()
    }

    /// A random syntactically valid spec with 0..=4 distinct-keyed params.
    fn random_spec(rng: &mut StdRng) -> ParsedSpec {
        let mut spec = ParsedSpec::bare(random_token(rng, NAME_CHARS, 12));
        let params = rng.random_range(0usize..=4);
        let mut used: Vec<String> = Vec::new();
        for _ in 0..params {
            let key = random_token(rng, NAME_CHARS, 8);
            if used.contains(&key) {
                continue; // duplicate keys are a parse error by design
            }
            used.push(key.clone());
            spec = spec.with_param(key, random_token(rng, VALUE_CHARS, 10));
        }
        spec
    }

    /// Renders `spec` with random (legal) whitespace jitter around every
    /// token, exercising the lenient side of the parser.
    fn render_with_jitter(rng: &mut StdRng, spec: &ParsedSpec) -> String {
        let pad = |rng: &mut StdRng| " ".repeat(rng.random_range(0usize..3));
        if spec.is_bare() && rng.random_range(0u32..2) == 0 {
            return format!("{}{}{}", pad(rng), spec.name(), pad(rng));
        }
        let mut out = format!("{}{}(", pad(rng), spec.name());
        for (i, (k, v)) in spec.params().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}{}{}={}{}{}",
                pad(rng),
                k,
                pad(rng),
                pad(rng),
                v,
                pad(rng)
            ));
        }
        out.push(')');
        out.push_str(&pad(rng));
        out
    }

    #[test]
    fn parse_display_parse_is_identity_for_random_specs() {
        for_each_seed(512, |seed, rng| {
            let spec = random_spec(rng);
            let rendered = spec.to_string();
            let reparsed = ParsedSpec::parse(&rendered)
                .unwrap_or_else(|e| panic!("seed {seed}: {rendered:?} does not parse: {e}"));
            assert_eq!(reparsed, spec, "seed {seed}: parse(display) != identity");
            // And a second lap is a fixed point.
            assert_eq!(reparsed.to_string(), rendered, "seed {seed}");
        });
    }

    #[test]
    fn whitespace_jitter_parses_to_the_same_spec() {
        for_each_seed(512, |seed, rng| {
            let spec = random_spec(rng);
            let jittered = render_with_jitter(rng, &spec);
            let reparsed = ParsedSpec::parse(&jittered)
                .unwrap_or_else(|e| panic!("seed {seed}: {jittered:?} does not parse: {e}"));
            assert_eq!(reparsed, spec, "seed {seed}: jittered {jittered:?}");
        });
    }

    #[test]
    fn registry_specs_round_trip_with_random_numeric_parameters() {
        // Specs targeting real registry entries, with randomized (valid)
        // values: build → report → rebuild must preserve the reported spec.
        for_each_seed(128, |seed, rng| {
            let alpha = (rng.random_range(1u32..=100) as f64) / 100.0;
            let up = rng.random_range(0u32..8);
            let policy_spec = format!("hysteresis(alpha={alpha}, up={up})");
            let policy = lc_core::policy::build_policy_spec(&policy_spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {policy_spec:?}: {e}"));
            let rebuilt = lc_core::policy::build_policy_spec(&policy.spec().to_string())
                .unwrap_or_else(|e| panic!("seed {seed}: reported policy spec: {e}"));
            assert_eq!(rebuilt.spec(), policy.spec(), "seed {seed}");
        });
    }
}

// ---------------------------------------------------------------------------
// Wait-time histogram: the latency plane's evidence must be trustworthy.
// ---------------------------------------------------------------------------

mod wait_histogram {
    use super::{for_each_seed, StdRng};
    use lc_locks::stats::{WaitHistogram, WaitSnapshot};
    use rand::Rng;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// A histogram snapshot of `n` waits drawn from a wide log-uniform-ish
    /// range (sub-nanosecond spins through multi-second parks).
    fn random_snapshot(rng: &mut StdRng, n: usize) -> WaitSnapshot {
        let hist = WaitHistogram::new();
        for _ in 0..n {
            hist.record(Duration::from_nanos(random_wait(rng)));
        }
        hist.snapshot()
    }

    fn random_wait(rng: &mut StdRng) -> u64 {
        // Random magnitude first, then a value within it, so every octave of
        // the log-bucketed grid gets exercised — a plain uniform draw would
        // almost never land below a millisecond.
        let bits = rng.random_range(0u32..40);
        rng.random_range(0u64..=(1u64 << bits))
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        for_each_seed(64, |seed, rng| {
            let (na, nb, nc) = (
                rng.random_range(0usize..64),
                rng.random_range(0usize..64),
                rng.random_range(0usize..64),
            );
            let a = random_snapshot(rng, na);
            let b = random_snapshot(rng, nb);
            let c = random_snapshot(rng, nc);

            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "seed {seed}: merge not associative");

            // a ⊕ b == b ⊕ a, and counts add up.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "seed {seed}: merge not commutative");
            assert_eq!(ab.count(), a.count() + b.count(), "seed {seed}");
        });
    }

    #[test]
    fn quantiles_are_monotone_in_q_and_bounded_by_max() {
        for_each_seed(64, |seed, rng| {
            let n = rng.random_range(1usize..128);
            let snap = random_snapshot(rng, n);
            let mut prev = 0u64;
            for step in 0..=20 {
                let q = step as f64 / 20.0;
                let v = snap.quantile_ns(q);
                assert!(
                    v >= prev,
                    "seed {seed}: quantile not monotone at q={q}: {v} < {prev}"
                );
                prev = v;
            }
            assert_eq!(snap.quantile_ns(1.0), snap.max_ns(), "seed {seed}");
        });
    }

    #[test]
    fn every_recorded_value_lands_within_its_buckets_bounds() {
        for_each_seed(128, |seed, rng| {
            // One value at a time: the p100 (== the only bucket's upper
            // bound) must bracket the true value one-sidedly — never below
            // it, at most 25 % above (plus one for integer rounding of the
            // quarter-octave step).
            let value = random_wait(rng);
            let hist = WaitHistogram::new();
            hist.record(Duration::from_nanos(value));
            let snap = hist.snapshot();
            let reported = snap.quantile_ns(1.0);
            assert!(
                reported >= value,
                "seed {seed}: reported {reported} underestimates {value}"
            );
            assert!(
                reported <= value + value / 4 + 1,
                "seed {seed}: reported {reported} is more than 25% above {value}"
            );
        });
    }

    #[test]
    fn concurrent_records_are_never_lost_and_snapshots_never_undercount() {
        for_each_seed(8, |seed, rng| {
            let hist = Arc::new(WaitHistogram::new());
            let done = Arc::new(AtomicBool::new(false));
            let per_thread = rng.random_range(100u64..2000);
            let threads = 3usize;
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let hist = Arc::clone(&hist);
                    std::thread::spawn(move || {
                        for i in 0..per_thread {
                            hist.record(Duration::from_nanos(t as u64 * 1_000 + i));
                        }
                    })
                })
                .collect();
            // Snapshot concurrently with the recorders: counts must be
            // monotone non-decreasing and never exceed the true total.
            let total = per_thread * threads as u64;
            let mut last = 0u64;
            while !done.load(Ordering::Relaxed) {
                let count = hist.snapshot().count();
                assert!(count >= last, "seed {seed}: snapshot count regressed");
                assert!(count <= total, "seed {seed}: snapshot overcounted");
                last = count;
                if workers.iter().all(|w| w.is_finished()) {
                    done.store(true, Ordering::Relaxed);
                }
            }
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(hist.snapshot().count(), total, "seed {seed}: records lost");
        });
    }

    #[test]
    fn since_recovers_exactly_the_window_recorded_in_between() {
        for_each_seed(64, |seed, rng| {
            let hist = WaitHistogram::new();
            let before_waits: Vec<u64> = (0..rng.random_range(0usize..32))
                .map(|_| random_wait(rng))
                .collect();
            for &w in &before_waits {
                hist.record(Duration::from_nanos(w));
            }
            let before = hist.snapshot();
            let window_waits: Vec<u64> = (0..rng.random_range(0usize..32))
                .map(|_| random_wait(rng))
                .collect();
            for &w in &window_waits {
                hist.record(Duration::from_nanos(w));
            }
            let after = hist.snapshot();
            let window = after.since(&before);
            // The delta is exactly the histogram of the in-between waits.
            let expect = WaitHistogram::new();
            for &w in &window_waits {
                expect.record(Duration::from_nanos(w));
            }
            assert_eq!(window, expect.snapshot(), "seed {seed}");
        });
    }
}
