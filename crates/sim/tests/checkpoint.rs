//! The checkpointed exact fold: the lint R6 proof for
//! `TrialPlan::fold_checkpointed`, and the checkpoint store's contract.
//!
//! * the folded rollup is bit-identical at every thread count and batch
//!   size, and across a kill after every batch followed by a resume;
//! * a checkpoint stamped with another digest never seeds a resume;
//! * `FileStore` round-trips every field exactly (also above 2^53), and
//!   any truncated, corrupt or hostile file is ignored, never a panic.

use mosaic_sim::checkpoint::{
    decode, encode, fingerprint, Checkpoints, ExactRollup, Field, FileStore, NoStore, Store,
};
use mosaic_sim::digest::Fnv1a;
use mosaic_sim::json::Json;
use mosaic_sim::sweep::{Exec, TrialPlan};
use mosaic_units::Result;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A test rollup with every field shape: counters, a wide sum, a
/// histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    trials: u64,
    hits: u64,
    sum: u128,
    hist: [u64; 4],
}

impl ExactRollup for Tally {
    const SCHEMA: &'static str = "test-tally/v1";

    fn merge(&mut self, o: &Self) {
        self.trials += o.trials;
        self.hits += o.hits;
        self.sum += o.sum;
        for (a, b) in self.hist.iter_mut().zip(&o.hist) {
            *a += b;
        }
    }

    fn fields(&mut self, visit: &mut dyn FnMut(&'static str, Field<'_>)) {
        visit("trials", Field::U64(&mut self.trials));
        visit("hits", Field::U64(&mut self.hits));
        visit("sum", Field::U128(&mut self.sum));
        visit("hist", Field::U64s(&mut self.hist));
    }
}

/// One trial: a pure function of the plan's stream for this trial.
fn trial(ctx: &mut mosaic_sim::sweep::TrialCtx) -> Tally {
    let mut rng = ctx.rng();
    let draw = rng.next_u64();
    let mut hist = [0; 4];
    hist[(draw % 4) as usize] = 1;
    Tally {
        trials: 1,
        hits: u64::from(draw >> 63 == 1),
        sum: u128::from(draw) << 20,
        hist,
    }
}

fn plan(trials: u64) -> TrialPlan<'static> {
    TrialPlan::new().trials(trials).seed(77).label("ck-test")
}

fn fold(
    trials: u64,
    threads: usize,
    batch: u64,
    store: &mut dyn Store<Tally>,
    digest: u64,
    stop: Option<u64>,
) -> Option<Tally> {
    plan(trials)
        .fold_checkpointed(
            &Exec::with_threads(threads),
            Checkpoints {
                store,
                digest,
                batch_trials: batch,
                stop_after_batches: stop,
            },
            || (),
            |ctx, _| trial(ctx),
        )
        .unwrap()
}

/// The sequential reference: every trial's rollup, merged in order.
fn reference(trials: u64) -> Tally {
    let runs = plan(trials).run(&Exec::with_threads(1), trial);
    let mut total = Tally::default();
    for r in &runs {
        total.merge(r);
    }
    total
}

/// An in-memory store that records every checkpoint.
#[derive(Default)]
struct MemStore(BTreeMap<u64, (u64, Tally)>);

impl Store<Tally> for MemStore {
    fn load(&mut self, batch: u64, digest: u64) -> Option<Tally> {
        self.0
            .get(&batch)
            .filter(|(d, _)| *d == digest)
            .map(|(_, r)| *r)
    }
    fn save(&mut self, batch: u64, digest: u64, rollup: &Tally) -> Result<()> {
        self.0.insert(batch, (digest, *rollup));
        Ok(())
    }
}

#[test]
fn fold_checkpointed_is_thread_and_batch_invariant() {
    let want = reference(53);
    assert_eq!(want.trials, 53);
    for threads in [1, 2, 8] {
        for batch in [1, 4, 7, 53, 100] {
            let got = fold(53, threads, batch, &mut NoStore, 1, None).unwrap();
            assert_eq!(got, want, "threads={threads} batch={batch}");
        }
    }
}

#[test]
fn fold_checkpointed_resumes_after_a_kill_at_every_batch() {
    let want = reference(29);
    for stop in 1..=8u64 {
        let mut store = MemStore::default();
        let mut kills = 0;
        let got = loop {
            match fold(29, 4, 4, &mut store, 5, Some(stop)) {
                Some(r) => break r,
                None => kills += 1,
            }
        };
        assert_eq!(got, want, "stop-after={stop}");
        assert_eq!(
            kills,
            8usize.div_ceil(stop as usize) - 1,
            "stop-after={stop}"
        );
        assert_eq!(store.0.len(), 8, "one checkpoint per batch");
    }
}

#[test]
fn checkpoints_under_another_digest_are_ignored() {
    let mut store = MemStore::default();
    assert!(fold(20, 2, 4, &mut store, 1, Some(2)).is_none());
    // A different run (digest 2) through the same store starts fresh…
    let other = fold(20, 2, 4, &mut store, 2, None).unwrap();
    assert_eq!(other, reference(20));
    // …and so does the first run once its checkpoints are overwritten.
    assert_eq!(fold(20, 2, 4, &mut store, 1, None).unwrap(), reference(20));
}

#[test]
fn zero_batch_size_is_an_error() {
    let r = plan(4).fold_checkpointed(
        &Exec::with_threads(1),
        Checkpoints {
            store: &mut NoStore,
            digest: 0,
            batch_trials: 0,
            stop_after_batches: None,
        },
        || (),
        |ctx, _| trial(ctx),
    );
    assert!(r.is_err());
}

#[test]
fn fingerprint_hashes_fields_in_declaration_order() {
    let t = Tally {
        trials: 3,
        hits: 1,
        sum: (7u128 << 64) | 9,
        hist: [1, 0, 2, 0],
    };
    let mut h = Fnv1a::sim();
    h.u64(3).u64(1).u64(9).u64(7).u64(1).u64(0).u64(2).u64(0);
    assert_eq!(fingerprint(&t), h.finish());
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mosaic-ck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn file_store_round_trips_and_rejects_everything_else() {
    let dir = temp_dir("files");
    let mut store = FileStore::new(&dir, "tt-a");
    let r = Tally {
        trials: (1 << 60) + 3, // above 2^53: a float-backed field would round it
        hits: 42,
        sum: u128::MAX / 7,
        hist: [9, 8, 7, 6],
    };
    store.save(4, 0xdead_beef, &r).unwrap();
    assert_eq!(store.load(4, 0xdead_beef), Some(r));
    // Wrong digest, wrong batch, another family: ignored.
    assert_eq!(Store::<Tally>::load(&mut store, 4, 0xdead_beee), None);
    assert_eq!(Store::<Tally>::load(&mut store, 3, 0xdead_beef), None);
    let mut other = FileStore::new(&dir, "tt-b");
    assert_eq!(Store::<Tally>::load(&mut other, 4, 0xdead_beef), None);
    // Clearing one family leaves the other alone.
    other.save(0, 1, &r).unwrap();
    store.clear();
    assert_eq!(Store::<Tally>::load(&mut store, 4, 0xdead_beef), None);
    assert_eq!(other.load(0, 1), Some(r));
    // A torn write is ignored.
    store.save(4, 0xdead_beef, &r).unwrap();
    let text = std::fs::read_to_string(store.path(4)).unwrap();
    std::fs::write(store.path(4), &text[..text.len() / 2]).unwrap();
    assert_eq!(Store::<Tally>::load(&mut store, 4, 0xdead_beef), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decode_rejects_wrong_schema_and_shapes() {
    let r = Tally::default();
    let good = encode(1, 2, &r);
    assert_eq!(decode::<Tally>(&good, 1, 2), Ok(r));
    let mut bad = good.clone();
    bad.set("schema", "test-tally/v0");
    assert!(decode::<Tally>(&bad, 1, 2).is_err());
    let mut bad = good.clone();
    bad.set("hist", Json::Arr(vec![Json::from("0"); 3]));
    assert!(decode::<Tally>(&bad, 1, 2).is_err());
    let mut bad = good.clone();
    bad.set("sum", 5u64);
    assert!(decode::<Tally>(&bad, 1, 2).is_err());
    let mut bad = good;
    bad.set("hits", "not hex");
    assert!(decode::<Tally>(&bad, 1, 2).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encoding then decoding reproduces every field exactly.
    #[test]
    fn encode_decode_round_trips(
        trials: u64,
        hits: u64,
        lo: u64,
        hi: u64,
        h0: u64,
        h3: u64,
        batch: u64,
        digest: u64,
    ) {
        let r = Tally { trials, hits, sum: (u128::from(hi) << 64) | u128::from(lo), hist: [h0, 0, 1, h3] };
        let text = encode(batch, digest, &r).to_string_pretty();
        let doc = Json::parse(&text).unwrap();
        prop_assert_eq!(decode::<Tally>(&doc, batch, digest), Ok(r));
    }

    /// Arbitrary bytes where a checkpoint should be never panic the
    /// loader and never load.
    #[test]
    fn hostile_checkpoint_files_are_ignored(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let dir = temp_dir("hostile");
        let mut store = FileStore::new(&dir, "tt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(store.path(0), &bytes).unwrap();
        prop_assert_eq!(Store::<Tally>::load(&mut store, 0, 0), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
