//! The record files behind every resume, against hostile documents.
//!
//! Two record types load through `mosaic_sim::checkpoint::read_record`:
//! the rollup checkpoints of F18 and F19 (`FileStore`, one file per
//! batch) and `run_all`'s per-figure fragments. For both:
//!
//! * no document panics or aborts the loader;
//! * what the writer wrote, the loader returns exactly;
//! * a corrupt file loads as `None`, after which a checkpointed fold
//!   recomputes its batches and `run_all --resume` re-runs the figure.
//!
//! The hostile documents start from a valid record and replace one field,
//! at the top level or nested, with a value of the wrong JSON type, hex
//! wider than its integer or with a leading `+`, a huge array, or arrays
//! nested past the parser's 128-level limit; or they repeat one key. A
//! repeated key is read at its last occurrence (`Json::get`). Records are
//! compared re-encoded: each writer writes every field, so equal
//! documents mean equal records. Literal records, in the bytes the two
//! formats have always been written in, pin on-disk compatibility.

use mosaic_bench::fragments::{self, fragment_path, load_fragment, write_fragment};
use mosaic_bench::manifest::FigureRecord;
use mosaic_netsim::FleetRollup;
use mosaic_sim::checkpoint::{encode, ExactRollup, Field, FileStore, Store};
use mosaic_sim::json::Json;
use mosaic_sim::sweep::Exec;
use mosaic_sim::telemetry::{Snapshot, StageRecord};
use mosaic_traffic::{run_point, run_point_with, TrafficConfig, TrafficRollup};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const MODE: &str = "quick";
const FAMILY: &str = "rec";
const BATCH: u64 = 3;
const DIGEST: u64 = 0x0123_4567_89ab_cdef;
/// Largest integer a fragment's JSON numbers hold exactly.
const EXACT: u64 = (1 << 53) - 1;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mosaic-records-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A valid record of one of the three types under test.
#[derive(Debug)]
enum Record {
    Traffic(TrafficRollup),
    Fleet(FleetRollup),
    Fragment(FigureRecord),
}

impl Record {
    fn to_json(&self) -> Json {
        match self {
            Record::Traffic(r) => encode(BATCH, DIGEST, r),
            Record::Fleet(r) => encode(BATCH, DIGEST, r),
            Record::Fragment(f) => fragments::to_json(f, MODE),
        }
    }

    /// Write the record with its own writer.
    fn write(&self, dir: &Path) {
        let mut store = FileStore::new(dir, FAMILY);
        match self {
            Record::Traffic(r) => store.save(BATCH, DIGEST, r).unwrap(),
            Record::Fleet(r) => store.save(BATCH, DIGEST, r).unwrap(),
            Record::Fragment(f) => write_fragment(dir, f, MODE).unwrap(),
        }
    }

    fn path(&self, dir: &Path) -> PathBuf {
        match self {
            Record::Fragment(f) => fragment_path(dir, &f.id),
            _ => FileStore::new(dir, FAMILY).path(BATCH),
        }
    }

    /// Load the record's file with its own loader, re-encoded (`None`:
    /// rejected).
    fn load(&self, dir: &Path) -> Option<Json> {
        let mut store = FileStore::new(dir, FAMILY);
        match self {
            Record::Traffic(_) => Store::<TrafficRollup>::load(&mut store, BATCH, DIGEST)
                .map(|r| encode(BATCH, DIGEST, &r)),
            Record::Fleet(_) => Store::<FleetRollup>::load(&mut store, BATCH, DIGEST)
                .map(|r| encode(BATCH, DIGEST, &r)),
            Record::Fragment(f) => {
                load_fragment(dir, &f.id, MODE).map(|f| fragments::to_json(&f, MODE))
            }
        }
    }
}

/// Draws for building a record: a cursor over random words.
struct Words<'a>(std::iter::Cycle<std::slice::Iter<'a, u64>>);

impl Words<'_> {
    fn next(&mut self) -> u64 {
        self.0.next().copied().unwrap_or(0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A string over quotes, escapes, control characters and non-ASCII,
    /// shorter than a hex field (so [`mutate`] never takes it for one).
    fn string(&mut self) -> String {
        const CHARS: &[char] = &[
            'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '€', '\u{2028}', '😀',
        ];
        let len = self.below(12);
        (0..len)
            .map(|_| CHARS[self.below(CHARS.len() as u64) as usize])
            .collect()
    }

    /// A finite float from random bits. JSON has no NaN or infinity, so
    /// those are out of the format's domain (pinned separately).
    fn float(&mut self) -> f64 {
        let x = f64::from_bits(self.next());
        if x.is_finite() {
            x
        } else {
            f64::from_bits(self.next() >> 12)
        }
    }
}

/// A rollup with every field drawn in declaration order.
fn rollup<R: ExactRollup>(w: &mut Words) -> R {
    let mut r = R::default();
    r.fields(&mut |_, field| match field {
        Field::U64(v) => *v = w.next(),
        Field::U128(v) => *v = (u128::from(w.next()) << 64) | u128::from(w.next()),
        Field::U64s(vs) => vs.iter_mut().for_each(|v| *v = w.next()),
    });
    r
}

/// A figure record with every part of the snapshot populated or empty.
fn figure(w: &mut Words) -> FigureRecord {
    let mut snap = Snapshot::default();
    for _ in 0..w.below(4) {
        snap.counters.insert(w.string(), w.next() & EXACT);
    }
    for _ in 0..w.below(3) {
        let series = (0..w.below(6)).map(|_| w.float()).collect();
        snap.series.insert(w.string(), series);
    }
    for _ in 0..w.below(3) {
        snap.stages.push(StageRecord {
            name: w.string(),
            trials: w.next() & EXACT,
            wall_ns: w.next() & EXACT,
            cpu_ns: w.next() & EXACT,
        });
    }
    FigureRecord {
        id: format!("F{}", w.below(20)),
        title: w.string(),
        output: w.string(),
        telemetry: snap,
        wall_ns: w.next() & EXACT,
    }
}

fn record(kind: usize, words: &[u64]) -> Record {
    let mut w = Words(words.iter().cycle());
    match kind % 3 {
        0 => Record::Traffic(rollup(&mut w)),
        1 => Record::Fleet(rollup(&mut w)),
        _ => Record::Fragment(figure(&mut w)),
    }
}

/// One hostile edit of a valid document.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// A value of another JSON type (the `n`th of [`other_type`]'s).
    WrongType(usize),
    /// Hex one digit wider (`zero`: padded, so the same value), or a
    /// number past `u64`.
    Wide { zero: bool },
    /// Hex whose first digit is a `+`, or a negative number.
    Plus,
    /// An array of this many hex strings.
    Huge(usize),
    /// Arrays nested this deep, past the parser's limit.
    Nested(usize),
    /// A top-level key repeated with a wrong-typed value, before or after
    /// the valid one.
    Duplicate { hostile_last: bool, ty: usize },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0..6usize).prop_map(Mutation::WrongType),
        any::<bool>().prop_map(|zero| Mutation::Wide { zero }),
        Just(Mutation::Plus),
        (100_000..200_000usize).prop_map(Mutation::Huge),
        (129..(1usize << 20)).prop_map(Mutation::Nested),
        (0..12usize).prop_map(|x| Mutation::Duplicate {
            hostile_last: x % 2 == 1,
            ty: x / 2,
        }),
    ]
}

/// What loading the mutated document must give.
#[derive(Debug, PartialEq)]
enum Expect {
    /// `None`: the document is corrupt.
    Reject,
    /// The valid record, untouched.
    Original,
    /// `None`, or a record whose encoding is the mutated document: a
    /// number edit that a float field may hold faithfully.
    RejectOrFaithful,
}

fn other_type(v: &Json, n: usize) -> Json {
    let kind = |j: &Json| std::mem::discriminant(j);
    let candidates: Vec<Json> = [
        Json::Null,
        Json::Bool(true),
        Json::Num(7.0),
        Json::from("7"),
        Json::Arr(vec![Json::Num(1.0)]),
        Json::object().with("k", Json::Null),
    ]
    .into_iter()
    .filter(|c| kind(c) != kind(v))
    .collect();
    candidates[n % candidates.len()].clone()
}

fn is_hex(s: &str) -> bool {
    (s.len() == 16 || s.len() == 32) && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The value `path` leads to: one pair or item per step, stopping at a
/// leaf or an empty container.
fn target<'a>(node: &'a mut Json, path: &[usize]) -> &'a mut Json {
    let Some((&i, rest)) = path.split_first() else {
        return node;
    };
    let len = match &*node {
        Json::Obj(pairs) => pairs.len(),
        Json::Arr(items) => items.len(),
        _ => 0,
    };
    if len == 0 {
        return node;
    }
    match node {
        Json::Obj(pairs) => target(&mut pairs[i % len].1, rest),
        Json::Arr(items) => target(&mut items[i % len], rest),
        leaf => leaf,
    }
}

const NEST: &str = "@nest@";

/// Apply `m` at `path` of `doc`: the mutated document's text and what
/// loading it must give (and the mutated document, for
/// [`Expect::RejectOrFaithful`]).
fn mutate(doc: &Json, path: &[usize], m: Mutation) -> (String, Expect, Json) {
    let mut out = doc.clone();
    let mut expect = Expect::Reject;
    if let Mutation::Duplicate { hostile_last, ty } = m {
        let Json::Obj(pairs) = &mut out else {
            unreachable!("records are objects")
        };
        let (key, value) = pairs[path[0] % pairs.len()].clone();
        let pair = (key, other_type(&value, ty));
        if hostile_last {
            pairs.push(pair);
        } else {
            pairs.insert(0, pair);
            expect = Expect::Original;
        }
    } else {
        let slot = target(&mut out, path);
        *slot = match (m, &*slot) {
            (Mutation::Wide { zero }, Json::Str(s)) if is_hex(s) => {
                Json::from(format!("{}{s}", if zero { '0' } else { '1' }))
            }
            (Mutation::Plus, Json::Str(s)) if is_hex(s) => Json::from(format!("+{}", &s[1..])),
            (Mutation::Wide { .. }, Json::Num(_)) => {
                expect = Expect::RejectOrFaithful;
                Json::Num(u64::MAX as f64)
            }
            (Mutation::Plus, Json::Num(x)) => {
                expect = Expect::RejectOrFaithful;
                Json::Num(-x.abs() - 1.0)
            }
            (Mutation::Huge(n), _) => Json::Arr(vec![Json::from("0000000000000000"); n]),
            (Mutation::Nested(_), _) => Json::from(NEST),
            (Mutation::WrongType(ty), v) => other_type(v, ty),
            (_, v) => other_type(v, 0),
        };
    }
    let mut text = out.to_string_pretty();
    if let Mutation::Nested(depth) = m {
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        text = text.replace(&format!("{NEST:?}"), &nested);
    }
    (text, expect, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// What a writer wrote, its loader returns exactly.
    #[test]
    fn records_round_trip_exactly(
        kind in 0..3usize,
        words in collection::vec(any::<u64>(), 1..64),
    ) {
        let dir = temp_dir("round-trip");
        let rec = record(kind, &words);
        rec.write(&dir);
        prop_assert_eq!(
            std::fs::read_to_string(rec.path(&dir)).unwrap(),
            rec.to_json().to_string_pretty()
        );
        prop_assert_eq!(rec.load(&dir), Some(rec.to_json()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hostile document never panics or aborts its loader, and loads
    /// as `None` unless the edit left a record the file holds exactly.
    #[test]
    fn hostile_documents_load_as_none(
        kind in 0..3usize,
        words in collection::vec(any::<u64>(), 1..64),
        path in collection::vec(0..64usize, 1..5),
        m in mutation(),
    ) {
        let dir = temp_dir("hostile");
        let rec = record(kind, &words);
        let (text, expect, mutated) = mutate(&rec.to_json(), &path, m);
        std::fs::write(rec.path(&dir), text).unwrap();
        let loaded = rec.load(&dir);
        match expect {
            Expect::Reject => prop_assert_eq!(loaded, None),
            Expect::Original => prop_assert_eq!(loaded, Some(rec.to_json())),
            Expect::RejectOrFaithful => {
                prop_assert!(loaded.is_none() || loaded == Some(mutated), "{m:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A small F19 point (4 runs per checkpoint batch).
fn traffic_point() -> TrafficConfig {
    TrafficConfig {
        epochs: 64,
        faults_per_kilo_epoch: 6.0,
        ..TrafficConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A corrupt newest checkpoint is skipped: the fold resumes from the
    /// batch before it and ends on the uninterrupted rollup.
    #[test]
    fn a_corrupt_checkpoint_is_recomputed(
        path in collection::vec(0..64usize, 1..5),
        m in mutation(),
    ) {
        let cfg = traffic_point();
        let exec = Exec::with_threads(1);
        let clean = run_point(&cfg, 5, 12, &exec).unwrap();
        let dir = temp_dir("recompute");
        let mut store = FileStore::new(&dir, FAMILY);
        // Killed after two of three batches, the second one then corrupted.
        prop_assert_eq!(run_point_with(&cfg, 5, 12, &exec, &mut store, Some(2)).unwrap(), None);
        let valid = std::fs::read_to_string(store.path(1)).unwrap();
        let (text, _, _) = mutate(&Json::parse(&valid).unwrap(), &path, m);
        std::fs::write(store.path(1), text).unwrap();
        let resumed = run_point_with(&cfg, 5, 12, &exec, &mut store, None).unwrap();
        prop_assert_eq!(resumed, Some(clean));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A megabyte of `[`, the input that used to overflow the parser's
/// stack: every loader ignores it, the fold recomputes, the fragment
/// loads as `None` so `run_all --resume` re-runs the figure.
#[test]
fn a_megabyte_of_brackets_is_ignored() {
    let hostile = "[".repeat(1 << 20);
    let dir = temp_dir("brackets");
    let mut store = FileStore::new(&dir, FAMILY);
    for batch in 0..2 {
        std::fs::write(store.path(batch), &hostile).unwrap();
    }
    let cfg = traffic_point();
    let exec = Exec::with_threads(1);
    let resumed = run_point_with(&cfg, 5, 8, &exec, &mut store, None).unwrap();
    assert_eq!(resumed, Some(run_point(&cfg, 5, 8, &exec).unwrap()));
    std::fs::write(fragment_path(&dir, "F9"), &hostile).unwrap();
    assert!(load_fragment(&dir, "F9", MODE).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint that repeats a key is read at the last occurrence.
#[test]
fn a_repeated_key_reads_its_last_value() {
    let dir = temp_dir("repeat");
    let mut store = FileStore::new(&dir, FAMILY);
    let r = TrafficRollup {
        runs: 1,
        ..TrafficRollup::default()
    };
    let Json::Obj(mut pairs) = encode(BATCH, DIGEST, &r) else {
        unreachable!("checkpoints are objects")
    };
    pairs.push(("runs".into(), Json::from("0000000000000002")));
    std::fs::write(store.path(BATCH), Json::Obj(pairs).to_string_pretty()).unwrap();
    let loaded: Option<TrafficRollup> = store.load(BATCH, DIGEST);
    assert_eq!(loaded.map(|l| l.runs), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fragment format's number limits: JSON numbers are f64, so a
/// counter above 2^53 rounds, a `u64` field of 2^64 or more is rejected,
/// and a NaN (written `null`) makes the fragment load as `None`, so the
/// figure re-runs rather than resuming with a changed value.
#[test]
fn fragment_numbers_outside_the_format_are_pinned() {
    let dir = temp_dir("numbers");
    let mut w = Words([7u64].iter().cycle());
    let mut rec = figure(&mut w);
    rec.id = "F3".into();
    rec.telemetry.counters.insert("big".into(), (1 << 53) + 1);
    write_fragment(&dir, &rec, MODE).unwrap();
    let back = load_fragment(&dir, "F3", MODE).unwrap();
    assert_eq!(back.telemetry.counters["big"], 1 << 53);
    rec.wall_ns = u64::MAX;
    write_fragment(&dir, &rec, MODE).unwrap();
    assert!(load_fragment(&dir, "F3", MODE).is_none());
    rec.wall_ns = 1;
    rec.telemetry.series.insert("nan".into(), vec![f64::NAN]);
    write_fragment(&dir, &rec, MODE).unwrap();
    assert!(load_fragment(&dir, "F3", MODE).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traffic checkpoint, byte for byte as the format has always been
/// written.
const LITERAL_ROLLUP: &str = r#"{
  "schema": "mosaic-traffic-rollup/v1",
  "batch": "0000000000000003",
  "digest": "0123456789abcdef",
  "runs": "0100000001010101",
  "offered": "0200000002020202",
  "delivered": "0300000003030303",
  "retried": "0400000004040404",
  "expired": "0500000005050505",
  "exhausted": "0600000006060606",
  "reordered": "0700000007070707",
  "corrupt_frames": "0800000008080808",
  "deskew_epochs": "0900000009090909",
  "remaps": "0a0000000a0a0a0a",
  "pause_epochs": "0b0000000b0b0b0b",
  "lost_lanes": "0c0000000c0c0c0c",
  "payload_bytes": "0d0000000d0d0d0d",
  "latency_hist": [
    "000000000000000e",
    "000000000000000f",
    "0000000000000010",
    "0000000000000011",
    "0000000000000012",
    "0000000000000013",
    "0000000000000014",
    "0000000000000015",
    "0000000000000016",
    "0000000000000017",
    "0000000000000018",
    "0000000000000019",
    "000000000000001a",
    "000000000000001b",
    "000000000000001c",
    "000000000000001d"
  ],
  "latency_sum": "000000ffffffffffffffff0000000abc"
}
"#;

/// A run_all fragment, byte for byte as the format is written.
const LITERAL_FRAGMENT: &str = r#"{
  "schema": "mosaic-manifest-fragment/v1",
  "mode": "quick",
  "id": "F9",
  "title": "Trade-off \"map\"",
  "output_text": "col\ta\n1\t2\n",
  "wall_ns": 9876543,
  "values": {
    "counters": {
      "trials.f9": 4096
    },
    "series": {
      "f9.margin_db": [
        0.25,
        -1.5,
        0.000000003
      ]
    }
  },
  "stages": [
    {
      "name": "f9.sweep",
      "trials": 4096,
      "wall_ns": 1234567,
      "cpu_ns": 2345678
    }
  ]
}
"#;

#[test]
fn literal_records_decode_unchanged() {
    let dir = temp_dir("literal");
    let mut store = FileStore::new(&dir, "tr");
    std::fs::write(store.path(BATCH), LITERAL_ROLLUP).unwrap();
    let r: TrafficRollup = store.load(BATCH, DIGEST).expect("literal checkpoint loads");
    assert_eq!(
        (r.runs, r.offered),
        (0x0100_0000_0101_0101, 0x0200_0000_0202_0202)
    );
    assert_eq!(r.payload_bytes, 0x0d00_0000_0d0d_0d0d);
    assert_eq!(r.latency_hist[0], 0xe);
    assert_eq!(r.latency_hist[15], 0x1d);
    assert_eq!(r.latency_sum, (u128::from(u64::MAX) << 40) | 0xabc);
    assert_eq!(encode(BATCH, DIGEST, &r).to_string_pretty(), LITERAL_ROLLUP);

    std::fs::write(fragment_path(&dir, "F9"), LITERAL_FRAGMENT).unwrap();
    let f = load_fragment(&dir, "F9", MODE).expect("literal fragment loads");
    assert_eq!(f.title, "Trade-off \"map\"");
    assert_eq!(f.output, "col\ta\n1\t2\n");
    assert_eq!(f.wall_ns, 9_876_543);
    let t = &f.telemetry;
    assert_eq!(t.counters["trials.f9"], 4096);
    assert_eq!(t.series["f9.margin_db"], [0.25, -1.5, 3e-9]);
    assert_eq!(t.stages[0].name, "f9.sweep");
    assert_eq!(
        (t.stages[0].wall_ns, t.stages[0].cpu_ns),
        (1_234_567, 2_345_678)
    );
    assert_eq!(
        fragments::to_json(&f, MODE).to_string_pretty(),
        LITERAL_FRAGMENT
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run_all fragment as earlier writers wrote it: the same record as
/// [`LITERAL_FRAGMENT`], with the always-empty `histograms` object those
/// writers emitted between `counters` and `series`.
const EARLIER_FRAGMENT: &str = r#"{
  "schema": "mosaic-manifest-fragment/v1",
  "mode": "quick",
  "id": "F9",
  "title": "Trade-off \"map\"",
  "output_text": "col\ta\n1\t2\n",
  "wall_ns": 9876543,
  "values": {
    "counters": {
      "trials.f9": 4096
    },
    "histograms": {},
    "series": {
      "f9.margin_db": [
        0.25,
        -1.5,
        0.000000003
      ]
    }
  },
  "stages": [
    {
      "name": "f9.sweep",
      "trials": 4096,
      "wall_ns": 1234567,
      "cpu_ns": 2345678
    }
  ]
}
"#;

/// A fragment left by an earlier build still resumes: it loads with its
/// counters, series and stages intact, and re-encodes to the current
/// bytes, so `run_all --resume` does not re-run its figure.
#[test]
fn earlier_fragments_with_empty_histograms_still_load() {
    assert_eq!(
        EARLIER_FRAGMENT.replace("    \"histograms\": {},\n", ""),
        LITERAL_FRAGMENT
    );
    let dir = temp_dir("earlier");
    std::fs::write(fragment_path(&dir, "F9"), EARLIER_FRAGMENT).unwrap();
    let f = load_fragment(&dir, "F9", MODE).expect("earlier fragment loads");
    let t = &f.telemetry;
    assert_eq!(t.counters["trials.f9"], 4096);
    assert_eq!(t.series["f9.margin_db"], [0.25, -1.5, 3e-9]);
    assert_eq!(t.stages.len(), 1);
    assert_eq!(
        fragments::to_json(&f, MODE).to_string_pretty(),
        LITERAL_FRAGMENT
    );
    let _ = std::fs::remove_dir_all(&dir);
}
