//! The benchmark's own arithmetic: the percentile rule, quartiles, self
//! time over nested spans, the CPU clock's units, and the metric
//! catalogue against `BENCHMARK.json`.

use mosaic_benchmark::cpu::Units;
use mosaic_benchmark::metrics::{END_TO_END, PER_LAYER};
use mosaic_benchmark::stats::{percentile, quartiles, tail_percentile};
use mosaic_benchmark::trace::{self_times, Span, Tracer, Unit};
use mosaic_benchmark::{repo_root, WORKLOADS};
use mosaic_sim::json::Json;
use std::hint::black_box;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(1_000_000), Some(99.99));
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&xs, 90.0), 90.0);
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 99.99), 100.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    type Case = (&'static [f64], (f64, f64, f64));
    let cases: [Case; 4] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            (2.75, 5.5, 8.25),
        ),
        (&[1., 2., 3., 4., 5.], (1.5, 3.0, 4.5)),
        (&[3., 1.], (0.5, 2.0, 3.5)),
        (&[5., 1., 4., 2., 3., 9., 7.], (2.0, 4.0, 7.0)),
    ];
    for (xs, want) in cases {
        assert_eq!(quartiles(xs), want, "{xs:?}");
    }
}

fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        unit: Unit { kind: "run", id: 0 },
        name: "s",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = [
        span(1, 0, 0, 100),
        // Overlapping children count once; a child running past its
        // parent's end counts only up to it.
        span(2, 1, 10, 30),
        span(3, 1, 20, 50),
        span(4, 1, 90, 120),
        // A grandchild is covered by its own parent, not the root.
        span(5, 3, 25, 45),
        span(6, 0, 200, 210),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 10, 30, 20, 10]);
}

#[test]
fn recorded_spans_nest_under_the_innermost_open_span() {
    let unit = Unit { kind: "run", id: 3 };
    let mut t = Tracer::new();
    t.enter("outer", unit);
    t.enter("inner", unit);
    t.exit();
    t.enter("inner", unit);
    t.exit();
    t.exit();
    t.enter("next", unit);
    t.exit();
    let parents: Vec<u32> = t.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![0, 1, 1, 0]);
    assert!(t.spans().iter().all(|s| s.start_ns <= s.end_ns));
    let selfs = self_times(t.spans());
    assert!(selfs[0] <= t.spans()[0].duration_ns());
    assert_eq!(t.durations("inner").len(), 2);
}

#[test]
fn units_time_each_stretch_of_cpu_work() {
    let mut units = Units::start();
    let mut x = 0u64;
    for _ in 0..3 {
        for k in 0..200_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(k));
        }
        units.mark();
    }
    assert_eq!(units.times().len(), 3);
    assert!(units.times().iter().all(|&t| t > 0.0 && t < 10.0));
}

/// A well-formed metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with
/// a letter or digit.
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
    for m in &all {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
    }
    for (i, m) in all.iter().enumerate() {
        assert!(
            all[..i].iter().all(|n| n.name != m.name),
            "{} twice",
            m.name
        );
    }
    assert!(!valid_name(""));
    assert!(!valid_name(".wall"));
    assert!(!valid_name("wall s"));
    assert!(valid_name("bench.f10_s"));
}

#[test]
fn every_experiment_has_a_per_layer_metric() {
    for (id, _, _) in mosaic_bench::all_experiments() {
        let name = format!("bench.{}_s", id.to_lowercase());
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
    }
    let figures = PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("bench."))
        .count();
    assert_eq!(figures, mosaic_bench::all_experiments().len());
}

#[test]
fn benchmark_json_lists_what_the_program_reports() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let json = Json::parse(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let want = |defs: &[mosaic_benchmark::metrics::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    };
    assert_eq!(names("end_to_end"), want(END_TO_END));
    assert_eq!(names("per_layer"), want(PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
