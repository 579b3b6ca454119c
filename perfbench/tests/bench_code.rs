//! Tests of the benchmark's own code: order statistics, the tail
//! percentile rule, metric naming, `BENCHMARK.json` consistency, and
//! that every correctness check fires on a doctored report.

use infless_cluster::ClusterSpec;
use infless_core::apps::Application;
use infless_core::metrics::RunReport;
use infless_core::platform::{InflessConfig, InflessPlatform};
use infless_perfbench::catalogue::{END_TO_END, PER_LAYER};
use infless_perfbench::checks;
use infless_perfbench::quality::{interpolated_quantile, Quality};
use infless_perfbench::spans::Spans;
use infless_perfbench::stats::{median, quartiles, samples_beyond, supports_quantile, valid_name};
use infless_perfbench::workloads::{Inputs, Kind};
use infless_sim::SimDuration;
use infless_telemetry::Log2Histogram;
use infless_workload::{FunctionLoad, Workload};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values are Python's `statistics.quantiles(data, n=4)`.
    type Case = (&'static [f64], (f64, f64, f64));
    let cases: [Case; 5] = [
        (&[1.0, 3.0], (0.5, 2.0, 3.5)),
        (&[1.0, 2.0, 3.0, 4.0], (1.25, 2.5, 3.75)),
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 5.5, 8.25),
        ),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], (1.5, 3.0, 4.5)),
        (&[2.5, 0.5, 1.5], (0.5, 1.5, 2.5)),
    ];
    for (data, want) in cases {
        assert_eq!(quartiles(data), want, "{data:?}");
    }
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
#[should_panic(expected = "empty sample")]
fn median_of_nothing_panics() {
    median(&[]);
}

#[test]
fn interpolated_quantile_stays_in_its_bucket_and_moves_with_rank() {
    let mut h = Log2Histogram::new();
    for i in 0..1000 {
        h.add(100.0 + f64::from(i) * 0.0001);
    }
    // Every sample shares one bucket: the midpoint is the same for any
    // q, the interpolated value rises with q inside the bucket.
    let (lo, hi) = (
        interpolated_quantile(&h, 0.1),
        interpolated_quantile(&h, 0.9),
    );
    assert_eq!(h.quantile(0.1), h.quantile(0.9));
    assert!(lo < hi, "{lo} !< {hi}");
    assert!(lo >= 100.0 && hi <= 100.0999, "{lo}..{hi} outside the data");
    assert_eq!(interpolated_quantile(&Log2Histogram::new(), 0.5), 0.0);
    let mut one = Log2Histogram::new();
    one.add(7.5);
    assert_eq!(interpolated_quantile(&one, 0.999), 7.5);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    assert_eq!(samples_beyond(0.999, 10_000), 10);
    assert!(supports_quantile(0.999, 10_000));
    assert!(!supports_quantile(0.999, 9_999));
    assert!(supports_quantile(0.99, 1_000));
    assert!(!supports_quantile(0.99, 999));
    assert!(checks::tail_supported(0.999, 10_000).is_empty());
    assert_eq!(checks::tail_supported(0.999, 9_999).len(), 1);
}

#[test]
fn metric_names_follow_the_naming_rule() {
    for good in ["latency_p50_ms", "router.dispatch_ns_p99", "a", "9-x_y.z"] {
        assert!(valid_name(good), "{good}");
    }
    let too_long = "x".repeat(65);
    for bad in [
        "",
        ".lead",
        "_lead",
        "has space",
        "slash/no",
        "ünï",
        too_long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(*name), "{name} listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name}: bad unit {unit}"
        );
    }
    for kind in Kind::ALL {
        assert!(valid_name(kind.name()));
        assert_eq!(Kind::parse(kind.name()), Some(kind));
    }
}

#[test]
fn benchmark_json_names_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
        .collect();
    assert_eq!(workloads, Kind::ALL.map(Kind::name));
}

#[test]
fn inputs_depend_on_the_seed_alone() {
    let arrivals = |seed| {
        Inputs::generate(Kind::BaselinesOneshot, seed, &mut Spans::new())
            .workload
            .arrivals()
            .to_vec()
    };
    assert_eq!(arrivals(3), arrivals(3));
    assert_ne!(arrivals(3), arrivals(4));
}

/// A small clean run: OSVT at 20 rps per function for 5 s.
fn small_run() -> (RunReport, Vec<u64>) {
    let app = Application::osvt();
    let loads: Vec<FunctionLoad> = app
        .functions()
        .iter()
        .map(|_| FunctionLoad::constant(20.0, SimDuration::from_secs(5)))
        .collect();
    let workload = Workload::build(&loads, 1);
    let mut offered = vec![0u64; loads.len()];
    for &(_, f) in workload.arrivals() {
        offered[f] += 1;
    }
    let report = InflessPlatform::new(
        ClusterSpec::testbed(),
        app.functions().to_vec(),
        InflessConfig::default(),
        11,
    )
    .run(&workload);
    (report, offered)
}

#[test]
fn every_check_fires_on_a_doctored_report() {
    let (clean, offered) = small_run();
    assert!(checks::conservation(&clean, &offered).is_empty());
    assert!(checks::every_function_offered(&offered).is_empty());
    let canon = clean.canonical_json();
    assert!(checks::identical("same", &canon, &canon).is_empty());

    let mut lost = clean.clone();
    lost.functions[0].completed -= 1;
    assert_eq!(checks::conservation(&lost, &offered).len(), 1);

    let mut kv = clean.clone();
    kv.kv_allocated_bytes += 1;
    assert_eq!(checks::conservation(&kv, &offered).len(), 1);

    let mut missing = clean.clone();
    missing.functions.pop();
    assert_eq!(checks::conservation(&missing, &offered).len(), 1);

    let mut silent = offered.clone();
    silent[1] = 0;
    assert_eq!(checks::every_function_offered(&silent).len(), 1);

    let mut drifted = clean.clone();
    drifted.functions[0].dropped += 1;
    let failures = checks::identical("drift", &canon, &drifted.canonical_json());
    assert_eq!(failures.len(), 1);
    assert!(failures[0].starts_with("drift"));
}

#[test]
fn quality_pools_reports() {
    let (clean, _) = small_run();
    let one = Quality::of(std::slice::from_ref(&clean));
    let two = Quality::of(&[clean.clone(), clean]);
    assert_eq!(two.offered, 2 * one.offered);
    assert_eq!(two.slo_attainment(), one.slo_attainment());
    assert_eq!(two.drop_rate(), one.drop_rate());
    // Interpolation within a bucket shifts by at most half a rank.
    let (a, b) = (two.latency_q(0.5), one.latency_q(0.5));
    assert!((a / b - 1.0).abs() < 1e-3, "{a} vs {b}");
    assert!(one.slo_attainment() > 0.0 && one.slo_attainment() <= 1.0);
}
