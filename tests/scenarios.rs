//! The shipped scenario files must stay valid, and the descriptor
//! pipeline must produce working runs across platforms.

use infless::descriptor::{PlatformKind, Scenario};
use infless::RunConfig;

#[test]
fn shipped_scenarios_parse_and_validate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            Scenario::from_file(&path).unwrap_or_else(|e| panic!("{path:?} failed to parse: {e}"));
            count += 1;
        }
    }
    assert!(
        count >= 3,
        "expected the shipped scenario set, found {count}"
    );
}

/// INFless on the faulted sweep and on the LLM mix must reproduce the
/// canonical reports pinned before the engine memoised ground-truth
/// batch latency, byte for byte. The sweep covers faults, stragglers
/// and retries; the mix covers LLM episodes next to one-shot batches.
///
/// The two-shard pins were taken before refused dispatches were
/// memoised per function. The sweep covers deferred retries at the
/// barrier, the mix continuous-batching joins, and the ramp in-place
/// resizes: each a way a full instance regains room. Tests that compare
/// shard counts against each other cannot catch a memo bug both sides
/// share; a pin from before the memo can.
#[test]
fn shipped_scenarios_match_their_pins() {
    let pins = [
        (
            "failure_sweep",
            None,
            include_str!("fixtures/failure_sweep_pin.canonical.json"),
        ),
        (
            "llm_chat_mix",
            None,
            include_str!("fixtures/llm_chat_mix_pin.canonical.json"),
        ),
        (
            "failure_sweep",
            Some(2),
            include_str!("fixtures/failure_sweep_s2_pin.canonical.json"),
        ),
        (
            "llm_chat_mix",
            Some(2),
            include_str!("fixtures/llm_chat_mix_s2_pin.canonical.json"),
        ),
        (
            "resize_ramp",
            Some(2),
            include_str!("fixtures/resize_ramp_s2_pin.canonical.json"),
        ),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    for (name, shards, pinned) in pins {
        let config = match shards {
            Some(n) => RunConfig::new().shards(n),
            None => RunConfig::new(),
        };
        let report = Scenario::from_file(dir.join(format!("{name}.json")))
            .expect("shipped scenario parses")
            .execute(config)
            .expect("runs");
        assert_eq!(
            report.canonical_json(),
            pinned.trim_end_matches('\n'),
            "{name} at shards {shards:?} no longer matches its pinned report byte for byte"
        );
    }
}

#[test]
fn same_descriptor_runs_on_every_platform() {
    let template = |platform: &str| {
        format!(
            r#"{{
                "platform": "{platform}",
                "seed": 5,
                "cluster": {{ "servers": 2 }},
                "functions": [
                    {{ "name": "f", "model": "MobileNet", "slo_ms": 200,
                       "load": {{ "kind": "constant", "rps": 25.0, "duration_secs": 20 }} }}
                ]
            }}"#
        )
    };
    for platform in ["infless", "openfaas", "batch"] {
        let scenario = Scenario::from_json(&template(platform)).expect("valid");
        let report = scenario.execute(RunConfig::new()).expect("runs");
        let total = report.total_completed() + report.total_dropped();
        assert_eq!(total, 500, "{platform}: accounted {total}");
        assert!(
            report.total_completed() > 450,
            "{platform}: completed only {}",
            report.total_completed()
        );
    }
}

#[test]
fn seed_override_changes_nothing_but_noise() {
    let json = r#"{
        "platform": "infless",
        "cluster": { "servers": 2 },
        "functions": [
            { "name": "f", "model": "TextCNN-69", "slo_ms": 100,
              "load": { "kind": "trace", "pattern": "periodic", "mean_rps": 30.0, "duration_secs": 60 } }
        ]
    }"#;
    let mut a = Scenario::from_json(json).expect("valid");
    let mut b = Scenario::from_json(json).expect("valid");
    a.seed = 1;
    b.seed = 1;
    let ra = a.execute(RunConfig::new()).expect("runs");
    let rb = b.execute(RunConfig::new()).expect("runs");
    assert_eq!(ra.total_completed(), rb.total_completed());
    assert_eq!(ra.launches, rb.launches);
    assert_eq!(PlatformKind::Infless, PlatformKind::Infless);
}
