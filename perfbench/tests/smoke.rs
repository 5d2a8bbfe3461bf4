//! Tiny-scale runs of every workload: each run must pass its own checks
//! and emit every catalogued metric, and the catalogue must match the
//! repository's `BENCHMARK.json`.

use covirt_perfbench::report::{catalogue, END_TO_END, PER_LAYER};
use covirt_perfbench::{run, Config, Scale, Workload};

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::TINY,
    }
}

// One test runs every workload in turn: the runs use both cores, so
// running them concurrently would only measure each other.
#[test]
fn every_workload_emits_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(workload, trace)).expect("run");
            let what = format!("{} trace={trace}", workload.name());
            assert!(
                out.correct,
                "{what}: failed {} ({:?})",
                out.failed, out.notes
            );
            assert!(out.attempted > 0, "{what}");
            for (name, _) in catalogue(trace) {
                let v = out.metrics.get(name);
                assert!(v.is_some_and(f64::is_finite), "{what}: {name} missing");
            }
            if trace {
                assert!(!out.spans.spans().is_empty(), "{what}: no spans");
                let exits = out.metrics.get("hv.exits_per_rtt").unwrap();
                assert_eq!(exits, 4.0, "{what}: VAPIC exits per round trip");
                let piv = out.metrics.get("hv.piv_exits_per_rtt").unwrap();
                assert_eq!(piv, 2.0, "{what}: posted exits per round trip");
            } else {
                for m in END_TO_END {
                    assert!(
                        out.metrics.get(m.name).unwrap() > 0.0,
                        "{what}: {} is 0",
                        m.name
                    );
                }
            }
        }
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entries = json.matches("\"name\":").count();
    assert_eq!(
        entries,
        3 + END_TO_END.len() + PER_LAYER.len(),
        "metric count"
    );
    for m in END_TO_END {
        let entry = format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\",\n      \"better\": \"{}\",\n      \"bound\": {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\",\n      \"better\": \"{}\"\n",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
